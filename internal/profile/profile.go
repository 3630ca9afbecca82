// Package profile is the cost-attribution profiler of the observability
// layer: every simulated instruction, wire record and stable-store byte is
// charged to a *path* — the paper's Section 6 cost categories (stack-invoked
// dormant sends, queued active sends, context restorations, heap-frame
// now-blocks, the remote send/receive halves, creation, checkpointing,
// retransmission) — and optionally to the receiver's class. Accumulation is
// per node, so the discrete-event lanes never share a cache line, and the
// whole subsystem costs a single nil check per charge when disabled.
//
// A Profiler only observes: it charges nothing to the simulated machine and
// never reads state the engine could branch on, so enabling it cannot change
// virtual-time results (asserted by TestProfilerEquivalence).
package profile

import (
	"repro/internal/sim"
)

// Path is a cost-attribution category. The zero value is Other, so charges
// from contexts that never set a path (host-side bootstrap, test harnesses)
// stay visible instead of polluting a real category.
type Path uint8

// Attribution paths. The local/remote/now/restore rows mirror the paper's
// Section 6 message-path taxonomy; the rest cover the runtime subsystems
// added since (creation protocol, scheduling-queue traffic, multiactive
// dispatch, checkpointing, the reliable protocol's retransmissions and acks).
const (
	Other        Path = iota // unattributed: host bootstrap, spurious work
	LocalDormant             // intra-node send invoked on the sender's stack
	LocalActive              // intra-node send buffered by a queuing procedure
	Restore                  // context restoration: awaited messages, resumes
	NowBlocked               // now-type send machinery (reply dest, save, reply)
	RemoteSend               // sender half of an inter-node message
	RemoteRecv               // receiver half: extraction, handler, dispatch
	Create                   // creation protocol: local create, stock, chunks
	Sched                    // preemption and yield traffic
	Body                     // user-modelled computation inside method bodies
	Ckpt                     // checkpoint capture/restore and request/ack traffic
	Retransmit               // reliable-protocol retransmissions
	Ack                      // reliable-protocol acknowledgment traffic
	Multi                    // multiactive dispatch: group checks, ready queues
	NumPaths
)

var pathNames = [NumPaths]string{
	Other:        "other",
	LocalDormant: "local-dormant",
	LocalActive:  "local-active",
	Restore:      "restore",
	NowBlocked:   "now-blocked",
	RemoteSend:   "remote-send",
	RemoteRecv:   "remote-recv",
	Create:       "create",
	Sched:        "sched",
	Body:         "body",
	Ckpt:         "ckpt",
	Retransmit:   "retransmit",
	Ack:          "ack",
	Multi:        "multi",
}

func (p Path) String() string {
	if p < NumPaths {
		return pathNames[p]
	}
	return "path(?)"
}

// Options configures a Profiler.
type Options struct {
	// Window, when positive, slices every accumulator into time-series
	// buckets of this width (phase-sliced instructions, packets, queue
	// depths and utilization). Zero keeps totals only.
	Window sim.Time
	// InstrNs is the virtual-time cost of one instruction in nanoseconds,
	// used to derive per-slice utilization. Zero leaves utilization at zero.
	InstrNs float64
}

// Slice is one time-series bucket: activity inside [Start, Start+Window).
type Slice struct {
	Start       sim.Time `json:"start_ns"`
	Instr       uint64   `json:"instr"`
	Events      uint64   `json:"events"`
	Packets     uint64   `json:"packets"`
	MaxQueue    int      `json:"max_queue"`
	Utilization float64  `json:"utilization,omitempty"`
}

// NodeProf is one node's accumulator set. It is touched only from the node's
// own event lane, like the stats.Counters it lives beside.
type NodeProf struct {
	win sim.Time

	instr   [NumPaths]uint64
	events  [NumPaths]uint64
	packets [NumPaths]uint64
	bytes   [NumPaths]uint64
	stable  uint64

	classInstr []uint64    // per class id: method-body instructions
	classDeliv [][4]uint64 // per class id: dormant/active/restore/multi deliveries
	groups     [][3]uint64 // per registered group id: started/parked/dispatched

	slices []Slice
}

// Delivery modes for ClassDeliver.
const (
	DeliverDormant = 0
	DeliverActive  = 1
	DeliverRestore = 2
	DeliverMulti   = 3
)

// Group event kinds for GroupEvent.
const (
	GroupStarted    = 0 // a compatible invocation began immediately
	GroupParked     = 1 // a conflicting invocation was buffered in the ready queue
	GroupDispatched = 2 // a parked invocation was dispatched by the scheduler
)

// ChargeInstr attributes instr simulated instructions to path p at time at.
func (np *NodeProf) ChargeInstr(p Path, instr int, at sim.Time) {
	np.instr[p] += uint64(instr)
	if np.win > 0 {
		np.slice(at).Instr += uint64(instr)
	}
}

// CountEvent counts one occurrence of path p (one message, one creation, one
// checkpoint save, ...), so per-event instruction costs can be derived.
func (np *NodeProf) CountEvent(p Path, at sim.Time) {
	np.events[p]++
	if np.win > 0 {
		np.slice(at).Events++
	}
}

// Packet attributes one wire record of the given size to path p.
func (np *NodeProf) Packet(p Path, bytes int, at sim.Time) {
	np.packets[p]++
	np.bytes[p] += uint64(bytes)
	if np.win > 0 {
		np.slice(at).Packets++
	}
}

// PacketBytes attributes wire bytes without a record of their own (ack
// framing piggybacked on a data packet).
func (np *NodeProf) PacketBytes(p Path, bytes int) {
	np.bytes[p] += uint64(bytes)
}

// StableWrite attributes bytes moved to or from the simulated stable store.
func (np *NodeProf) StableWrite(bytes int) {
	np.stable += uint64(bytes)
}

// QueueDepth samples the node's scheduling-queue depth for the time series.
func (np *NodeProf) QueueDepth(depth int, at sim.Time) {
	if np.win > 0 {
		if s := np.slice(at); depth > s.MaxQueue {
			s.MaxQueue = depth
		}
	}
}

// ClassDeliver counts one delivery to class cls in the given mode
// (DeliverDormant/DeliverActive/DeliverRestore).
func (np *NodeProf) ClassDeliver(cls int, mode int) {
	np.growClass(cls)
	np.classDeliv[cls][mode]++
}

// ClassInstr attributes method-body instructions to class cls.
func (np *NodeProf) ClassInstr(cls int, instr int) {
	np.growClass(cls)
	np.classInstr[cls] += uint64(instr)
}

// GroupEvent counts one multiactive scheduling event for the registered
// group gid (GroupStarted/GroupParked/GroupDispatched). Group ids come from
// Profiler.RegisterGroup; gid < 0 (no profiler registration) is ignored.
func (np *NodeProf) GroupEvent(gid int, kind int) {
	if gid < 0 {
		return
	}
	for len(np.groups) <= gid {
		np.groups = append(np.groups, [3]uint64{})
	}
	np.groups[gid][kind]++
}

func (np *NodeProf) growClass(cls int) {
	for len(np.classInstr) <= cls {
		np.classInstr = append(np.classInstr, 0)
		np.classDeliv = append(np.classDeliv, [4]uint64{})
	}
}

func (np *NodeProf) slice(at sim.Time) *Slice {
	idx := 0
	if at > 0 {
		idx = int(at / np.win)
	}
	for len(np.slices) <= idx {
		np.slices = append(np.slices, Slice{Start: sim.Time(len(np.slices)) * np.win})
	}
	return &np.slices[idx]
}

// Profiler owns the per-node accumulators and the class-name registry.
type Profiler struct {
	opt        Options
	nodes      []NodeProf
	classNames []string
	groupNames []groupName
}

type groupName struct {
	class string
	group string
}

// New builds a profiler for a machine of n nodes.
func New(n int, opt Options) *Profiler {
	p := &Profiler{opt: opt, nodes: make([]NodeProf, n)}
	for i := range p.nodes {
		p.nodes[i].win = opt.Window
	}
	return p
}

// Node returns node i's accumulator.
func (p *Profiler) Node(i int) *NodeProf { return &p.nodes[i] }

// RegisterClass records the name of class id for reports. Called by the
// runtime at freeze.
func (p *Profiler) RegisterClass(id int, name string) {
	for len(p.classNames) <= id {
		p.classNames = append(p.classNames, "")
	}
	p.classNames[id] = name
}

// RegisterGroup records one compatibility group of a multiactive class and
// returns its dense group id, used by NodeProf.GroupEvent. Called by the
// runtime at freeze, so ids are identical across same-program runs.
func (p *Profiler) RegisterGroup(class, group string) int {
	p.groupNames = append(p.groupNames, groupName{class: class, group: group})
	return len(p.groupNames) - 1
}

// PathStat is one row of the per-path cost table.
type PathStat struct {
	Path          string  `json:"path"`
	Events        uint64  `json:"events,omitempty"`
	Instr         uint64  `json:"instr"`
	InstrPerEvent float64 `json:"instr_per_event,omitempty"`
	InstrShare    float64 `json:"instr_share"`
	Packets       uint64  `json:"packets,omitempty"`
	WireBytes     uint64  `json:"wire_bytes,omitempty"`
	StableBytes   uint64  `json:"stable_bytes,omitempty"`
}

// ClassStat is one row of the per-class table: deliveries by receiver mode
// and the method-body instructions the class consumed.
type ClassStat struct {
	Class     string `json:"class"`
	Dormant   uint64 `json:"dormant"`
	Active    uint64 `json:"active"`
	Restore   uint64 `json:"restore"`
	Multi     uint64 `json:"multi,omitempty"`
	BodyInstr uint64 `json:"body_instr"`
}

// GroupStat is one row of the per-group table of a multiactive class:
// invocations that started immediately (compatible with everything live),
// that were parked in the group's ready queue by a conflict, and parked ones
// later dispatched through the scheduler.
type GroupStat struct {
	Class      string `json:"class"`
	Group      string `json:"group"`
	Started    uint64 `json:"started"`
	Parked     uint64 `json:"parked"`
	Dispatched uint64 `json:"dispatched"`
}

// NodeStat is one node's attribution totals.
type NodeStat struct {
	Node    int    `json:"node"`
	Instr   uint64 `json:"instr"`
	Packets uint64 `json:"packets"`
}

// Report is the machine-wide aggregation of a run's attribution.
type Report struct {
	Window sim.Time `json:"window_ns,omitempty"`
	// TotalInstr is the sum of attributed instructions across paths.
	TotalInstr uint64 `json:"total_instr"`
	// DormantFraction is dormant deliveries over all local deliveries — the
	// paper's "approximately 75%" (Section 6.3), derived here from the
	// profiler's own event counts rather than the global counters.
	DormantFraction float64     `json:"dormant_fraction"`
	Paths           []PathStat  `json:"paths"`
	Classes         []ClassStat `json:"classes,omitempty"`
	Groups          []GroupStat `json:"groups,omitempty"`
	Slices          []Slice     `json:"slices,omitempty"`
	Nodes           []NodeStat  `json:"nodes,omitempty"`
}

// Report aggregates every node's accumulators. Paths with no activity are
// omitted; rows appear in taxonomy order.
func (p *Profiler) Report() *Report {
	r := &Report{Window: p.opt.Window}
	var instr, events, packets, bytes [NumPaths]uint64
	var stable uint64
	for i := range p.nodes {
		np := &p.nodes[i]
		var nodeInstr, nodePackets uint64
		for pa := Path(0); pa < NumPaths; pa++ {
			instr[pa] += np.instr[pa]
			events[pa] += np.events[pa]
			packets[pa] += np.packets[pa]
			bytes[pa] += np.bytes[pa]
			nodeInstr += np.instr[pa]
			nodePackets += np.packets[pa]
		}
		stable += np.stable
		r.TotalInstr += nodeInstr
		r.Nodes = append(r.Nodes, NodeStat{Node: i, Instr: nodeInstr, Packets: nodePackets})
	}
	for pa := Path(0); pa < NumPaths; pa++ {
		if instr[pa] == 0 && events[pa] == 0 && packets[pa] == 0 && bytes[pa] == 0 {
			continue
		}
		ps := PathStat{
			Path:      pa.String(),
			Events:    events[pa],
			Instr:     instr[pa],
			Packets:   packets[pa],
			WireBytes: bytes[pa],
		}
		if pa == Ckpt {
			ps.StableBytes = stable
		}
		if events[pa] > 0 {
			ps.InstrPerEvent = float64(instr[pa]) / float64(events[pa])
		}
		if r.TotalInstr > 0 {
			ps.InstrShare = float64(instr[pa]) / float64(r.TotalInstr)
		}
		r.Paths = append(r.Paths, ps)
	}
	if local := events[LocalDormant] + events[LocalActive] + events[Restore]; local > 0 {
		r.DormantFraction = float64(events[LocalDormant]) / float64(local)
	}
	r.Classes = p.classReport()
	r.Groups = p.groupReport()
	r.Slices = p.mergeSlices()
	return r
}

// groupReport aggregates the per-group accumulators across nodes. Rows appear
// in registration (freeze) order; groups with no activity are kept so a
// contention study sees every declared group, active or idle.
func (p *Profiler) groupReport() []GroupStat {
	if len(p.groupNames) == 0 {
		return nil
	}
	out := make([]GroupStat, len(p.groupNames))
	for gid, gn := range p.groupNames {
		out[gid] = GroupStat{Class: gn.class, Group: gn.group}
		for i := range p.nodes {
			np := &p.nodes[i]
			if gid < len(np.groups) {
				out[gid].Started += np.groups[gid][GroupStarted]
				out[gid].Parked += np.groups[gid][GroupParked]
				out[gid].Dispatched += np.groups[gid][GroupDispatched]
			}
		}
	}
	return out
}

func (p *Profiler) classReport() []ClassStat {
	n := 0
	for i := range p.nodes {
		if l := len(p.nodes[i].classInstr); l > n {
			n = l
		}
	}
	if len(p.classNames) > n {
		n = len(p.classNames)
	}
	out := make([]ClassStat, 0, n)
	for cls := 0; cls < n; cls++ {
		cs := ClassStat{Class: className(p.classNames, cls)}
		for i := range p.nodes {
			np := &p.nodes[i]
			if cls < len(np.classInstr) {
				cs.BodyInstr += np.classInstr[cls]
				cs.Dormant += np.classDeliv[cls][DeliverDormant]
				cs.Active += np.classDeliv[cls][DeliverActive]
				cs.Restore += np.classDeliv[cls][DeliverRestore]
				cs.Multi += np.classDeliv[cls][DeliverMulti]
			}
		}
		if cs.BodyInstr == 0 && cs.Dormant == 0 && cs.Active == 0 && cs.Restore == 0 && cs.Multi == 0 {
			continue
		}
		out = append(out, cs)
	}
	return out
}

func className(names []string, id int) string {
	if id < len(names) && names[id] != "" {
		return names[id]
	}
	return "class(?)"
}

func (p *Profiler) mergeSlices() []Slice {
	if p.opt.Window <= 0 {
		return nil
	}
	n := 0
	for i := range p.nodes {
		if l := len(p.nodes[i].slices); l > n {
			n = l
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Slice, n)
	for k := range out {
		out[k].Start = sim.Time(k) * p.opt.Window
	}
	for i := range p.nodes {
		for k, s := range p.nodes[i].slices {
			out[k].Instr += s.Instr
			out[k].Events += s.Events
			out[k].Packets += s.Packets
			if s.MaxQueue > out[k].MaxQueue {
				out[k].MaxQueue = s.MaxQueue
			}
		}
	}
	if p.opt.InstrNs > 0 {
		denom := float64(p.opt.Window) * float64(len(p.nodes))
		for k := range out {
			out[k].Utilization = p.opt.InstrNs * float64(out[k].Instr) / denom
		}
	}
	return out
}
