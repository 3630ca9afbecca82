// Package profile is the cost-attribution profiler of the observability
// layer: every simulated instruction, wire record and stable-store byte is
// charged to a *path* — the paper's Section 6 cost categories (stack-invoked
// dormant sends, queued active sends, context restorations, heap-frame
// now-blocks, the remote send/receive halves, creation, checkpointing,
// retransmission) — and optionally to the receiver's class. The machine
// keeps the one count of every path, events and instructions (Counts): one
// array add per charge, always on. A Profiler adds only what is not such a
// count — packets and bytes per path, stable-store bytes, per-class and
// per-group rows, per-node sums and time slices — and renders the report
// over the machine's Counts.
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

// Counts is the one count of every path: its events (one message, one
// creation, one checkpoint save, ...) and the instructions charged to it.
// The machine keeps one, always on; Profiler.Report reads it.
type Counts struct {
	Events [NumPaths]uint64
	Instr  [NumPaths]uint64
}

// TotalInstr is the sum of the instructions charged across paths.
func (c *Counts) TotalInstr() uint64 {
	var sum uint64
	for _, n := range c.Instr {
		sum += n
	}
	return sum
}

// Profiler is a machine's accumulator set and class-name registry.
type Profiler struct {
	opt Options

	packets [NumPaths]uint64
	bytes   [NumPaths]uint64
	stable  uint64

	classInstr []uint64    // per class id: method-body instructions
	classDeliv [][4]uint64 // per class id: dormant/active/restore/multi deliveries
	groups     [][3]uint64 // per registered group id: started/parked/dispatched

	slices []Slice

	nodeInstr   []uint64 // per node: instructions charged (Report.Nodes)
	nodePackets []uint64 // per node: wire records sent (Report.Nodes)

	classNames []string
	groupNames []groupName
}

type groupName struct {
	class string
	group string
}

// New builds a profiler for a machine of n nodes.
func New(n int, opt Options) *Profiler {
	return &Profiler{opt: opt, nodeInstr: make([]uint64, n), nodePackets: make([]uint64, n)}
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

// ChargeInstr adds instr simulated instructions charged on node at time at
// to the node's sum and the time slice; the path's count is the machine's.
func (p *Profiler) ChargeInstr(node int, instr int, at sim.Time) {
	p.nodeInstr[node] += uint64(instr)
	if p.opt.Window > 0 {
		p.slice(at).Instr += uint64(instr)
	}
}

// Event ticks the time slice of one path event at time at; the path's count
// is the machine's.
func (p *Profiler) Event(at sim.Time) {
	if p.opt.Window > 0 {
		p.slice(at).Events++
	}
}

// Packet attributes one wire record of the given size, sent by node, to
// path pa.
func (p *Profiler) Packet(node int, pa Path, bytes int, at sim.Time) {
	p.packets[pa]++
	p.nodePackets[node]++
	p.bytes[pa] += uint64(bytes)
	if p.opt.Window > 0 {
		p.slice(at).Packets++
	}
}

// PacketBytes attributes wire bytes without a record of their own (ack
// framing piggybacked on a data packet).
func (p *Profiler) PacketBytes(pa Path, bytes int) {
	p.bytes[pa] += uint64(bytes)
}

// StableWrite attributes bytes moved to or from the simulated stable store.
func (p *Profiler) StableWrite(bytes int) {
	p.stable += uint64(bytes)
}

// QueueDepth samples a node's scheduling-queue depth for the time series.
func (p *Profiler) QueueDepth(depth int, at sim.Time) {
	if p.opt.Window > 0 {
		if s := p.slice(at); depth > s.MaxQueue {
			s.MaxQueue = depth
		}
	}
}

// ClassDeliver counts one delivery to class cls in the given mode
// (DeliverDormant/DeliverActive/DeliverRestore).
func (p *Profiler) ClassDeliver(cls int, mode int) {
	p.growClass(cls)
	p.classDeliv[cls][mode]++
}

// ClassInstr attributes method-body instructions to class cls.
func (p *Profiler) ClassInstr(cls int, instr int) {
	p.growClass(cls)
	p.classInstr[cls] += uint64(instr)
}

// GroupEvent counts one multiactive scheduling event for the registered
// group gid (GroupStarted/GroupParked/GroupDispatched). Group ids come from
// Profiler.RegisterGroup; gid < 0 (no profiler registration) is ignored.
func (p *Profiler) GroupEvent(gid int, kind int) {
	if gid < 0 {
		return
	}
	for len(p.groups) <= gid {
		p.groups = append(p.groups, [3]uint64{})
	}
	p.groups[gid][kind]++
}

func (p *Profiler) growClass(cls int) {
	for len(p.classInstr) <= cls {
		p.classInstr = append(p.classInstr, 0)
		p.classDeliv = append(p.classDeliv, [4]uint64{})
	}
}

func (p *Profiler) slice(at sim.Time) *Slice {
	win := p.opt.Window
	idx := 0
	if at > 0 {
		idx = int(at / win)
	}
	for len(p.slices) <= idx {
		p.slices = append(p.slices, Slice{Start: sim.Time(len(p.slices)) * win})
	}
	return &p.slices[idx]
}

// RegisterClass records the name of class id for reports. Called by the
// runtime at freeze.
func (p *Profiler) RegisterClass(id int, name string) {
	for len(p.classNames) <= id {
		p.classNames = append(p.classNames, "")
	}
	p.classNames[id] = name
}

// RegisterGroup records one compatibility group of a multiactive class and
// returns its dense group id, used by GroupEvent. Called by the
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
	// paper's "approximately 75%" (Section 6.3): Report leaves it zero for
	// the system report to fill in from stats.Counters.DormantFraction.
	DormantFraction float64     `json:"dormant_fraction"`
	Paths           []PathStat  `json:"paths"`
	Classes         []ClassStat `json:"classes,omitempty"`
	Groups          []GroupStat `json:"groups,omitempty"`
	Slices          []Slice     `json:"slices,omitempty"`
	Nodes           []NodeStat  `json:"nodes,omitempty"`
}

// Report renders the accumulators beside the machine's path counts c. Paths
// with no activity are omitted; rows appear in taxonomy order.
func (p *Profiler) Report(c *Counts) *Report {
	r := &Report{Window: p.opt.Window, TotalInstr: c.TotalInstr()}
	for i := range p.nodeInstr {
		r.Nodes = append(r.Nodes, NodeStat{Node: i, Instr: p.nodeInstr[i], Packets: p.nodePackets[i]})
	}
	for pa := Path(0); pa < NumPaths; pa++ {
		events, instr := c.Events[pa], c.Instr[pa]
		if instr == 0 && events == 0 && p.packets[pa] == 0 && p.bytes[pa] == 0 {
			continue
		}
		ps := PathStat{
			Path:      pa.String(),
			Events:    events,
			Instr:     instr,
			Packets:   p.packets[pa],
			WireBytes: p.bytes[pa],
		}
		if pa == Ckpt {
			ps.StableBytes = p.stable
		}
		if events > 0 {
			ps.InstrPerEvent = float64(instr) / float64(events)
		}
		if r.TotalInstr > 0 {
			ps.InstrShare = float64(instr) / float64(r.TotalInstr)
		}
		r.Paths = append(r.Paths, ps)
	}
	r.Classes = p.classReport()
	r.Groups = p.groupReport()
	r.Slices = p.sliceReport()
	return r
}

// groupReport lists the groups in registration (freeze) order; groups with
// no activity are kept so a contention study sees every declared group,
// active or idle.
func (p *Profiler) groupReport() []GroupStat {
	if len(p.groupNames) == 0 {
		return nil
	}
	out := make([]GroupStat, len(p.groupNames))
	for gid, gn := range p.groupNames {
		out[gid] = GroupStat{Class: gn.class, Group: gn.group}
		if gid < len(p.groups) {
			g := p.groups[gid]
			out[gid].Started, out[gid].Parked, out[gid].Dispatched = g[GroupStarted], g[GroupParked], g[GroupDispatched]
		}
	}
	return out
}

func (p *Profiler) classReport() []ClassStat {
	n := max(len(p.classInstr), len(p.classNames))
	out := make([]ClassStat, 0, n)
	for cls := 0; cls < n; cls++ {
		cs := ClassStat{Class: className(p.classNames, cls)}
		if cls < len(p.classInstr) {
			d := p.classDeliv[cls]
			cs.BodyInstr = p.classInstr[cls]
			cs.Dormant, cs.Active, cs.Restore, cs.Multi = d[DeliverDormant], d[DeliverActive], d[DeliverRestore], d[DeliverMulti]
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

// sliceReport returns the time series with utilization derived from InstrNs
// over the whole machine's capacity for each window.
func (p *Profiler) sliceReport() []Slice {
	if p.opt.Window <= 0 || len(p.slices) == 0 {
		return nil
	}
	out := append([]Slice(nil), p.slices...)
	if p.opt.InstrNs > 0 {
		denom := float64(p.opt.Window) * float64(len(p.nodeInstr))
		for k := range out {
			out[k].Utilization = p.opt.InstrNs * float64(out[k].Instr) / denom
		}
	}
	return out
}
