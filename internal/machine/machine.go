package machine

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NetConfig models hardware message latency. The total hardware latency of
// one packet is FixedNs + HopNs*hops + NsPerByte*max(0, size-BaseBytes).
// Defaults reproduce the paper's ~1.5µs per-direction hardware latency for
// the small (4-word) messages of Section 6.1 on adjacent nodes.
type NetConfig struct {
	FixedNs   sim.Time // fixed wire + launch latency per packet
	HopNs     sim.Time // additional latency per routing hop
	BaseBytes int      // bytes covered by the fixed latency
	NsPerByte sim.Time // transfer cost per byte beyond BaseBytes (25MB/s = 40ns/B)
}

// DefaultNet returns the AP1000-flavoured hardware latency model.
func DefaultNet() NetConfig {
	return NetConfig{FixedNs: 1490, HopNs: 10, BaseBytes: 16, NsPerByte: 40}
}

// Latency returns the hardware delivery latency for a packet of size bytes
// traversing hops network hops.
func (nc NetConfig) Latency(hops, size int) sim.Time {
	l := nc.FixedNs + nc.HopNs*sim.Time(hops)
	if size > nc.BaseBytes {
		l += nc.NsPerByte * sim.Time(size-nc.BaseBytes)
	}
	return l
}

// NotifyMode selects how message arrival is signalled to the software
// (Section 5: "Message arrival may be notified by polling as in CM-5 or
// AP1000, or by interrupt as in nCUBE/2 or iPSC/2").
type NotifyMode uint8

const (
	// NotifyPolling: the runtime polls for arrivals; every method epilogue
	// pays the PollRemote cost (the AP1000 configuration of the paper).
	NotifyPolling NotifyMode = iota
	// NotifyInterrupt: arrivals interrupt the processor; polling is free
	// but every received packet pays interrupt entry/exit.
	NotifyInterrupt
)

func (m NotifyMode) String() string {
	if m == NotifyInterrupt {
		return "interrupt"
	}
	return "polling"
}

// Config describes a simulated multicomputer.
type Config struct {
	Nodes    int      // number of processing nodes
	ClockMHz float64  // processor clock (AP1000: 25MHz SPARC)
	CPI      float64  // average cycles per instruction (calibrated 2.3)
	Topology Topology // routing distance model; nil = squarish torus
	Cost     Cost     // instruction-cost model
	Net      NetConfig
	Notify   NotifyMode // arrival notification: polling (default) or interrupt
}

// DefaultConfig returns an AP1000-like machine with n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:    n,
		ClockMHz: 25,
		CPI:      2.3,
		Topology: SquarishTorus(n),
		Cost:     DefaultCost(),
		Net:      DefaultNet(),
	}
}

// NsPerInstr returns virtual nanoseconds consumed per instruction.
func (c Config) NsPerInstr() float64 {
	return c.CPI * 1000 / c.ClockMHz
}

// InstrTime converts an instruction count to virtual time.
func (c Config) InstrTime(instr int) sim.Time {
	return sim.Time(float64(instr)*c.NsPerInstr() + 0.5)
}

// FaultModel injects interconnect and node faults into the machine. The
// model must be deterministic: two runs that present the same sequence of
// calls must return the same answers (package fault provides a seed-driven
// implementation). A nil model means a perfectly reliable machine.
type FaultModel interface {
	// Link is consulted once per packet transmission and returns the extra
	// latency of every physical copy to deliver. A one-element slice {0} is
	// normal delivery; an empty slice drops the packet; more than one
	// element duplicates it, each copy with its own extra latency.
	Link(src, dst int, at sim.Time, size int) []sim.Time
	// PausedUntil reports the virtual time until which node is paused at
	// time at. A result <= at means the node is running normally. Pauses
	// take effect at turn boundaries: a turn already under way completes.
	PausedUntil(node int, at sim.Time) sim.Time
}

// SetFaults installs a fault model. Call before Run; a nil model restores
// perfect reliability. The machine counts what the model injects on the
// affected node (Node.C: drops and duplicates on the sender, pauses on the
// paused node) and traces it.
func (m *Machine) SetFaults(f FaultModel) { m.faults = f }

// Faults returns the installed fault model (nil when the machine is
// perfectly reliable).
func (m *Machine) Faults() FaultModel { return m.faults }

// SetTrace attaches the trace sink every layer on the machine emits into;
// nil detaches it.
func (m *Machine) SetTrace(s trace.Sink) { m.tr = s }

// Tracing reports whether a trace sink is attached. Call sites on the
// per-message path check it before Tracef, so that with tracing off their
// arguments are never boxed into Tracef's variadic slice.
func (m *Machine) Tracing() bool { return m.tr != nil }

// Tracef records one event of the given kind at virtual time at on node —
// the single emission point of the machine and the layers above it. A no-op
// with tracing off.
func (m *Machine) Tracef(at sim.Time, node int, kind trace.Kind, format string, args ...any) {
	if m.tr != nil {
		m.tr.Event(trace.Event{
			At:   at,
			Node: node,
			Kind: kind,
			What: fmt.Sprintf(format, args...),
		})
	}
}

// Packet is a self-dispatching message in the Active Message style: the
// sender attaches the handler that runs on the receiving node when the
// packet is polled. Payload is opaque to the machine layer.
type Packet struct {
	Src, Dst int
	Arrival  sim.Time
	Handler  func(n *Node, p *Packet)
	Payload  any

	// Seq is a header word for the transport protocol above (a link sequence
	// number, an acknowledged one): it rides the packet the way the handler
	// address does, so a protocol packet needs no state of its own. Opaque to
	// the machine.
	Seq uint64

	// Ack is a second such word, valid when HasAck is set: a cumulative
	// acknowledgment for the reverse direction, carried by an ack packet or
	// piggybacked on data. Opaque to the machine.
	Ack uint64

	// OnArrive, if set, runs in engine context the moment the packet
	// reaches the destination's message controller — before the software
	// handler is scheduled, and regardless of how backlogged or paused the
	// receiving processor is. It models hardware-level actions such as
	// transport acknowledgments. A packet with OnArrive set and a nil
	// Handler is consumed entirely at the controller and never enters the
	// receive queue. It is read at send: setting it on a packet in flight
	// has no effect.
	OnArrive func(n *Node, p *Packet)

	Size     int32 // bytes, for bandwidth modelling
	Category int32 // handler category (for statistics only)

	// Ctrl routes the packet over the link's control virtual channel:
	// transport acknowledgments and similar protocol traffic that must not
	// queue behind the data stream. Data sends record their arrival into the
	// per-link FIFO clamp at the *processor clock* of the send, which may lie
	// far ahead of engine time inside a long method body; a controller-
	// generated ack transmitted mid-body would otherwise be clamped behind
	// data that, in hardware terms, has not departed yet. The control channel
	// keeps its own FIFO clamp instead.
	Ctrl bool

	HasAck bool // Ack holds an acknowledgment

	// pooled marks packets obtained from AcquirePacket; the machine
	// recycles them at the receiving node once consumed. Any other
	// packet — a literal, a fault-model copy, a header embedded in its
	// sender's own record — is its builder's and never recycled here.
	pooled bool

	// era stamps the machine era the packet was launched in. A global
	// checkpoint restore bumps the machine's era, revoking every packet
	// still in flight from the rolled-back timeline: a stale-era packet is
	// discarded at the destination controller instead of delivered.
	era uint32

	// next is the pool link: it chains an idle packet into its pool's free
	// list and is nil while the packet is out, which is when the layer above
	// may chain packets through it (Next, SetNext) — as long as it unlinks a
	// packet again before the packet goes back to a pool.
	next *Packet
}

// PoolLink names the intrusive link for sim.Slab.
func (p *Packet) PoolLink() **Packet { return &p.next }

// Next returns the packet chained after p while p is out of its pool.
func (p *Packet) Next() *Packet { return p.next }

// SetNext chains q after p, which must be out of its pool; nil unlinks p.
func (p *Packet) SetNext(q *Packet) { p.next = q }

// rxQueue is a node's receive queue: delivered-but-unpolled packets in
// arrival order, chained through fixed rxBlocks from the machine's slab.
// Queueing a packet writes the block, not the packet, and no queue is ever
// regrown by copying. A drained queue keeps its one block, so a node that
// polls every turn takes no other.
type rxQueue struct {
	head, tail  *rxBlock
	read, write int // next slot to pop in head, to fill in tail
	n           int
}

// rxBlockLen packets and the link make a block two cache lines.
const rxBlockLen = 15

type rxBlock struct {
	pkts [rxBlockLen]*Packet
	next *rxBlock // the next newer block of the queue; the pool link while idle
}

// PoolLink names the intrusive link for sim.Slab.
func (b *rxBlock) PoolLink() **rxBlock { return &b.next }

func (q *rxQueue) push(pool *sim.Slab[rxBlock, *rxBlock], p *Packet) {
	if q.tail == nil {
		q.tail = pool.Get()
		q.head = q.tail
	} else if q.write == rxBlockLen {
		b := pool.Get()
		q.tail.next = b
		q.tail, q.write = b, 0
	}
	q.tail.pkts[q.write] = p
	q.write++
	q.n++
}

// pop returns the oldest packet, or nil when the queue is empty.
func (q *rxQueue) pop(pool *sim.Slab[rxBlock, *rxBlock]) *Packet {
	if q.n == 0 {
		return nil
	}
	if q.read == rxBlockLen {
		b := q.head
		q.head, q.read = b.next, 0
		b.next = nil
		pool.Put(b)
	}
	p := q.head.pkts[q.read]
	q.head.pkts[q.read] = nil
	q.read++
	if q.n--; q.n == 0 {
		q.read, q.write = 0, 0 // head is tail: start it over
	}
	return p
}

// Retain removes p from pool management: the machine will not recycle or
// clear it after its handler runs. Handlers that store a packet beyond the
// handler call (e.g. a reorder buffer) must call Retain first.
func (p *Packet) Retain() { p.pooled = false }

// AcquirePacket returns a zeroed packet from the machine's pool, marked for
// recycling at the receiver once its handler has run.
func (n *Node) AcquirePacket() *Packet {
	p := n.m.pkts.Get()
	p.pooled = true
	return p
}

// ReleasePacket returns a pooled packet to the machine's pool. Calling it on
// a non-pooled (or retained) packet is a no-op, so it is always safe after a
// handler has run.
func (n *Node) ReleasePacket(p *Packet) {
	if p.pooled {
		n.m.pkts.Put(p)
	}
}

// Runner is the per-node scheduler installed by the language runtime.
// Step runs one scheduling quantum (typically: dispatch one buffered
// message) and reports whether more queued work remains.
type Runner interface {
	Step() bool
}

// Node is one processing element. All state is owned by the simulation
// goroutine; a Node is not safe for concurrent use.
type Node struct {
	ID    int
	Clock sim.Time // local virtual clock; may run ahead of engine time
	Busy  sim.Time // accumulated compute time, for utilization

	m             *Machine
	lane          int      // engine event lane (node ID + 1; lane 0 is the host)
	downUntil     sim.Time // crash outage: node is dead until this time (0 = up)
	resumePending bool
	inResume      bool
	rx            rxQueue // delivered packets awaiting poll, in arrival order
	Runner        Runner

	// Per-(src,dst) FIFO clamps, on the sender's side: the last arrival
	// scheduled to each destination, of the data stream and of the control
	// virtual channel. Only the sending lane writes its rows; the control
	// row is allocated on the node's first control send.
	arrivalTo []sim.Time
	ctrlTo    []sim.Time

	// prof is the node's cost-attribution accumulator (nil when profiling is
	// off) and path the attribution register Charge reads: every instruction
	// that advances Clock is attributed here, so the profile's rows sum to
	// InstrCount by construction. The register is written unconditionally —
	// a byte store is cheaper than guarding it — but only read when prof != nil.
	prof *profile.NodeProf
	path profile.Path

	// Counters.
	InstrCount   uint64
	PacketsSent  uint64
	PacketsRecvd uint64
	BytesSent    uint64
	CrashDrops   uint64 // packets lost at the controller while the node was down
	EraDrops     uint64 // in-flight packets revoked by a checkpoint restore

	// C is the node's runtime event counters, kept beside the clock: the
	// machine counts the faults injected here, and every layer above counts
	// its own events through the same record (core.NodeRT.C points at it).
	C stats.Counters
}

// Machine is the full multicomputer: an event engine plus nodes and the
// interconnect model.
type Machine struct {
	Cfg      Config
	Eng      *sim.Engine
	nodes    []*Node
	pkts     sim.Slab[Packet, *Packet]
	rxBlocks sim.Slab[rxBlock, *rxBlock] // the nodes' receive queues' blocks

	nsPerInstr float64

	faults FaultModel
	prof   *profile.Profiler
	tr     trace.Sink

	// era is the current machine timeline. A global checkpoint restore
	// bumps it, invalidating every packet launched before the restore (see
	// Packet.era); zero-cost on the default path.
	era uint32

	// Typed event kinds registered with the engine, so the hot delivery
	// and scheduling paths dispatch through a switch instead of allocating
	// a captured closure per event.
	deliverKind sim.Kind // arg: *Packet, fires on the destination's lane
	arriveKind  sim.Kind // deliverKind for a packet with an OnArrive hook
	resumeKind  sim.Kind // arg: *Node, fires on the node's own lane
}

// TotalPackets returns the machine-wide count of transmitted packets.
func (m *Machine) TotalPackets() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.PacketsSent
	}
	return t
}

// TotalBytes returns the machine-wide count of transmitted bytes.
func (m *Machine) TotalBytes() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.BytesSent
	}
	return t
}

// TotalCrashDrops returns the machine-wide count of packets lost at dead
// message controllers during crash outages.
func (m *Machine) TotalCrashDrops() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.CrashDrops
	}
	return t
}

// MaxNodes is the largest node count: the engine has MaxLanes lanes, one
// per node and lane 0 for the host.
const MaxNodes = sim.MaxLanes - 1

// New builds a machine from cfg. It validates the topology against the node
// count.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("machine: node count %d invalid", cfg.Nodes)
	}
	if cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("machine: node count %d above the limit of %d", cfg.Nodes, MaxNodes)
	}
	if cfg.ClockMHz <= 0 || cfg.CPI <= 0 {
		return nil, fmt.Errorf("machine: clock %.1fMHz / CPI %.2f invalid", cfg.ClockMHz, cfg.CPI)
	}
	if cfg.Topology == nil {
		cfg.Topology = SquarishTorus(cfg.Nodes)
	}
	if err := cfg.Topology.Validate(cfg.Nodes); err != nil {
		return nil, err
	}
	if cfg.Notify == NotifyInterrupt {
		// Interrupt-driven reception: no polling on the fast path, but each
		// arriving packet pays interrupt entry/exit on top of extraction.
		cfg.Cost.RemoteRecvExtract += cfg.Cost.InterruptEntry
		cfg.Cost.PollRemote = 0
	}
	m := &Machine{
		Cfg:        cfg,
		Eng:        sim.NewEngine(),
		nsPerInstr: cfg.NsPerInstr(),
	}
	// One event lane per node plus lane 0 for the host; typed kinds keep
	// the per-packet and per-turn scheduling allocation-free.
	m.Eng.SetLanes(cfg.Nodes + 1)
	m.deliverKind = m.Eng.Register(func(lane int, at sim.Time, arg any) {
		m.nodes[lane-1].deliver(at, arg.(*Packet), false)
	})
	m.arriveKind = m.Eng.Register(func(lane int, at sim.Time, arg any) {
		m.nodes[lane-1].deliver(at, arg.(*Packet), true)
	})
	m.resumeKind = m.Eng.Register(func(_ int, at sim.Time, arg any) {
		arg.(*Node).resumeAt(at)
	})
	m.nodes = make([]*Node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = &Node{
			ID:        i,
			m:         m,
			lane:      i + 1,
			arrivalTo: make([]sim.Time, cfg.Nodes),
		}
	}
	if watch != nil {
		watch(m)
	}
	return m, nil
}

// watch, when set, sees every machine New builds: the seam through which
// this package's tests reach machines an application builds for itself.
var watch func(*Machine)

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Node returns node id.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// Nodes returns the node count.
func (m *Machine) Nodes() int { return len(m.nodes) }

// Run drives the simulation until quiescence (no pending events).
func (m *Machine) Run() error {
	_, err := m.Eng.Run()
	return err
}

// MaxClock returns the largest node clock, i.e. the parallel makespan.
func (m *Machine) MaxClock() sim.Time {
	var max sim.Time
	for _, n := range m.nodes {
		if n.Clock > max {
			max = n.Clock
		}
	}
	return max
}

// Utilization returns total busy time divided by (makespan × nodes).
func (m *Machine) Utilization() float64 {
	span := m.MaxClock()
	if span == 0 {
		return 0
	}
	var busy sim.Time
	for _, n := range m.nodes {
		busy += n.Busy
	}
	return float64(busy) / (float64(span) * float64(len(m.nodes)))
}

// TotalInstr sums instruction counts over all nodes.
func (m *Machine) TotalInstr() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.InstrCount
	}
	return t
}

// SetProfiler attaches a cost-attribution profiler: from here on every
// Charge is also attributed to the charging node's accumulator. Call before
// Run; the profiler only observes.
func (m *Machine) SetProfiler(p *profile.Profiler) {
	m.prof = p
	for i, n := range m.nodes {
		n.prof = p.Node(i)
	}
}

// Profiler returns the attached profiler (nil when profiling is off).
func (m *Machine) Profiler() *profile.Profiler { return m.prof }

// Prof returns the node's attribution accumulator (nil when profiling is
// off), for the event, packet and class counts charged beside instructions.
func (n *Node) Prof() *profile.NodeProf { return n.prof }

// SetPath sets the node's attribution register and returns the previous
// value. Dispatch boundaries and handler bodies bracket their work with it
// so the charges inside land on the right path.
func (n *Node) SetPath(p profile.Path) profile.Path {
	prev := n.path
	n.path = p
	return prev
}

// Path returns the attribution register.
func (n *Node) Path() profile.Path { return n.path }

// Charge advances the node clock by instr instructions of compute,
// attributed to the node's current path.
func (n *Node) Charge(instr int) { n.ChargeTo(n.path, instr) }

// ChargeTo is Charge with an explicit path, leaving the register alone: the
// form for a handler prologue or a send set-up whose category is known at
// the call site.
func (n *Node) ChargeTo(p profile.Path, instr int) {
	if instr <= 0 {
		return
	}
	d := sim.Time(float64(instr)*n.m.nsPerInstr + 0.5)
	n.Clock += d
	n.Busy += d
	n.InstrCount += uint64(instr)
	if n.prof != nil {
		n.prof.ChargeInstr(p, instr, n.Clock)
	}
}

// ChargeNs advances the node clock by raw virtual time (used for modelled
// computation not expressed in instructions).
func (n *Node) ChargeNs(d sim.Time) {
	if d <= 0 {
		return
	}
	n.Clock += d
	n.Busy += d
}

// SyncClock advances the node's clock to at least t without accruing busy
// time, modelling idle waiting (e.g. a timer expiring on an idle node).
func (n *Node) SyncClock(t sim.Time) {
	if n.Clock < t {
		n.Clock = t
	}
}

// Hops returns the routing distance from this node to dst.
func (n *Node) Hops(dst int) int {
	return n.m.Cfg.Topology.Hops(n.ID, dst)
}

// Send transmits p to its destination node. The packet departs at the
// sender's current clock; hardware latency is added by the interconnect
// model, and per-(src,dst) FIFO ordering is enforced (the paper's
// "preservation of transmission order"). Software send cost must already
// have been charged by the caller.
// Send returns the scheduled arrival time of the first physical copy, or
// Dropped if the fault model discarded the packet. Callers that assume a
// reliable interconnect may ignore the result.
func (n *Node) Send(p *Packet) sim.Time {
	return n.sendAt(n.Clock, p)
}

// ControllerSend transmits p on behalf of the node's message controller at
// virtual time at, independent of the processor's clock. It models
// hardware-originated traffic (e.g. transport acknowledgments) that does
// not occupy the CPU: no software cost is charged and the processor may be
// busy or paused. The fault model and FIFO clamp still apply.
func (n *Node) ControllerSend(at sim.Time, p *Packet) sim.Time {
	return n.sendAt(at, p)
}

func (n *Node) sendAt(at sim.Time, p *Packet) sim.Time {
	if p.Dst < 0 || p.Dst >= len(n.m.nodes) {
		panic(fmt.Sprintf("machine: send to invalid node %d", p.Dst))
	}
	p.Src = n.ID
	p.era = n.m.era
	hops := n.m.Cfg.Topology.Hops(n.ID, p.Dst)
	base := n.m.Cfg.Net.Latency(hops, int(p.Size))

	n.PacketsSent++
	n.BytesSent += uint64(p.Size)

	// Consult the fault model: one extra-latency entry per physical copy.
	copies := oneCopy
	if n.m.faults != nil {
		copies = n.m.faults.Link(n.ID, p.Dst, at, int(p.Size))
	}
	if len(copies) == 0 {
		n.C.LinkDrops++
		n.m.Tracef(at, n.ID, trace.EvLinkDrop, "dropped cat-%d packet to n%d", p.Category, p.Dst)
		// The packet never reaches a receiver, so the sender recycles it.
		n.ReleasePacket(p)
		return Dropped
	}
	// What happens at the destination is decided here, while the packet is
	// warm: delivery itself reads no packet on the plain path.
	kind := n.m.deliverKind
	if p.OnArrive != nil {
		kind = n.m.arriveKind
	}
	// Control-channel traffic (Packet.Ctrl) is clamped separately so
	// protocol packets never queue behind the data stream.
	clamp := n.arrivalTo
	if p.Ctrl {
		if n.ctrlTo == nil {
			n.ctrlTo = make([]sim.Time, len(n.m.nodes))
		}
		clamp = n.ctrlTo
	}
	first := Dropped
	for i, extra := range copies {
		cp := p
		if i > 0 {
			// A fresh heap object outside every pool: inheriting pooled
			// would let the machine recycle a header it does not own.
			dup := *p
			dup.pooled = false
			cp = &dup
			n.C.LinkDups++
			n.m.Tracef(at, n.ID, trace.EvLinkDup, "duplicated cat-%d packet to n%d", p.Category, p.Dst)
		}
		arrival := at + base + extra
		// Per-(src,dst) FIFO ordering is enforced per copy (the paper's
		// "preservation of transmission order"): jitter delays but never
		// reorders a link; only drop+retransmit can reorder logically.
		if last := clamp[p.Dst]; arrival <= last {
			arrival = last + 1
		}
		clamp[p.Dst] = arrival
		cp.Arrival = arrival
		if i == 0 {
			first = arrival
		}
		n.m.Eng.ScheduleOn(n.lane, p.Dst+1, arrival, kind, cp)
	}
	return first
}

// Dropped is returned by Send when the fault model discarded the packet.
const Dropped = sim.Time(-1)

// oneCopy is the fault-free delivery schedule, shared to keep the common
// path allocation-free.
var oneCopy = []sim.Time{0}

// BeginOutage crashes the node until the given virtual time: all packets
// already in its receive queue are lost, and packets arriving while the node
// is down are discarded at the message controller. Higher layers (package
// checkpoint) are responsible for discarding their own per-node state and
// for restoring it at restart; the machine only models the dead interval.
func (n *Node) BeginOutage(until sim.Time) {
	n.downUntil = until
	for p := n.rxPop(); p != nil; p = n.rxPop() {
		n.CrashDrops++
		n.ReleasePacket(p)
	}
}

// EndOutage marks the node as up again, advances its clock to the restart
// time without accruing busy time, and schedules a scheduler turn so restored
// work resumes.
func (n *Node) EndOutage(at sim.Time) {
	n.downUntil = 0
	n.SyncClock(at)
	n.ensureResume()
}

// Down reports whether the node is inside a crash outage at time at.
func (n *Node) Down(at sim.Time) bool { return n.downUntil > at }

// BumpEra starts a new machine timeline: every packet currently in flight
// (scheduled for delivery but not yet delivered) is revoked and will be
// discarded at its destination's controller. Called by the checkpoint
// subsystem when a global restore rolls the runtime back to a snapshot.
func (m *Machine) BumpEra() { m.era++ }

// DropRx discards every delivered-but-unpolled packet, counting them as
// era drops. Used by a global checkpoint restore to clear the receive
// queues of surviving nodes before their state is rolled back.
func (n *Node) DropRx() {
	for p := n.rxPop(); p != nil; p = n.rxPop() {
		n.EraDrops++
		n.ReleasePacket(p)
	}
}

// TotalEraDrops returns the machine-wide count of packets revoked by
// checkpoint restores.
func (m *Machine) TotalEraDrops() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.EraDrops
	}
	return t
}

// deliver runs at the packet's arrival time at, as an event on the
// destination's lane: the message controller hook fires first (hook: the
// packet was sent with OnArrive set), then the packet joins the node's
// receive queue and the node is woken if idle. Controller-only packets
// (OnArrive set, nil Handler) never reach the processor. The plain path reads
// no packet field — the lane names the node, the event time is the arrival —
// so Poll is the packet's first reader after its sender.
func (n *Node) deliver(at sim.Time, p *Packet, hook bool) {
	if n.m.era != 0 && p.era != n.m.era {
		// Launched before a global checkpoint restore: the timeline that
		// produced this packet was rolled back, so it never happened.
		n.EraDrops++
		n.ReleasePacket(p)
		return
	}
	if n.downUntil > at {
		// The node is crashed: its message controller is dead, so the packet
		// is lost in its entirety — no OnArrive, no ack, no buffering.
		n.CrashDrops++
		n.ReleasePacket(p)
		return
	}
	if hook {
		p.OnArrive(n, p)
		if p.Handler == nil {
			// Consumed entirely at the controller: recycle here.
			n.ReleasePacket(p)
			return
		}
	}
	if n.Clock < at {
		n.Clock = at
	}
	n.rx.push(&n.m.rxBlocks, p)
	n.ensureResume()
}

// Wake schedules the node's scheduler loop if it is not already pending,
// e.g. after external work has been queued on its Runner.
func (n *Node) Wake() { n.ensureResume() }

// Now returns the node's local virtual clock.
func (n *Node) Now() sim.Time { return n.Clock }

// EventNow returns the timestamp of the event currently firing: the engine's
// clock, which a node's own Clock may run ahead of.
func (n *Node) EventNow() sim.Time { return n.m.Eng.Now() }

// Lane returns the node's engine event lane.
func (n *Node) Lane() int { return n.lane }

// ensureResume queues a turn unless one is queued or running.
func (n *Node) ensureResume() {
	if n.resumePending || n.inResume {
		return
	}
	n.resumePending = true
	n.m.Eng.ScheduleOn(n.lane, n.lane, n.Clock, n.m.resumeKind, n)
}

// resumeAt is one node turn, fired at virtual time now: poll arrived
// packets, run one scheduler quantum, and reschedule if work remains.
// Keeping turns small interleaves node progress correctly in virtual time.
func (n *Node) resumeAt(now sim.Time) {
	n.resumePending = false
	if n.downUntil > now {
		// The node crashed after this turn was scheduled: nothing runs. The
		// restart path (EndOutage) schedules a fresh turn for the restored
		// state, so a dead turn is simply discarded, not deferred.
		return
	}
	if f := n.m.faults; f != nil {
		if until := f.PausedUntil(n.ID, now); until > now {
			// The node is inside an injected pause window: defer this turn
			// to the window's end. Arriving packets keep buffering in rx.
			n.C.NodePauses++
			n.m.Tracef(now, n.ID, trace.EvNodePause, "paused until %v", until)
			n.resumePending = true
			n.m.Eng.ScheduleFuncOn(n.lane, until, func() {
				// The pause consumed real (virtual) time on this node, but
				// no busy time: advance the clock without accruing work.
				if n.Clock < until {
					n.Clock = until
				}
				n.resumeAt(until)
			})
			return
		}
	}
	n.inResume = true
	n.Poll()
	more := false
	if n.Runner != nil {
		more = n.Runner.Step()
	}
	n.inResume = false
	if more || n.rx.n != 0 {
		n.ensureResume()
	}
}

// Poll dispatches all arrived packets to their attached handlers, in
// arrival order. Handlers run on this node and may advance its clock.
func (n *Node) Poll() {
	// Each packet is unlinked before its handler runs: the handler of an
	// embedded header releases the record around it, after which p reads as
	// a zeroed, non-pooled packet and ReleasePacket leaves it alone.
	for p := n.rxPop(); p != nil; p = n.rxPop() {
		n.PacketsRecvd++
		if p.Handler != nil {
			p.Handler(n, p)
		}
		n.ReleasePacket(p)
	}
}

// PendingRx reports the number of delivered-but-unpolled packets.
func (n *Node) PendingRx() int { return n.rx.n }

// rxPop takes the oldest packet off the node's receive queue, nil when none.
func (n *Node) rxPop() *Packet { return n.rx.pop(&n.m.rxBlocks) }
