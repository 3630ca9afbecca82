// Package profile is the cost attribution of the observability layer: every
// simulated instruction, wire record and stable-store byte is charged to a
// *path* — the paper's Section 6 cost categories (stack-invoked dormant
// sends, queued active sends, context restorations, heap-frame now-blocks,
// the remote send/receive halves, creation, checkpointing, retransmission)
// — and deliveries and method-body instructions to the receiver's class.
// The machine keeps the one record of all of it (Counts), always on: one
// array add per fact. A Profiler is the optional time-slice accumulator,
// built only when a window is set; Counts.Report renders both.
//
// Both only observe: they charge nothing to the simulated machine and are
// never read by anything the engine could branch on, so a window cannot
// change virtual-time results (asserted by TestProfilerEquivalence).
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
	Multi                    // local delivery to a multiactive receiver: group check, parking
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

// Slice is one time-series bucket: activity inside [Start, Start+Window).
type Slice struct {
	Start       sim.Time `json:"start_ns"`
	Instr       uint64   `json:"instr"`
	Events      uint64   `json:"events"`
	Packets     uint64   `json:"packets"`
	MaxQueue    int      `json:"max_queue"`
	Utilization float64  `json:"utilization,omitempty"`
}

// Delivery modes: the receiver's mode at a delivery, Class.Deliv's index.
const (
	DeliverDormant = iota
	DeliverActive
	DeliverRestore
	DeliverMulti
	NumModes
)

// Counts is the machine's one record of cost attribution, always on: per
// path its events (one message, one creation, one checkpoint save, ...),
// the instructions charged to it and the wire records and bytes it
// launched; the stable-store bytes; and per class id its deliveries and
// method-body instructions.
type Counts struct {
	Events  [NumPaths]uint64
	Instr   [NumPaths]uint64
	Packets [NumPaths]uint64
	Bytes   [NumPaths]uint64
	Stable  uint64 // bytes moved to or from the simulated stable store
	// Classes has one row per class id, sized once when the runtime
	// freezes its class set.
	Classes []Class
}

// Class is one class's row of Counts.
type Class struct {
	Name  string
	Deliv [NumModes]uint64 // deliveries by receiver mode (DeliverDormant, ...)
	Body  uint64           // method-body instructions
}

// TotalInstr is the sum of the instructions charged across paths.
func (c *Counts) TotalInstr() uint64 {
	var sum uint64
	for _, n := range c.Instr {
		sum += n
	}
	return sum
}

// Profiler is the time-slice accumulator: instructions, events, packets and
// the deepest scheduling queue per window of virtual time. A machine builds
// one only when a window is set.
type Profiler struct {
	window  sim.Time
	instrNs float64 // virtual ns per instruction, for utilization; 0 leaves it out
	nodes   int
	slices  []Slice
}

// New builds the slicer of a machine of n nodes for a positive window.
func New(n int, window sim.Time, instrNs float64) *Profiler {
	return &Profiler{window: window, instrNs: instrNs, nodes: n}
}

// Instr adds instr instructions charged at time at.
func (p *Profiler) Instr(instr int, at sim.Time) { p.slice(at).Instr += uint64(instr) }

// Event adds one path event at time at.
func (p *Profiler) Event(at sim.Time) { p.slice(at).Events++ }

// Packet adds one wire record launched at time at.
func (p *Profiler) Packet(at sim.Time) { p.slice(at).Packets++ }

// QueueDepth samples a node's scheduling-queue depth at time at.
func (p *Profiler) QueueDepth(depth int, at sim.Time) {
	if s := p.slice(at); depth > s.MaxQueue {
		s.MaxQueue = depth
	}
}

func (p *Profiler) slice(at sim.Time) *Slice {
	idx := 0
	if at > 0 {
		idx = int(at / p.window)
	}
	for len(p.slices) <= idx {
		p.slices = append(p.slices, Slice{Start: sim.Time(len(p.slices)) * p.window})
	}
	return &p.slices[idx]
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

// Report is the rendered cost attribution of a run.
type Report struct {
	Window  sim.Time    `json:"window_ns,omitempty"`
	Paths   []PathStat  `json:"paths"`
	Classes []ClassStat `json:"classes,omitempty"`
	Slices  []Slice     `json:"slices,omitempty"`
}

// Report renders the counts, and the time series of s when it is non-nil.
// Paths and classes with no activity are omitted; rows appear in taxonomy
// and class-id order.
func (c *Counts) Report(s *Profiler) *Report {
	r := &Report{Paths: make([]PathStat, 0, NumPaths), Classes: make([]ClassStat, 0, len(c.Classes))}
	total := c.TotalInstr()
	for pa := Path(0); pa < NumPaths; pa++ {
		events, instr := c.Events[pa], c.Instr[pa]
		if instr == 0 && events == 0 && c.Packets[pa] == 0 && c.Bytes[pa] == 0 {
			continue
		}
		ps := PathStat{
			Path:      pa.String(),
			Events:    events,
			Instr:     instr,
			Packets:   c.Packets[pa],
			WireBytes: c.Bytes[pa],
		}
		if pa == Ckpt {
			ps.StableBytes = c.Stable
		}
		if events > 0 {
			ps.InstrPerEvent = float64(instr) / float64(events)
		}
		if total > 0 {
			ps.InstrShare = float64(instr) / float64(total)
		}
		r.Paths = append(r.Paths, ps)
	}
	for _, cl := range c.Classes {
		d := cl.Deliv
		if cl.Body == 0 && d == [NumModes]uint64{} {
			continue
		}
		r.Classes = append(r.Classes, ClassStat{Class: cl.Name, BodyInstr: cl.Body,
			Dormant: d[DeliverDormant], Active: d[DeliverActive], Restore: d[DeliverRestore], Multi: d[DeliverMulti]})
	}
	if s != nil {
		r.Window, r.Slices = s.window, s.sliceReport()
	}
	return r
}

// sliceReport returns the time series with utilization derived from instrNs
// over the whole machine's capacity for each window.
func (p *Profiler) sliceReport() []Slice {
	if len(p.slices) == 0 {
		return nil
	}
	out := append([]Slice(nil), p.slices...)
	if p.instrNs > 0 {
		denom := float64(p.window) * float64(p.nodes)
		for k := range out {
			out[k].Utilization = p.instrNs * float64(out[k].Instr) / denom
		}
	}
	return out
}
