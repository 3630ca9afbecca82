// Package fault is the deterministic, seed-driven fault-injection subsystem
// of the simulated multicomputer. It models the two failure classes a stock
// multicomputer's software layer must absorb once the interconnect is no
// longer assumed perfect:
//
//   - link faults: per-link message drop, duplication, and extra latency
//     jitter, applied per transmission attempt;
//   - node faults: a node pausing (no instruction executes) for a window of
//     virtual time, then resuming with its receive buffers intact;
//   - node crashes: a node failing at a point in virtual time, losing all
//     volatile state, and restarting later from its latest checkpoint
//     (executed by package checkpoint; declared and validated here).
//
// A Plan is a declarative description of the faults to inject; an Injector
// is a Plan bound to a seed and node count, implementing machine.FaultModel.
// All randomness is drawn from per-link xorshift streams derived from the
// seed, so the same (plan, seed) pair yields bit-identical fault schedules
// across runs regardless of how other links behave — the property the
// determinism tests and reproducible failure scenarios rely on.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Wildcard matches any node in a LinkFault endpoint.
const Wildcard = -1

// LinkFault describes the fault behaviour of one link (or a set of links
// when an endpoint is Wildcard). The first rule matching (src, dst) wins;
// list specific links before wildcard rules. The JSON tags here and below
// are the fault schedule of scenario files and run specs.
type LinkFault struct {
	// Src and Dst select the link; Wildcard (-1) matches any node.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Drop is the per-transmission-attempt probability of losing the packet.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the per-attempt probability of delivering one extra copy.
	Dup float64 `json:"dup,omitempty"`
	// Jitter is the maximum extra delivery latency; each delivered copy is
	// delayed by a uniform draw from [0, Jitter].
	Jitter sim.Time `json:"jitter_ns,omitempty"`
}

// UnmarshalJSON defaults omitted src/dst to the wildcard and, like the
// decoders of the files a rule sits in, rejects keys it does not declare.
func (lf *LinkFault) UnmarshalJSON(data []byte) error {
	type raw LinkFault
	r := raw{Src: Wildcard, Dst: Wildcard}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return err
	}
	*lf = LinkFault(r)
	return nil
}

// Matches reports whether the rule covers the (src, dst) link.
func (lf LinkFault) Matches(src, dst int) bool {
	return (lf.Src == Wildcard || lf.Src == src) &&
		(lf.Dst == Wildcard || lf.Dst == dst)
}

// NodePause stops a node for a window of virtual time: no turn of its
// scheduler runs in [At, At+For). Packets keep arriving and buffer in the
// node's receive queue; execution resumes at the window's end.
type NodePause struct {
	Node int      `json:"node"`
	At   sim.Time `json:"at_ns"`
	For  sim.Time `json:"for_ns"`
}

// NodeCrash fails a node at virtual time At, discarding all of its volatile
// state — receive buffers, scheduling queues, object state, reliable-layer
// windows — unlike a NodePause, which preserves everything. Packets addressed
// to the node while it is down are lost at its message controller. The node
// restarts RestartAfter later from its most recent checkpoint (see package
// checkpoint); a crash plan therefore requires checkpointing to be enabled.
type NodeCrash struct {
	Node         int      `json:"node"`
	At           sim.Time `json:"at_ns"`
	RestartAfter sim.Time `json:"restart_after_ns"`
}

// Plan is a declarative fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed overrides the fault stream seed; 0 derives it from the system
	// seed so a run is reproducible from a single logged value.
	Seed int64 `json:"-"`
	// Links are first-match-wins link fault rules.
	Links []LinkFault `json:"links,omitempty"`
	// Pauses are node pause windows.
	Pauses []NodePause `json:"pauses,omitempty"`
	// Crashes are node crash/restart events (state-losing, unlike Pauses).
	Crashes []NodeCrash `json:"crashes,omitempty"`
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return len(p.Links) > 0 || len(p.Pauses) > 0 || len(p.Crashes) > 0
}

// UniformLinks returns a plan that applies drop/dup/jitter uniformly to
// every link.
func UniformLinks(drop, dup float64, jitter sim.Time) Plan {
	return Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: drop, Dup: dup, Jitter: jitter}}}
}

// WithPause returns a copy of the plan with an extra node pause window.
func (p Plan) WithPause(node int, at, dur sim.Time) Plan {
	cp := p
	cp.Pauses = append(append([]NodePause(nil), p.Pauses...), NodePause{Node: node, At: at, For: dur})
	return cp
}

// WithCrash returns a copy of the plan with an extra node crash at `at`,
// restarting `restartAfter` later.
func (p Plan) WithCrash(node int, at, restartAfter sim.Time) Plan {
	cp := p
	cp.Crashes = append(append([]NodeCrash(nil), p.Crashes...),
		NodeCrash{Node: node, At: at, RestartAfter: restartAfter})
	return cp
}

// window is one outage interval [start, end) on a node, used by Validate to
// reject overlapping pause/crash schedules, which have no well-defined
// semantics (is the node paused or dead?).
type window struct {
	start, end sim.Time
	what       string
	idx        int
}

// Validate checks probabilities, windows and node references against the
// machine size, and rejects overlapping pause/crash windows on the same
// node.
func (p Plan) Validate(nodes int) error {
	for i, lf := range p.Links {
		if lf.Drop < 0 || lf.Drop > 1 || lf.Dup < 0 || lf.Dup > 1 {
			return fmt.Errorf("fault: link rule %d: probabilities must be in [0,1] (drop=%g dup=%g)", i, lf.Drop, lf.Dup)
		}
		if lf.Drop == 1 {
			return fmt.Errorf("fault: link rule %d: drop probability 1 makes delivery impossible", i)
		}
		if lf.Jitter < 0 {
			return fmt.Errorf("fault: link rule %d: negative jitter %v", i, lf.Jitter)
		}
		for _, end := range [2]int{lf.Src, lf.Dst} {
			if end != Wildcard && (end < 0 || end >= nodes) {
				return fmt.Errorf("fault: link rule %d: node %d out of range [0,%d)", i, end, nodes)
			}
		}
	}
	windows := make(map[int][]window)
	for i, np := range p.Pauses {
		if np.Node < 0 || np.Node >= nodes {
			return fmt.Errorf("fault: pause %d: node %d out of range [0,%d)", i, np.Node, nodes)
		}
		if np.At < 0 || np.For <= 0 {
			return fmt.Errorf("fault: pause %d: window [%v, +%v) invalid (start must be >= 0, duration > 0)", i, np.At, np.For)
		}
		windows[np.Node] = append(windows[np.Node], window{np.At, np.At + np.For, "pause", i})
	}
	for i, nc := range p.Crashes {
		if nc.Node < 0 || nc.Node >= nodes {
			return fmt.Errorf("fault: crash %d: node %d out of range [0,%d)", i, nc.Node, nodes)
		}
		if nc.At < 0 || nc.RestartAfter <= 0 {
			return fmt.Errorf("fault: crash %d: outage [%v, +%v) invalid (start must be >= 0, restart-after > 0)", i, nc.At, nc.RestartAfter)
		}
		windows[nc.Node] = append(windows[nc.Node], window{nc.At, nc.At + nc.RestartAfter, "crash", i})
	}
	for node := 0; node < nodes; node++ {
		ws := windows[node]
		for i := 1; i < len(ws); i++ { // insertion sort by start: windows per node are few
			for j := i; j > 0 && ws[j].start < ws[j-1].start; j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				return fmt.Errorf("fault: node %d: %s %d [%v, %v) overlaps %s %d [%v, %v)",
					node, ws[i].what, ws[i].idx, ws[i].start, ws[i].end,
					ws[i-1].what, ws[i-1].idx, ws[i-1].start, ws[i-1].end)
			}
		}
	}
	return nil
}

// linkState is the per-link fault stream: the matched rule plus a private
// xorshift generator, so decisions on one link never perturb another.
type linkState struct {
	rule *LinkFault // nil: the link is fault-free
	rng  uint64
}

func (ls *linkState) next() uint64 {
	x := ls.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ls.rng = x
	return x
}

// unit returns a uniform draw from [0, 1).
func (ls *linkState) unit() float64 {
	return float64(ls.next()>>11) / float64(1<<53)
}

// Injector binds a Plan to a seed and node count. It implements
// machine.FaultModel and counts nothing itself: the machine counts the faults
// it injects on the affected node (machine.Node.C). Link runs on the sending
// node's lane and PausedUntil on the paused node's; entry (src,dst) of links
// is only ever touched from src's lane and pauses is read-only.
type Injector struct {
	plan  Plan
	seed  int64
	nodes int
	links []linkState // dense nodes×nodes table, lazily seeded

	// pauses[node] holds that node's windows sorted by start time.
	pauses [][]NodePause
}

// NewInjector validates plan against the node count and builds the injector.
// When plan.Seed is zero the fault streams derive from seed (the system
// seed), so logging one value suffices to reproduce a faulty run.
func NewInjector(plan Plan, seed int64, nodes int) (*Injector, error) {
	if err := plan.Validate(nodes); err != nil {
		return nil, err
	}
	if plan.Seed != 0 {
		seed = plan.Seed
	}
	in := &Injector{
		plan:   plan,
		seed:   seed,
		nodes:  nodes,
		links:  make([]linkState, nodes*nodes),
		pauses: make([][]NodePause, nodes),
	}
	for _, np := range plan.Pauses {
		in.pauses[np.Node] = append(in.pauses[np.Node], np)
	}
	for _, ws := range in.pauses {
		// Insertion sort by start time: windows per node are few.
		for i := 1; i < len(ws); i++ {
			for j := i; j > 0 && ws[j].At < ws[j-1].At; j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
	}
	return in, nil
}

// Seed returns the effective fault stream seed.
func (in *Injector) Seed() int64 { return in.seed }

// Plan returns the bound plan.
func (in *Injector) Plan() Plan { return in.plan }

// link returns the (lazily seeded) stream for src→dst.
func (in *Injector) link(src, dst int) *linkState {
	ls := &in.links[src*in.nodes+dst]
	if ls.rng == 0 {
		// splitmix-style seeding keyed by (seed, src, dst); the +1 keeps the
		// xorshift state nonzero even for adversarial seeds.
		z := uint64(in.seed)*0x9e3779b97f4a7c15 + uint64(src)*0xbf58476d1ce4e5b9 + uint64(dst)*0x94d049bb133111eb + 1
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		if z == 0 {
			z = 1
		}
		ls.rng = z
		for i := range in.plan.Links {
			if in.plan.Links[i].Matches(src, dst) {
				ls.rule = &in.plan.Links[i]
				break
			}
		}
	}
	return ls
}

// clean is the fault-free outcome, shared to keep unaffected links
// allocation-free.
var clean = []sim.Time{0}

// Link implements machine.FaultModel: decide the fate of one transmission
// attempt. Local (src == dst) traffic never traverses a link and is exempt.
func (in *Injector) Link(src, dst int, at sim.Time, size int) []sim.Time {
	if src == dst {
		return clean
	}
	ls := in.link(src, dst)
	r := ls.rule
	if r == nil {
		return clean
	}
	// Draw in a fixed order (drop, jitter, dup, dup-jitter) so the stream
	// consumption per attempt is schedule-independent.
	if r.Drop > 0 && ls.unit() < r.Drop {
		return nil
	}
	jitter := func() sim.Time {
		if r.Jitter <= 0 {
			return 0
		}
		return sim.Time(ls.next() % uint64(r.Jitter+1))
	}
	out := []sim.Time{jitter()}
	if r.Dup > 0 && ls.unit() < r.Dup {
		out = append(out, jitter())
	}
	return out
}

// PausedUntil implements machine.FaultModel: the end of the pause window
// containing at, or at itself when the node is running.
func (in *Injector) PausedUntil(node int, at sim.Time) sim.Time {
	for _, w := range in.pauses[node] {
		if w.At > at {
			break
		}
		if end := w.At + w.For; at < end {
			return end
		}
	}
	return at
}

// String summarizes the plan for logs.
func (in *Injector) String() string {
	return fmt.Sprintf("fault{seed=%d links=%d pauses=%d crashes=%d}",
		in.seed, len(in.plan.Links), len(in.plan.Pauses), len(in.plan.Crashes))
}
