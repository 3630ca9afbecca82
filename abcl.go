// Package abcl is the public API of the ABCL/onAP1000 reproduction: a
// concurrent object-oriented language runtime in the style of Taura,
// Matsuoka and Yonezawa's PPOPP'93 paper "An Efficient Implementation Scheme
// of Concurrent Object-Oriented Languages on Stock Multicomputers", running
// on a simulated stock multicomputer.
//
// A System bundles a simulated machine (nodes, torus network, instruction
// cost model), the intra-node runtime (multiple virtual function tables and
// integrated stack/queue scheduling) and the inter-node layer (Active
// Message handlers and chunk-stock remote creation). Programs define message
// patterns and classes, create objects, inject initial messages, and run the
// system to quiescence in virtual time:
//
//	sys, _ := abcl.NewSystem(abcl.WithNodes(4))
//	hello := sys.Pattern("hello", 0)
//	greeter := sys.Class("greeter", 0, nil)
//	greeter.Method(hello, func(ctx *abcl.Ctx) { fmt.Println("hi") })
//	obj := sys.NewObjectOn(0, greeter)
//	sys.Send(obj, hello)
//	sys.Run()
//
// Method bodies are written in continuation-passing style: operations that
// may block (Ctx.SendNow, Ctx.WaitFor, Ctx.Create) take the rest of the
// method as an explicit continuation, mirroring the paper's saved-context
// heap frames.
package abcl

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Re-exported runtime types. See package core for their documentation.
type (
	// Value is a message argument or state variable.
	Value = core.Value
	// Address is an object's mail address: (node, pointer).
	Address = core.Address
	// Ctx is a method invocation context.
	Ctx = core.Ctx
	// Frame is a received message (pattern + arguments).
	Frame = core.Frame
	// Pattern identifies a message pattern.
	Pattern = core.PatternID
	// Class describes a concurrent object class.
	Class = core.Class
	// InitCtx is the context passed to lazy state initializers.
	InitCtx = core.InitCtx
	// InitFunc lazily initializes an object's state.
	InitFunc = core.InitFunc
	// MethodFunc is a compiled method body.
	MethodFunc = core.MethodFunc
	// Policy selects stack-based or naive scheduling.
	Policy = core.Policy
	// Counters aggregates runtime event counts.
	Counters = stats.Counters
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Placement chooses nodes for remote creation.
	Placement = remote.Placement
	// MachineConfig is the full simulated-machine configuration.
	MachineConfig = machine.Config
	// FaultPlan declares deterministic link and node faults; the zero value
	// means a fault-free machine. See package fault.
	FaultPlan = fault.Plan
	// LinkFault is one per-link fault rule inside a FaultPlan.
	LinkFault = fault.LinkFault
	// NodePause pauses one node's processor for a virtual-time window.
	NodePause = fault.NodePause
	// NodeCrash kills one node at a virtual time and restarts it after a
	// delay; recovery rolls the machine back to the last checkpoint. See
	// WithCheckpoint.
	NodeCrash = fault.NodeCrash
	// Snapshot is one complete coordinated checkpoint (System.Snapshot).
	Snapshot = checkpoint.Snapshot
	// Sink observes runtime events (WithObserver). See the trace package for
	// the full contract: sinks are called synchronously from the simulation's
	// single deterministic event order and must not retain the Event.
	Sink = trace.Sink
	// Event is one observed runtime event.
	Event = trace.Event
	// ProfileReport is the cost-attribution report (System.Report().Profile):
	// per-path instruction/packet/stable-store totals, the dormant fraction,
	// and optional per-class and time-series breakdowns.
	ProfileReport = profile.Report
	// PathStat is one row of the profiler's per-path cost table.
	PathStat = profile.PathStat
	// ClassStat is one row of the profiler's per-class table.
	ClassStat = profile.ClassStat
	// ProfileSlice is one time-series bucket of a windowed profile.
	ProfileSlice = profile.Slice
)

// Wildcard matches any node in a LinkFault's Src or Dst.
const Wildcard = fault.Wildcard

// Virtual-time units, for option arguments such as WithBatching and
// WithDelayedAcks.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// UniformFaults builds a FaultPlan applying the same drop probability,
// duplication probability and maximum latency jitter to every inter-node
// link.
func UniformFaults(drop, dup float64, jitter Time) FaultPlan {
	return fault.UniformLinks(drop, dup, jitter)
}

// Scheduling policies.
const (
	StackBased = core.PolicyStackBased
	Naive      = core.PolicyNaive
)

// SendHint encodes the compile-time send optimizations of the paper's
// Section 6.1; see core.SendHint.
type SendHint = core.SendHint

// Send-site optimization hints (Section 6.1): with all four applied the
// dormant-path send costs 8 instructions instead of 25.
const (
	HintKnownLocal     = core.HintKnownLocal
	HintLeafMethod     = core.HintLeafMethod
	HintNoQueueCheck   = core.HintNoQueueCheck
	HintNoPoll         = core.HintNoPoll
	HintFullyOptimized = core.HintFullyOptimized
)

// Nil is the zero Value.
var Nil = core.Nil

// Value constructors, re-exported for ergonomic method bodies.
var (
	// Int makes an integer Value.
	Int = core.IntV
	// Bool makes a boolean Value.
	Bool = core.BoolV
	// Float makes a floating-point Value.
	Float = core.FloatV
	// Str makes a string Value.
	Str = core.StrV
	// Ref makes a mail-address Value.
	Ref = core.RefV
	// Any wraps an opaque immutable payload.
	Any = core.AnyV
)

// Placement policies for remote creation.
var (
	PlaceRoundRobin Placement = remote.RoundRobin{}
	PlaceRandom     Placement = remote.Random{}
	PlaceLocal      Placement = remote.LocalOnly{}
	PlaceLoadBased  Placement = remote.LoadBased{}
	PlaceDepthLocal Placement = remote.DepthLocal{}
)

// DefaultSeed drives placement and fault-injection randomness when no
// WithSeed option is given. The seed is never silently remapped: Seed()
// always reports the value in use.
const DefaultSeed int64 = 1

// DefaultStockDepth is the chunk-stock depth per (node, class) when neither
// WithChunkStock nor WithoutChunkStock is given.
const DefaultStockDepth = remote.DefaultStockDepth

// settings is the resolved configuration an Option edits.
type settings struct {
	nodes       int
	policy      Policy
	maxStack    int
	stock       int // resolved depth; 0 disables the stock
	placement   Placement
	seed        int64
	machine     *machine.Config
	faults      FaultPlan
	reliable    bool // ack/retry protocol even without faults
	batchWindow Time
	batchBytes  int
	ackDelay    Time
	ckptEvery   Time // periodic checkpoint interval; 0 = off
	observer    trace.Sink
	prof        *ProfileOptions
}

// Option configures a System under construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings) error

// WithNodes sets the processor count (default 1).
func WithNodes(n int) Option {
	return func(s *settings) error {
		s.nodes = n // kept when refused: configure then skips the fault plan
		if n <= 0 {
			return fmt.Errorf("abcl: WithNodes(%d): node count must be positive", n)
		}
		if n > machine.MaxNodes {
			return fmt.Errorf("abcl: WithNodes(%d): node count above the limit of %d", n, machine.MaxNodes)
		}
		return nil
	}
}

// WithPolicy selects stack-based (the default) or naive scheduling.
func WithPolicy(p Policy) Option {
	return func(s *settings) error {
		if p != StackBased && p != Naive {
			return fmt.Errorf("abcl: WithPolicy(%v): unknown policy", p)
		}
		s.policy = p
		return nil
	}
}

// WithMaxStackDepth bounds stack-based invocation nesting (default 64).
func WithMaxStackDepth(d int) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("abcl: WithMaxStackDepth(%d): depth must be positive", d)
		}
		s.maxStack = d
		return nil
	}
}

// WithPlacement picks the remote-creation placement policy (default
// PlaceRoundRobin).
func WithPlacement(p Placement) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("abcl: WithPlacement(nil): placement must be non-nil")
		}
		s.placement = p
		return nil
	}
}

// WithSeed sets the seed for deterministic placement and fault injection.
// Zero is rejected — it is too easily a forgotten field; omit the option to
// get DefaultSeed.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		if seed == 0 {
			return fmt.Errorf("abcl: WithSeed(0): seed must be non-zero (omit the option for DefaultSeed)")
		}
		s.seed = seed
		return nil
	}
}

// WithObserver attaches a trace sink to the runtime: every scheduler, wire,
// reliable-protocol and checkpoint event is delivered to it synchronously, in
// the simulation's single deterministic event order. Multiple observers
// compose via trace.Tee; a bounded in-memory trace is
// WithObserver(trace.NewRing(n)). Sinks must not retain the Event or any
// memory reachable from it beyond the call; see the trace package for the
// full contract.
func WithObserver(sink trace.Sink) Option {
	return func(s *settings) error {
		if sink == nil {
			return fmt.Errorf("abcl: WithObserver(nil): sink must be non-nil")
		}
		if s.observer != nil {
			s.observer = trace.Tee(s.observer, sink)
		} else {
			s.observer = sink
		}
		return nil
	}
}

// ProfileOptions configures the cost-attribution profiler (WithProfiler).
type ProfileOptions struct {
	// Window, when positive, additionally slices the profile into time-series
	// buckets of this width (instructions, events, packets, queue depths and
	// utilization per bucket). Zero keeps per-path totals only.
	Window Time
}

// WithProfiler enables the cost-attribution profiler: every simulated
// instruction, wire record and stable-store byte is charged to a message
// path (local-dormant, local-active, restore, now-blocked, remote-send,
// remote-recv, create, forward, sched, body, ckpt, retransmit, ack — the
// paper's Section 6 taxonomy plus the subsystems added since). The report is
// available as System.Report().Profile after a run. The profiler only
// observes — enabling it changes no virtual-time results.
func WithProfiler(opt ProfileOptions) Option {
	return func(s *settings) error {
		if opt.Window < 0 {
			return fmt.Errorf("abcl: WithProfiler: window must be non-negative, got %v", opt.Window)
		}
		s.prof = &opt
		return nil
	}
}

// WithMachine overrides the full machine configuration; its node count is
// replaced by the system's. Without this option an AP1000-like default
// (25MHz, CPI 2.3, squarish torus) is used.
func WithMachine(cfg MachineConfig) Option {
	return func(s *settings) error {
		if cfg.ClockMHz <= 0 || cfg.CPI <= 0 {
			return fmt.Errorf("abcl: WithMachine: clock %.1fMHz / CPI %.2f invalid", cfg.ClockMHz, cfg.CPI)
		}
		s.machine = &cfg
		return nil
	}
}

// WithChunkStock sets the chunk-stock depth per (node, class) for
// latency-hiding remote creation. Depth must be positive; use
// WithoutChunkStock to disable the stock entirely.
func WithChunkStock(depth int) Option {
	return func(s *settings) error {
		if depth <= 0 {
			return fmt.Errorf("abcl: WithChunkStock(%d): depth must be positive (use WithoutChunkStock to disable)", depth)
		}
		s.stock = depth
		return nil
	}
}

// WithoutChunkStock disables the chunk stock: every remote creation does a
// blocking round trip.
func WithoutChunkStock() Option {
	return func(s *settings) error {
		s.stock = 0
		return nil
	}
}

// WithFaults installs a deterministic fault plan on the machine's
// interconnect and enables the reliable-delivery (ack/retry) protocol in
// the inter-node layer, so all runtime traffic — past-type sends, remote
// creation, replies — survives the declared faults without any change to
// method-body code. The plan is validated against the node count
// at construction. A zero plan is a no-op.
func WithFaults(plan FaultPlan) Option {
	return func(s *settings) error {
		s.faults = plan
		return nil
	}
}

// WithReliable enables the acknowledgment/retry delivery protocol even on a
// fault-free interconnect. WithFaults, WithCheckpoint and WithDelayedAcks
// imply it; standalone it is useful for measuring the protocol's ack traffic
// without injected faults.
func WithReliable() Option {
	return func(s *settings) error {
		s.reliable = true
		return nil
	}
}

// WithBatching enables per-link packet batching on the wire path: records to
// the same destination node within the given virtual-time window coalesce
// into one hardware packet (flushed early once maxBytes of payload
// accumulate; maxBytes 0 selects the DefaultBatchBytes budget). The fixed
// per-packet launch latency is amortised across the coalesced records while
// per-byte and per-hop costs stay faithful. Off by default; the default
// path is byte-identical to the unbatched engine.
func WithBatching(window Time, maxBytes int) Option {
	return func(s *settings) error {
		if window <= 0 {
			return fmt.Errorf("abcl: WithBatching(%v, %d): window must be positive", window, maxBytes)
		}
		if maxBytes < 0 {
			return fmt.Errorf("abcl: WithBatching(%v, %d): byte budget must be non-negative (0 selects the default)", window, maxBytes)
		}
		s.batchWindow = window
		s.batchBytes = maxBytes
		return nil
	}
}

// WithDelayedAcks replaces the reliable layer's per-packet acknowledgments
// with cumulative acks emitted after at most d of virtual time (and
// piggybacked for free on reverse-direction batches when WithBatching is
// also on). Delayed acks only exist inside the reliable protocol, so this
// implies WithReliable.
func WithDelayedAcks(d Time) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("abcl: WithDelayedAcks(%v): delay must be positive", d)
		}
		s.ackDelay = d
		return nil
	}
}

// WithCheckpoint enables the coordinated checkpoint subsystem with the given
// snapshot interval: while the application has work, node 0 starts a round
// every interval of virtual time — one request to and one ack from each
// node, the cut found by colouring records by sequence number — capturing
// object state, buffered messages, saved contexts, protocol windows and
// in-flight records against a simulated stable store. When the fault plan
// declares node crashes (NodeCrash), each restart rolls the whole machine
// back to the last complete round and resumes: with reliable delivery on
// (which this option forces) the recovered run gives the fault-free
// results. A crash plan without WithCheckpoint recovers from a baseline
// checkpoint taken before execution starts.
func WithCheckpoint(interval Time) Option {
	return func(s *settings) error {
		if interval <= 0 {
			return fmt.Errorf("abcl: WithCheckpoint(%v): interval must be positive", interval)
		}
		s.ckptEvery = interval
		return nil
	}
}

// ExecutorSpec stays for the benchmark harness (bench/), which is built
// against it; there is one executor.
type ExecutorSpec struct{}

// Sequential stays for the benchmark harness (bench/), which is built against it.
func Sequential() ExecutorSpec { return ExecutorSpec{} }

// Conservative stays for the benchmark harness (bench/), which is built
// against it; it names the one executor, as every spec does.
func Conservative(workers int) ExecutorSpec { return ExecutorSpec{} }

// WithExecutor stays for the benchmark harness (bench/), which is built
// against it; it accepts any spec and changes nothing.
func WithExecutor(ExecutorSpec) Option { return func(*settings) error { return nil } }

// System is a complete simulated multicomputer running the ABCL runtime.
type System struct {
	M   *machine.Machine
	RT  *core.Runtime
	Net *remote.Layer

	seed        int64
	faults      FaultPlan
	ckpt        *checkpoint.Manager // nil unless checkpointing is active
	ckptStarted bool
}

// CheckOptions judges a configuration without building anything: each
// option's own argument, the cross-option rules and the fault plan against
// the node count — exactly what NewSystem rejects, with the same errors.
// Validation is aggregated: every option is applied (later options still
// override earlier ones) and every complaint is returned as one joined error,
// so a misconfigured call reports all of its problems at once.
func CheckOptions(opts ...Option) error {
	_, err := configure(opts)
	return err
}

// configure is CheckOptions, returning the settings NewSystem builds from.
func configure(opts []Option) (settings, error) {
	s := settings{
		nodes:     1,
		policy:    StackBased,
		stock:     DefaultStockDepth,
		placement: remote.RoundRobin{},
		seed:      DefaultSeed,
	}
	var errs []error
	for i, opt := range opts {
		if opt == nil {
			errs = append(errs, fmt.Errorf("abcl: option %d is nil", i))
			continue
		}
		if err := opt(&s); err != nil {
			errs = append(errs, err)
		}
	}
	// A fault plan is only checkable against a sane fleet: against a refused
	// WithNodes every rule would drown in out-of-range noise.
	if s.nodes > 0 {
		errs = append(errs, s.faults.Validate(s.nodes))
	}
	return s, errors.Join(errs...)
}

// ckptOn reports whether checkpointing is active: asked for, or implied by a
// crash plan (recovery needs at least the baseline checkpoint). It forces
// reliable delivery: colouring and replay read the protocol's sequence space.
func (s *settings) ckptOn() bool { return s.ckptEvery > 0 || len(s.faults.Crashes) > 0 }

// NewSystem builds a System from functional options:
//
//	sys, err := abcl.NewSystem(
//	    abcl.WithNodes(16),
//	    abcl.WithSeed(7),
//	    abcl.WithFaults(abcl.UniformFaults(0.1, 0.05, 0)),
//	)
//
// Every omitted option selects the AP1000-flavoured default. A configuration
// CheckOptions rejects is rejected here with the same error.
func NewSystem(opts ...Option) (*System, error) {
	s, err := configure(opts)
	if err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig(s.nodes)
	if s.machine != nil {
		mcfg = *s.machine
		mcfg.Nodes = s.nodes
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("abcl: %w", err)
	}
	var prof *profile.Profiler
	if s.prof != nil {
		prof = profile.New(s.nodes, profile.Options{
			Window:  s.prof.Window,
			InstrNs: mcfg.NsPerInstr(),
		})
	}
	var inj *fault.Injector
	if s.faults.Enabled() {
		inj, err = fault.NewInjector(s.faults, s.seed, s.nodes)
		if err != nil {
			return nil, fmt.Errorf("abcl: %w", err)
		}
		m.SetFaults(inj)
	}
	rt := core.NewRuntime(m, core.Options{
		Policy:        s.policy,
		MaxStackDepth: s.maxStack,
		Trace:         s.observer,
		Prof:          prof,
	})
	net := remote.Attach(rt, remote.Options{
		StockDepth:    s.stock,
		Placement:     s.placement,
		Seed:          s.seed,
		Reliable:      s.reliable || s.ckptOn(),
		BatchWindow:   s.batchWindow,
		BatchMaxBytes: s.batchBytes,
		AckDelay:      s.ackDelay,
	})
	sys := &System{M: m, RT: rt, Net: net, seed: s.seed, faults: s.faults}
	if s.ckptOn() {
		sys.ckpt = checkpoint.New(rt, net, s.ckptEvery)
	}
	return sys, nil
}

// MustNewSystem is NewSystem for known-good configurations.
func MustNewSystem(opts ...Option) *System {
	s, err := NewSystem(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Pattern registers (or looks up) a message pattern.
func (s *System) Pattern(name string, arity int) Pattern {
	return s.RT.Reg.Register(name, arity)
}

// Class defines a new object class with stateSize state variables and an
// optional lazy initializer, and returns it for chaining Method, Group,
// Priority and ReorderBound calls:
//
//	counter := sys.Class("counter", 1, nil).
//	    Method(get, getBody).
//	    Method(add, addBody).
//	    Group("reads", get).
//	    Group("writes", add).
//	    Priority("writes", 1)
//
// Declaring any compatibility group makes the class multiactive: invocations
// whose patterns share a group may be live on one object simultaneously
// (running, or blocked in a now-type wait), while ungrouped patterns stay
// exclusive with everything. A class with no groups keeps the paper's serial
// semantics exactly.
func (s *System) Class(name string, stateSize int, init InitFunc) *Class {
	return s.RT.DefineClass(name, stateSize, init)
}

// NewObjectOn creates an object on a node from the host side (bootstrap).
func (s *System) NewObjectOn(node int, cl *Class, ctorArgs ...Value) Address {
	return s.RT.NewObjectOn(node, cl, ctorArgs...)
}

// Send injects a message from the host side. The message is buffered and
// scheduled on the target's node.
func (s *System) Send(to Address, p Pattern, args ...Value) {
	s.RT.Inject(to, p, args...)
}

// startCkpt lazily starts the checkpoint subsystem: the baseline round-0
// snapshot must be taken after the application's setup (bootstrap objects
// created, initial messages injected) but before the machine runs, so it
// happens on the first Run/Snapshot/Restore rather than in NewSystem.
func (s *System) startCkpt() {
	if s.ckpt == nil || s.ckptStarted {
		return
	}
	s.ckptStarted = true
	s.ckpt.Start(s.faults.Crashes)
}

// Run freezes the system (fixing patterns and building all virtual function
// tables) and executes until quiescence. When checkpointing is active the
// baseline checkpoint, periodic snapshot rounds and any declared
// crash/restart events are installed before the first event fires.
func (s *System) Run() error {
	s.startCkpt()
	return s.RT.Run()
}

// SyncWindows stays for the benchmark harness (bench/), which is built
// against it; one executor has no windows.
func (s *System) SyncWindows() uint64 { return 0 }

// Snapshot captures a consistent global checkpoint of the current machine
// state and makes it the restore target. The system must be quiescent
// (before the first Run or after a Run returned); mid-run snapshots are the
// periodic rounds' job. Requires checkpointing.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.ckpt == nil {
		return nil, fmt.Errorf("abcl: Snapshot requires WithCheckpoint or a crash plan")
	}
	s.startCkpt()
	return s.ckpt.Snapshot(), nil
}

// Restore rolls the whole machine back to the last stable checkpoint (the
// most recent of: the baseline, a completed periodic round, an explicit
// Snapshot). The system must be quiescent; the next Run resumes execution
// from the restored state, replaying the cut's in-flight messages. Requires
// checkpointing.
func (s *System) Restore() error {
	if s.ckpt == nil {
		return fmt.Errorf("abcl: Restore requires WithCheckpoint or a crash plan")
	}
	s.startCkpt()
	s.ckpt.Restore()
	return nil
}

// Nodes returns the node count.
func (s *System) Nodes() int { return s.M.Nodes() }

// Seed returns the seed actually in use for placement and fault injection
// (DefaultSeed when none was configured).
func (s *System) Seed() int64 { return s.seed }

// Faults returns the configured fault plan; the zero plan means a
// fault-free interconnect.
func (s *System) Faults() FaultPlan { return s.faults }

// Report is the grouped introspection snapshot of a System, replacing the
// flat accessor zoo. Take one after Run (or between Runs); it is a copy and
// does not track subsequent execution.
type Report struct {
	Sched    SchedReport
	Wire     WireReport
	Reliable ReliableReport
	Ckpt     CkptReport
	// Profile is the cost-attribution report; nil unless WithProfiler.
	Profile *ProfileReport
}

// SchedReport covers the intra-node runtime: virtual time, utilization and
// the aggregated scheduling counters.
type SchedReport struct {
	// Nodes is the processor count.
	Nodes int
	// Elapsed is the parallel makespan: the largest node clock.
	Elapsed Time
	// Utilization is busy time over (makespan x nodes).
	Utilization float64
	// TotalInstructions is the instruction count summed over nodes.
	TotalInstructions uint64
	// Counters aggregates the runtime event counters over all nodes.
	Counters Counters
}

// WireReport covers the interconnect: packet/message/byte totals and the
// wire-path optimisations in effect.
type WireReport struct {
	// Packets is the count of physical packet launches; with batching one
	// packet may carry several logical messages.
	Packets uint64
	// LogicalMsgs is the count of logical messages launched onto the wire.
	// The ratio LogicalMsgs/Packets is the mean aggregation factor.
	LogicalMsgs uint64
	// Bytes is the total payload transmitted.
	Bytes uint64
	// BatchWindow and BatchMaxBytes echo the WithBatching configuration
	// (zeroes when batching is off).
	BatchWindow   Time
	BatchMaxBytes int
}

// ReliableReport covers the acknowledgment/retry delivery protocol.
type ReliableReport struct {
	// Enabled reports whether the ack/retry protocol is active.
	Enabled bool
	// AckDelay is the delayed-ack interval (zero when acks are immediate).
	AckDelay Time
}

// CkptReport covers the coordinated checkpoint subsystem.
type CkptReport struct {
	// Enabled reports whether checkpointing is active.
	Enabled bool
	// Rounds is the number of completed checkpoint rounds (including the
	// baseline).
	Rounds int
}

// Report assembles the grouped introspection snapshot: scheduling, wire,
// reliable-protocol and checkpoint sections, plus the cost-attribution
// profile when WithProfiler was given.
func (s *System) Report() Report {
	bw, bb := s.Net.Batching()
	c := s.RT.TotalStats()
	packets := s.M.TotalPackets()
	r := Report{
		Sched: SchedReport{
			Nodes:             s.M.Nodes(),
			Elapsed:           s.M.MaxClock(),
			Utilization:       s.M.Utilization(),
			TotalInstructions: s.M.TotalInstr(),
			Counters:          c,
		},
		Wire: WireReport{
			Packets: packets,
			// A batch is one packet carrying at least two records; every
			// other packet carries one.
			LogicalMsgs:   packets - c.BatchesSent + c.BatchedMsgs,
			Bytes:         s.M.TotalBytes(),
			BatchWindow:   bw,
			BatchMaxBytes: bb,
		},
		Reliable: ReliableReport{
			Enabled:  s.Net.Reliable(),
			AckDelay: s.Net.AckDelay(),
		},
		Ckpt: CkptReport{
			Enabled: s.ckpt != nil,
		},
	}
	if s.ckpt != nil {
		r.Ckpt.Rounds = s.ckpt.Rounds()
	}
	if p := s.M.Profiler(); p != nil {
		r.Profile = p.Report()
	}
	return r
}

// InstrTime converts an instruction count to virtual time under the
// system's clock and CPI configuration.
func (s *System) InstrTime(instr int) Time { return s.M.Cfg.InstrTime(instr) }
