package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Policy selects the intra-node scheduling strategy.
type Policy uint8

const (
	// PolicyStackBased is the paper's integrated stack/queue scheduler
	// (Section 4.1): messages to dormant objects run immediately on the
	// sender's stack; only messages to non-dormant objects are buffered.
	PolicyStackBased Policy = iota
	// PolicyNaive is the baseline of Section 6.3: every message is buffered
	// in the receiver's message queue and the receiver is scheduled through
	// the node scheduling queue.
	PolicyNaive
)

func (p Policy) String() string {
	if p == PolicyNaive {
		return "naive"
	}
	return "stack"
}

// Remote is the hook the inter-node layer (package remote) installs into the
// core runtime. The core calls SendMessage when a locality check fails and
// Create for placement-policy-driven object creation.
type Remote interface {
	// SendMessage transmits a message to an object on another node. The
	// args slice is only valid for the duration of the call — the core
	// stages it in a reusable scratch buffer — so the implementation must
	// copy anything it keeps.
	SendMessage(n *NodeRT, to Address, p PatternID, args []Value, replyTo Address)
	// Create creates an object on a node chosen by the placement policy and
	// passes its mail address to k. The fast path (chunk stock hit) calls k
	// immediately on the caller's stack; the slow path blocks the calling
	// object until a chunk arrives.
	Create(ctx *Ctx, cl *Class, ctorArgs []Value, k func(*Ctx, Address))
}

// Options configures a Runtime.
type Options struct {
	Policy Policy
	// MaxStackDepth bounds nested stack-based invocations; beyond it the
	// runtime preempts to the scheduling queue (the paper's preemption on
	// deep recursion). Zero means the default of 64.
	MaxStackDepth int
	// Trace, when non-nil, is installed on the machine and receives every
	// runtime event — the machine's injected faults, the core's sends and
	// dispatches, and those of the layers attached to it, in the one global
	// event order.
	Trace trace.Sink
	// Prof, when non-nil, is installed on the machine and receives per-path
	// cost attribution for every simulated charge. Like Trace it only
	// observes; enabling it changes no virtual-time results.
	Prof *profile.Profiler
}

// Runtime is the ABCL language runtime spanning all nodes of a machine.
type Runtime struct {
	M   *machine.Machine
	Reg *Registry

	nodes   []*NodeRT
	classes []*Class

	policy        Policy
	maxStackDepth int
	remote        Remote
	frozen        bool

	// PatReply is the reserved pattern carrying now-type replies.
	PatReply PatternID

	// pending holds objects created before freeze, awaiting their tables.
	pending []*Object

	replyVFT   *VFT // native table for reply destination objects
	faultVFT   *VFT // generic fault table for uninitialized chunks
	forwardVFT *VFT // forwarder table for migrated objects

	// Never reclaimed, so carved: every Object, and every state box and
	// constructor-argument copy.
	objects sim.Arena[Object]
	values  sim.Arena[Value]
}

// NewRuntime builds a runtime over the discrete-event machine m. Classes
// and patterns must be defined before the first Run (which freezes the
// runtime).
func NewRuntime(m *machine.Machine, opt Options) *Runtime {
	if opt.MaxStackDepth <= 0 {
		opt.MaxStackDepth = 64
	}
	r := &Runtime{
		M:             m,
		Reg:           NewRegistry(),
		policy:        opt.Policy,
		maxStackDepth: opt.MaxStackDepth,
		remote:        defaultRemote{},
	}
	r.PatReply = r.Reg.Register("reply:", 1)
	m.SetTrace(opt.Trace)
	if opt.Prof != nil {
		m.SetProfiler(opt.Prof)
	}
	r.nodes = make([]*NodeRT, m.Nodes())
	for i := range r.nodes {
		mn := m.Node(i)
		r.nodes[i] = &NodeRT{rt: r, id: i, node: mn, cost: &m.Cfg.Cost, C: &mn.C}
		mn.Runner = r.nodes[i]
	}
	return r
}

// Tracing reports whether the machine has a trace sink attached
// (machine.Machine.Tracing).
func (r *Runtime) Tracing() bool { return r.M.Tracing() }

// Tracef records one event through the machine's trace sink
// (machine.Machine.Tracef). A no-op with tracing off.
func (r *Runtime) Tracef(at sim.Time, node int, kind trace.Kind, format string, args ...any) {
	r.M.Tracef(at, node, kind, format, args...)
}

// DefineClass registers a new class. stateSize is the number of state
// variables; init (optional) is the lazy initializer run on first message.
func (r *Runtime) DefineClass(name string, stateSize int, init InitFunc) *Class {
	if r.frozen {
		panic(fmt.Sprintf("core: class %s defined after freeze", name))
	}
	if stateSize < 0 {
		panic(fmt.Sprintf("core: class %s has negative state size", name))
	}
	c := &Class{
		Name:      name,
		StateSize: stateSize,
		Init:      init,
		rt:        r,
		id:        len(r.classes),
		defs:      make(map[PatternID]MethodFunc),
	}
	r.classes = append(r.classes, c)
	return c
}

// SetRemote installs the inter-node layer. Must be called before freeze.
func (r *Runtime) SetRemote(rem Remote) {
	if r.frozen {
		panic("core: SetRemote after freeze")
	}
	r.remote = rem
}

// RemoteLayer returns the installed remote layer.
func (r *Runtime) RemoteLayer() Remote { return r.remote }

// Policy returns the active scheduling policy.
func (r *Runtime) Policy() Policy { return r.policy }

// MaxStackDepth returns the preemption depth bound.
func (r *Runtime) MaxStackDepth() int { return r.maxStackDepth }

// Freeze fixes the pattern set and generates all virtual function tables
// (the runtime's analogue of compilation). Idempotent.
func (r *Runtime) Freeze() {
	if r.frozen {
		return
	}
	r.frozen = true
	r.Reg.Freeze()
	npat := r.Reg.Count()
	prof := r.M.Profiler()
	for _, c := range r.classes {
		c.buildTables(npat)
		if prof != nil {
			prof.RegisterClass(c.id, c.Name)
			if c.Multiactive() {
				for gi := range c.groups {
					c.groups[gi].profID = prof.RegisterGroup(c.Name, c.groups[gi].name)
				}
				c.exclusiveProf = prof.RegisterGroup(c.Name, "(exclusive)")
			}
		}
	}
	// Native table for reply destinations: only reply: is understood.
	r.replyVFT = &VFT{Mode: ModeDormant, entries: make([]entry, npat)}
	r.replyVFT.entries[r.PatReply] = entry{entryNative, replyEntry}
	// The class-independent generic fault table (Section 5.2): every entry
	// is a queuing procedure, forcing messages to uninitialized objects to
	// be buffered.
	r.faultVFT = &VFT{Mode: ModeUninit, entries: make([]entry, npat)}
	for p := range r.faultVFT.entries {
		r.faultVFT.entries[p] = entry{entryFault, faultEntry}
	}
	// Forwarder table for migrated objects: every entry re-sends to the
	// object's new home.
	r.forwardVFT = &VFT{Mode: ModeDormant, entries: make([]entry, npat)}
	for p := range r.forwardVFT.entries {
		r.forwardVFT.entries[p] = entry{entryForward, forwardEntry}
	}
	// Objects created during setup get their tables now.
	for _, obj := range r.pending {
		assignInitialVFT(obj)
	}
	r.pending = nil
}

// assignInitialVFT points a fresh object at its class's initial table and
// allocates the multiactive scheduling state when the class declares groups.
func assignInitialVFT(obj *Object) {
	cl := obj.class
	if cl.multiTable != nil && obj.multi == nil {
		obj.multi = newMultiState(cl)
	}
	switch {
	case cl.Init != nil:
		obj.vftp = cl.initTable
	case cl.multiTable != nil:
		obj.vftp = cl.multiTable
	default:
		obj.vftp = cl.dormant
	}
}

// Frozen reports whether Freeze has run.
func (r *Runtime) Frozen() bool { return r.frozen }

// NodeRT returns the per-node runtime for node id.
func (r *Runtime) NodeRT(id int) *NodeRT { return r.nodes[id] }

// Nodes returns the node count.
func (r *Runtime) Nodes() int { return len(r.nodes) }

// Run freezes the runtime and drives the machine to quiescence.
func (r *Runtime) Run() error {
	r.Freeze()
	return r.M.Run()
}

// TotalStats aggregates counters across all nodes.
func (r *Runtime) TotalStats() stats.Counters {
	var t stats.Counters
	for _, n := range r.nodes {
		t.Add(n.C)
	}
	return t
}

// ObjectsMade reports how many host Objects the nodes have carved: objects,
// reply destinations and chunks alike. With every stocked chunk a count, a
// run makes one per creation (and reply destination), none per idle chunk.
func (r *Runtime) ObjectsMade() int {
	made := 0
	for _, n := range r.nodes {
		made += n.made
	}
	return made
}

// newObject allocates an object of class cl on node. The object starts in
// need-init mode when the class has an initializer, dormant otherwise.
// Before freeze the table pointer is deferred (tables do not exist yet);
// Freeze fills it in.
func (r *Runtime) newObject(cl *Class, node int, ctorArgs []Value) *Object {
	n := r.nodes[node]
	obj := n.newObjectAt(node)
	obj.class = cl
	obj.ctorArgs = n.copyCtorArgs(ctorArgs)
	if cl.StateSize > 0 {
		obj.state = n.allocState(cl.StateSize)
	}
	if r.frozen {
		assignInitialVFT(obj)
	} else {
		r.pending = append(r.pending, obj)
	}
	r.trackObject(node, obj)
	return obj
}

// NewObjectOn creates an object on a node from outside any method — the
// host-side bootstrap used to set up a computation. Unlike Ctx.Create it
// does not model creation-protocol costs beyond the local creation charge.
func (r *Runtime) NewObjectOn(node int, cl *Class, ctorArgs ...Value) Address {
	n := r.nodes[node]
	n.node.SetPath(profile.Create)
	n.node.Charge(n.cost.CreateLocal)
	if np := n.node.Prof(); np != nil {
		np.CountEvent(profile.Create, n.node.Now())
	}
	n.C.LocalCreations++
	return r.newObject(cl, node, ctorArgs).Addr()
}

// NewFaultChunk allocates an uninitialized chunk homed on node: class-less,
// with the generic fault table installed, ready to buffer early messages.
// Used by the remote-creation protocol, where the allocating node n is not
// always the home: a requester popping its stock carves the chunk the popped
// address names on the target, on the requester's lane because that is the
// one running. The chunk joins its home's checkpoint list when the home
// first touches it (InitChunk, faultEntry), on the home's lane.
func (n *NodeRT) NewFaultChunk(node int) *Object {
	r := n.rt
	r.Freeze()
	obj := n.newObjectAt(node)
	obj.vftp = r.faultVFT
	return obj
}

// InitChunk performs the class-specific initialization of a chunk on the
// target node (category-2 handler body): the chunk gets its class, state and
// proper virtual function table, and is scheduled if early messages were
// buffered by the fault table.
func (r *Runtime) InitChunk(n *NodeRT, obj *Object, cl *Class, ctorArgs []Value) {
	if obj.node != n.id {
		panic("core: InitChunk on wrong node")
	}
	if obj.class != nil {
		panic("core: InitChunk on already-initialized object")
	}
	r.trackObject(n.id, obj)
	obj.class = cl
	obj.ctorArgs = n.copyCtorArgs(ctorArgs)
	if cl.StateSize > 0 {
		obj.state = n.allocState(cl.StateSize)
	}
	assignInitialVFT(obj)
	if !obj.queue.empty() {
		n.enqueueSched(obj)
	}
}

// Inject delivers a message from outside the object world (the host driver).
// The message is buffered and scheduled rather than stack-invoked, since
// there is no sending object. The runtime is frozen on first use.
func (r *Runtime) Inject(to Address, p PatternID, args ...Value) {
	r.Freeze()
	if to.IsNil() {
		panic("core: Inject to nil address")
	}
	n := r.nodes[to.Node]
	f := &Frame{Pattern: p, Args: args}
	obj := to.Obj
	e := obj.vftp.lookup(p)
	if e.fn == nil {
		panic(n.notUnderstood(obj, p))
	}
	if e.kind == entryMulti {
		qi := obj.class.queueIndex(p)
		obj.multi.buffer(qi, f)
		if obj.multi.canStart(qi) {
			n.enqueueSched(obj)
		}
		n.node.Wake()
		return
	}
	obj.queue.push(f)
	if n.frameDispatchable(obj, e.kind) {
		n.enqueueSched(obj)
	}
	n.node.Wake()
}

// defaultRemote is installed when no inter-node layer is present: creation
// is local and remote sends are a configuration error.
type defaultRemote struct{}

func (defaultRemote) SendMessage(n *NodeRT, to Address, p PatternID, args []Value, replyTo Address) {
	panic(fmt.Sprintf("core: message to remote node %d but no remote layer installed", to.Node))
}

func (defaultRemote) Create(ctx *Ctx, cl *Class, ctorArgs []Value, k func(*Ctx, Address)) {
	k(ctx, ctx.NewLocal(cl, ctorArgs...))
}
