package core

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NodeRT is the per-node half of the runtime: it owns the node-wide
// scheduling queue and implements message dispatch for objects on its node.
// It is the machine.Runner for its node, so the simulator drives it one
// scheduling quantum at a time.
type NodeRT struct {
	rt   *Runtime
	id   int
	node *machine.Node
	cost *machine.Cost

	schedQ     schedQueue
	stackDepth int

	// hosted lists the objects homed on this node in the order this node
	// first touched them — created, initialized or buffered a message for —
	// for checkpoint traversal: a chunk another node seeded joins when its
	// home first sees it, not when it is carved. Populated only when
	// snapshots are enabled (track), keeping the default path untouched.
	hosted []*Object
	track  bool

	C *stats.Counters // the machine's one counter record (machine.Machine.C)
}

// ID returns the node index.
func (n *NodeRT) ID() int { return n.id }

// MachineNode returns the simulated node this runtime half runs on.
func (n *NodeRT) MachineNode() *machine.Node { return n.node }

// SchedQueueLen returns the current scheduling-queue length (load metric).
func (n *NodeRT) SchedQueueLen() int { return n.schedQ.len() }

// NewFrame returns a zeroed frame from the runtime's pool, marked for
// recycling when the invocation it carries completes without blocking. The
// inter-node layer takes its wire records here.
func (n *NodeRT) NewFrame() *Frame {
	r := n.rt
	f := r.frameFree
	if f == nil {
		f = r.frames.New()
	} else {
		r.frameFree = f.link()
		f.setLink(nil)
	}
	f.pooled = true
	return f
}

// ReleaseFrame recycles a pooled frame once its invocation has fully
// completed, or a wire record its handler is done with. Frames saved by
// blocking paths (now-waits, selective reception, yields) are released when
// their continuation finishes; a frame handed to a user continuation (an
// awaited message) when that continuation returns. Non-pooled frames (host
// injections, tests, records held for checkpoint replay) are ignored.
func (n *NodeRT) ReleaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	*f = Frame{} // drop every pointer the frame held
	f.setLink(n.rt.frameFree)
	n.rt.frameFree = f
}

// newObjectAt carves a zeroed Object homed on node.
func (n *NodeRT) newObjectAt(node int) *Object {
	return n.initObject(n.rt.objects.New(), node)
}

// initObject homes a freshly carved object on node and counts it.
func (n *NodeRT) initObject(obj *Object, node int) *Object {
	obj.node = uint16(node)
	n.rt.made++
	return obj
}

// setClass gives a class-less object its class and its value box: the
// class's state variables, zeroed, then a copy of the constructor arguments,
// carved as one slice of the value arena. The caller's slice may be a
// recycled wire record or a stack-resident variadic list; the object owns a
// stable copy until its lazy init consumes it.
func (n *NodeRT) setClass(obj *Object, cl *Class, ctorArgs []Value) {
	if len(ctorArgs) > math.MaxUint16 {
		panic(fmt.Sprintf("core: class %s: %d constructor arguments overflow an object", cl.Name, len(ctorArgs)))
	}
	obj.class = cl
	obj.nctor = uint16(len(ctorArgs))
	if sz := cl.StateSize + len(ctorArgs); sz > 0 {
		box := n.rt.values.Slice(sz)
		copy(box[cl.StateSize:], ctorArgs)
		obj.state = &box[0]
	}
}

// acquireCtx returns a recycled invocation context (or a fresh one) bound
// to an (object, frame) pair. invoke recycles every context when its body
// returns, blocked or not: a blocked context is dead by API contract (a
// blocking operation must be the method's last action), and each blocking
// operation saves the object, frame and continuation it needs, never the
// context, so the continuation runs on a context of its own. A continuation
// must therefore use the context it is handed, never the one of the
// invocation that blocked. The free list holds at most one context per
// level of the deepest stack.
func (n *NodeRT) acquireCtx(obj *Object, f *Frame) *Ctx {
	r := n.rt
	if k := len(r.ctxFree); k > 0 {
		c := r.ctxFree[k-1]
		r.ctxFree = r.ctxFree[:k-1]
		*c = Ctx{rt: n, self: obj, f: f}
		return c
	}
	r.ctxMade++
	return &Ctx{rt: n, self: obj, f: f}
}

func (n *NodeRT) releaseCtx(c *Ctx) {
	*c = Ctx{}
	n.rt.ctxFree = append(n.rt.ctxFree, c)
}

// describe names an object for trace output.
func describe(obj *Object) string {
	if obj == nil {
		return "<nil>"
	}
	if obj.reply {
		return "replydest"
	}
	if obj.class == nil {
		return "chunk"
	}
	return obj.class.Name
}

// Send performs a full message send: locality check, then either local
// dispatch through the receiver's virtual function table or hand-off to the
// inter-node layer (Section 4.2's send path).
func (n *NodeRT) Send(to Address, p PatternID, args []Value, replyTo Address) {
	n.sendHinted(to, p, args, replyTo, 0)
}

// DeliverFrame dispatches a frame addressed to a local object. remoteIn
// marks frames arriving from the network (category-1 handlers), which are
// counted separately from intra-node sends. Under the stack-based policy the
// frame goes to the receiver's current-table entry; under the naive baseline
// of Section 6.3 it is always parked and the receiver scheduled through the
// node scheduling queue.
func (n *NodeRT) DeliverFrame(obj *Object, f *Frame, remoteIn bool) {
	if int(obj.node) != n.id {
		panic(fmt.Sprintf("core: frame for node %d delivered on node %d", obj.node, n.id))
	}
	e := n.lookup(obj, f.Pattern)
	d := deliveries[e.kind]
	if remoteIn {
		d.path, d.event = profile.RemoteRecv, true
	}
	n.node.SetPath(d.path)
	n.node.Charge(n.cost.LookupCall)
	if d.event {
		n.node.Count(d.path)
	}
	if d.class >= 0 {
		n.rt.M.Counts().Classes[obj.class.id].Deliv[d.class]++
	}
	if n.rt.policy == PolicyNaive {
		instr := n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ
		if e.kind == entryMulti {
			// The scheduler performs the compatibility check at dispatch.
			instr += n.cost.GroupCheck
			n.C.MultiParked++
		}
		n.node.Charge(instr)
		n.park(obj, f, e.kind)
		return
	}
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvSend, "%s <- %s (%v mode)", describe(obj), n.rt.Reg.Name(f.Pattern), obj.vftp.Mode)
	}
	e.fn(n, obj, f)
}

// lookup returns obj's current-table entry for p; a pattern the receiver
// does not understand panics.
func (n *NodeRT) lookup(obj *Object, p PatternID) entry {
	e := obj.vftp.lookup(p)
	if e.fn == nil {
		panic(n.notUnderstood(obj, p))
	}
	return e
}

// park buffers a frame whose current-table entry has kind k and schedules
// the receiver when the frame can run: a multiactive receiver buffers into
// its group ready queue and is scheduled when the group can start; any
// other buffers into its message queue.
func (n *NodeRT) park(obj *Object, f *Frame, k EntryKind) {
	if k == entryMulti {
		qi := obj.class.queueIndex(f.Pattern)
		obj.multi.buffer(qi, f)
		if obj.multi.canStart(qi) {
			n.enqueueSched(obj)
		}
		return
	}
	obj.queue.push(f)
	if n.frameDispatchable(obj, k) {
		n.enqueueSched(obj)
	}
}

// deliveries is the one classification of a delivery, by the entry kind the
// receiver's current table holds, i.e. by receiver mode: the path it is
// charged and counted to, whether it counts as an event there, and the
// class row's delivery mode (-1: none, the receiver has no class). A
// delivery from the network is a remote-recv event whatever the kind. A
// reply (entryNative) is no event: the now-send already counted the round
// trip, so its instructions fold into the per-now-send cost. A delivery to
// an uninitialized chunk (entryFault) is charged to create but is no event:
// the creation itself is the event, counted where it is requested.
var deliveries = [...]struct {
	path  profile.Path
	event bool
	class int8
}{
	entryNone:    {profile.Other, false, -1},
	entryBody:    {profile.LocalDormant, true, profile.DeliverDormant},
	entryInit:    {profile.LocalDormant, true, profile.DeliverDormant},
	entryQueue:   {profile.LocalActive, true, profile.DeliverActive},
	entryRestore: {profile.Restore, true, profile.DeliverRestore},
	entryMulti:   {profile.Multi, true, profile.DeliverMulti},
	entryNative:  {profile.NowBlocked, false, -1},
	entryFault:   {profile.Create, false, -1},
}

// frameDispatchable reports whether an object that just buffered a frame
// whose current-table entry has the given kind should be placed on the
// scheduling queue. Running objects and objects already scheduled are
// handled at method end; queue-kind receivers are blocked or parked and are
// woken by their own resume paths.
func (n *NodeRT) frameDispatchable(obj *Object, k EntryKind) bool {
	if obj.running || obj.inSchedQ {
		return false
	}
	switch k {
	case entryBody, entryInit, entryRestore, entryNative:
		return true
	default:
		return false
	}
}

func (n *NodeRT) notUnderstood(obj *Object, p PatternID) string {
	cls := "<uninitialized>"
	if obj.class != nil {
		cls = obj.class.Name
	}
	return fmt.Sprintf("core: class %s does not understand pattern %s (node %d)",
		cls, n.rt.Reg.Name(p), n.id)
}

// Step is the machine.Runner quantum: dequeue one scheduling-queue item and
// run its continuation — either a saved context or the dispatch of the first
// buffered message (Section 4.3).
func (n *NodeRT) Step() bool {
	obj := n.schedQ.pop()
	if obj == nil {
		return false
	}
	obj.inSchedQ = false
	// Classify the dispatch for attribution by pure inspection before the
	// dequeue charge: saved continuations (a multiactive object's too) and
	// waiting objects are context restorations; everything else, a
	// multiactive object's parked frame included, is a queued (active-mode)
	// dispatch.
	path := profile.LocalActive
	if obj.saved != nil || obj.multi != nil && len(obj.multi.resume) > 0 {
		path = profile.Restore
	}
	n.node.SetPath(path)
	n.node.Charge(n.cost.DequeueDispatch)
	n.C.SchedDequeues++
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvDispatch, "%s", describe(obj))
	}

	switch s := obj.saved; {
	case s != nil && !s.waiting():
		// A saved context: yielded, deferred or a resumed creation.
		obj.saved = nil
		n.restoreContext(s)

	case s != nil:
		// A waiting object scheduled because an awaited message was
		// buffered (naive policy, or a depth-deferred restoration). With
		// none buffered it stays parked until an awaited arrival.
		if f := obj.queue.popMatchingPats(s.pats); f != nil {
			n.restoreWait(obj, f)
		}

	default:
		f := obj.queue.pop()
		if f == nil {
			if obj.multi != nil {
				// Multiactive objects park work in their group ready queues,
				// not the serial message queue.
				n.multiDispatch(obj)
			}
			break // serial: spurious wakeup; nothing to do
		}
		e := n.lookup(obj, f.Pattern)
		switch e.kind {
		case entryQueue:
			// Parked active object: the scheduling item's continuation
			// invokes the method body for the buffered message directly.
			n.invoke(obj, f, obj.class.body(f.Pattern), true)
		case entryFault:
			panic("core: uninitialized chunk reached the scheduling queue")
		default:
			e.fn(n, obj, f)
			if obj.multi != nil {
				// Pre-initialization frames of a multiactive object drain
				// through the serial queue; keep draining (and pick up any
				// parked ready frames) until both are empty.
				n.multiReschedule(obj)
			}
		}
	}
	return !n.schedQ.empty()
}

// enqueueSched places obj on the node scheduling queue (once) and wakes the
// node.
func (n *NodeRT) enqueueSched(obj *Object) {
	if obj.inSchedQ {
		return
	}
	n.node.Charge(n.cost.EnqueueSchedQ)
	obj.inSchedQ = true
	n.schedQ.push(obj)
	n.C.SchedEnqueues++
	n.node.QueueDepth(n.schedQ.len())
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvSchedule, "%s (queue %d)", describe(obj), obj.queue.len())
	}
	n.node.Wake()
}

// invoke runs an invocation on the current stack: k is the method body of
// a fresh invocation (fresh) or a restored context's continuation. The
// object is active for the duration; at completion the message queue is
// checked and the object either returns to dormant mode or re-enqueues
// itself. Only a fresh invocation honours its send site's hints and pays the
// poll of the return path.
func (n *NodeRT) invoke(obj *Object, f *Frame, k func(*Ctx), fresh bool) {
	prevPath := n.node.Path() // nested sends inside the body overwrite the register
	wasRunning := obj.running // nested multiactive invocations stack
	obj.running = true
	n.stackDepth++
	ctx := n.acquireCtx(obj, f)
	k(ctx)
	n.stackDepth--
	obj.running = wasRunning
	n.node.SetPath(prevPath)
	var h SendHint
	if fresh {
		h = f.hints
	}
	if h&HintLeafMethod != 0 && (ctx.acted || ctx.blocked) {
		panic("core: HintLeafMethod violated: the method sent, created, blocked, or yielded")
	}
	if !ctx.blocked {
		if obj.multi != nil {
			n.multiMethodEnd(obj, f)
		} else {
			n.methodEnd(obj, h)
		}
		n.ReleaseFrame(f)
	}
	n.releaseCtx(ctx)
	if fresh && h&HintNoPoll == 0 {
		n.node.Charge(n.cost.PollRemote)
	}
	n.node.Charge(n.cost.StackReturn)
}

// restoreWait restores a waiting object's saved context and continues the
// blocked method with the awaited frame f, which is recycled once the
// continuation returns (Ctx.WaitFor). The context's record returns to the
// free list first.
func (n *NodeRT) restoreWait(obj *Object, f *Frame) {
	s := obj.saved
	obj.saved = nil
	frame, k := s.frame, s.kw
	n.freeSaved(s)
	n.node.Charge(n.cost.RestoreContext + n.cost.SwitchVFTPActive)
	obj.vftp = obj.class.active
	n.invoke(obj, frame, func(ctx *Ctx) { k(ctx, f) }, false)
	n.ReleaseFrame(f)
}

// methodEnd implements the paper's method-completion protocol: check the
// message queue; if empty return to dormant mode, otherwise enqueue the
// object on the scheduling queue (it stays in active mode so further
// messages keep buffering). h holds the hints of a fresh invocation's send
// site.
func (n *NodeRT) methodEnd(obj *Object, h SendHint) {
	if h&HintNoQueueCheck == 0 {
		n.node.Charge(n.cost.CheckMsgQueue)
	}
	if obj.queue.empty() {
		if h&HintLeafMethod == 0 {
			n.node.Charge(n.cost.SwitchVFTPDormant)
		}
		obj.vftp = obj.class.dormant
		return
	}
	n.enqueueSched(obj)
}

// makeDormantEntry builds the dormant-table entry for a pattern: the method
// body itself, invoked immediately on the sender's stack — unless the stack
// is too deep, in which case the runtime preempts to the scheduling queue.
func makeDormantEntry(cl *Class, p PatternID) entryFunc {
	return func(n *NodeRT, obj *Object, f *Frame) {
		if n.stackDepth >= n.rt.maxStackDepth {
			n.C.Preemptions++
			n.node.SetPath(profile.Sched)
			n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ +
				n.cost.SwitchVFTPActive)
			obj.vftp = cl.active
			obj.queue.push(f)
			n.enqueueSched(obj)
			return
		}
		if f.hints&HintLeafMethod == 0 {
			n.node.Charge(n.cost.SwitchVFTPActive)
		}
		obj.vftp = cl.active
		n.invoke(obj, f, cl.methods[p], true)
	}
}

// queueEntry is the tiny queuing procedure of the active-mode table: it
// allocates a heap frame, stores the message and links it into the
// receiver's message queue, then returns to the sender.
func queueEntry(n *NodeRT, obj *Object, f *Frame) {
	n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ)
	obj.queue.push(f)
}

// faultEntry is the generic fault table's queuing procedure for
// uninitialized chunks; it works for any class because queuing procedures
// are class-independent (Section 5.2).
func faultEntry(n *NodeRT, obj *Object, f *Frame) {
	n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ +
		n.cost.FaultEnqueue)
	n.C.FaultBuffered++
	n.rt.trackObject(n.id, obj)
	obj.queue.push(f)
}

// makeInitEntry builds the lazy-initialization entry: initialize state
// variables from the constructor arguments, switch to the dormant table,
// then invoke the method body for the triggering message.
func makeInitEntry(cl *Class, p PatternID) entryFunc {
	return func(n *NodeRT, obj *Object, f *Frame) {
		n.node.Charge(n.cost.InitObject)
		args := obj.ctorArgs()
		if cl.Init != nil {
			ic := &n.rt.initCtx
			*ic = InitCtx{obj: obj, args: args}
			cl.Init(ic)
			*ic = InitCtx{}
		}
		clear(args)
		obj.nctor = 0
		tbl := cl.dormant
		if cl.multiTable != nil {
			tbl = cl.multiTable
		}
		obj.vftp = tbl
		tbl.entries[p].fn(n, obj, f)
	}
}

// restoreEntry is the waiting-table entry of an awaited pattern: it
// restores the saved context and continues the blocked method with the
// arrived message.
func restoreEntry(n *NodeRT, obj *Object, f *Frame) {
	if obj.saved == nil || !obj.saved.waiting() {
		panic("core: context restoration without wait state")
	}
	if n.stackDepth >= n.rt.maxStackDepth {
		// Defer the restoration through the scheduling queue.
		n.C.Preemptions++
		n.node.SetPath(profile.Sched)
		n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ)
		obj.queue.push(f)
		n.enqueueSched(obj)
		return
	}
	n.restoreWait(obj, f)
}
