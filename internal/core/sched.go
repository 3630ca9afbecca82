package core

import (
	"fmt"

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
	maxDepth   int // high-water mark, for reports

	frameFree *Frame // free list of recycled message frames (linked via next)
	ctxFree   []*Ctx // recycled invocation contexts

	// sendScratch stages outgoing remote-send arguments for the interface
	// call into the remote layer. The layer copies what it needs before
	// returning (see Remote.SendMessage), so one reusable buffer suffices
	// and the sender's variadic argument slice never escapes.
	sendScratch []Value

	made int // host Objects this node has carved (Runtime.ObjectsMade)

	// initCtx is the one InitCtx handed to lazy initializers on this node,
	// cleared after each call (a fresh one would escape through cl.Init).
	initCtx InitCtx

	// hosted lists the objects homed on this node in the order this node
	// first touched them — created, initialized or buffered a message for —
	// for checkpoint traversal: a chunk another node seeded joins when its
	// home first sees it, not when it is carved. Populated only when
	// snapshots are enabled (track), keeping the default path untouched.
	hosted []*Object
	track  bool

	C *stats.Counters // the machine node's counters (machine.Node.C)
}

// ID returns the node index.
func (n *NodeRT) ID() int { return n.id }

// MachineNode returns the simulated node this runtime half runs on.
func (n *NodeRT) MachineNode() *machine.Node { return n.node }

// Runtime returns the owning runtime.
func (n *NodeRT) Runtime() *Runtime { return n.rt }

// SchedQueueLen returns the current scheduling-queue length (load metric).
func (n *NodeRT) SchedQueueLen() int { return n.schedQ.len() }

// MaxObservedDepth returns the deepest stack-based invocation nesting seen.
func (n *NodeRT) MaxObservedDepth() int { return n.maxDepth }

// NewFrame returns a message frame from the node's free list (or a fresh
// one), marked for recycling when the invocation it carries completes
// without blocking. Only code running on this node may call it.
func (n *NodeRT) NewFrame(p PatternID, args []Value, replyTo Address) *Frame {
	return n.newFrame(p, args, replyTo, 0)
}

func (n *NodeRT) newFrame(p PatternID, args []Value, replyTo Address, hints SendHint) *Frame {
	f := n.frameFree
	if f == nil {
		f = &Frame{}
	} else {
		n.frameFree = f.next
		f.next = nil
	}
	f.Pattern = p
	f.setArgs(args)
	f.ReplyTo = replyTo
	f.hints = hints
	f.pooled = true
	return f
}

// releaseFrame recycles a pooled frame once its invocation has fully
// completed. Frames saved by blocking paths (now-waits, selective
// reception, yields) are released only when their continuation finishes;
// frames handed to user continuations (awaited messages) are never
// recycled. Non-pooled frames (host injections, tests) are ignored.
func (n *NodeRT) releaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	f.pooled = false
	f.Pattern = 0
	f.Args = nil
	f.argBuf = [2]Value{} // drop any pointers held by inline arguments
	f.ReplyTo = Address{}
	f.hints = 0
	f.next = n.frameFree
	n.frameFree = f
}

// allocState carves a zeroed, capped state-variable slice, so an append
// through one can never bleed into a neighbor's storage.
func (n *NodeRT) allocState(sz int) []Value { return n.rt.values.Slice(sz) }

// newObjectAt carves a zeroed Object homed on node.
func (n *NodeRT) newObjectAt(node int) *Object {
	obj := n.rt.objects.New()
	obj.node = node
	n.made++
	return obj
}

// copyCtorArgs snapshots constructor arguments into the value arena. The
// caller's slice may be a recycled wire record or a stack-resident variadic
// list; the object must own a stable copy until its lazy init consumes it.
func (n *NodeRT) copyCtorArgs(ctorArgs []Value) []Value {
	if len(ctorArgs) == 0 {
		return nil
	}
	ca := n.allocState(len(ctorArgs))
	copy(ca, ctorArgs)
	return ca
}

// acquireCtx returns a recycled invocation context (or a fresh one) bound
// to an (object, frame) pair. Contexts whose invocation completes without
// blocking are recycled by the invoke paths; blocked contexts are dead by
// API contract (a blocking operation must be the method's last action) and
// are left to the garbage collector.
func (n *NodeRT) acquireCtx(obj *Object, f *Frame) *Ctx {
	if len(n.ctxFree) > 0 {
		c := n.ctxFree[len(n.ctxFree)-1]
		n.ctxFree = n.ctxFree[:len(n.ctxFree)-1]
		*c = Ctx{rt: n, self: obj, f: f}
		return c
	}
	return &Ctx{rt: n, self: obj, f: f}
}

func (n *NodeRT) releaseCtx(c *Ctx) {
	*c = Ctx{}
	n.ctxFree = append(n.ctxFree, c)
}

// describe names an object for trace output.
func describe(obj *Object) string {
	if obj == nil {
		return "<nil>"
	}
	if obj.rd != nil {
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
// counted separately from intra-node sends.
func (n *NodeRT) DeliverFrame(obj *Object, f *Frame, remoteIn bool) {
	if obj.node != n.id {
		panic(fmt.Sprintf("core: frame for node %d delivered on node %d", obj.node, n.id))
	}
	if n.rt.policy == PolicyNaive {
		n.naiveDeliver(obj, f, remoteIn)
		return
	}
	e := obj.vftp.lookup(f.Pattern)
	if e.fn == nil {
		panic(n.notUnderstood(obj, f.Pattern))
	}
	path := deliveryPath(e.kind, remoteIn)
	n.node.SetPath(path)
	n.node.Charge(n.cost.LookupCall)
	n.countDelivery(e.kind, remoteIn)
	if np := n.node.Prof(); np != nil {
		n.profDeliver(np, obj, e.kind, path)
	}
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvSend, "%s <- %s (%v mode)", describe(obj), n.rt.Reg.Name(f.Pattern), obj.vftp.Mode)
	}
	e.fn(n, obj, f)
}

// naiveDeliver implements the baseline of Section 6.3: the frame is always
// buffered in the receiver's message queue and the receiver is scheduled
// through the node scheduling queue when it is dispatchable.
func (n *NodeRT) naiveDeliver(obj *Object, f *Frame, remoteIn bool) {
	e := obj.vftp.lookup(f.Pattern)
	if e.fn == nil {
		panic(n.notUnderstood(obj, f.Pattern))
	}
	path := deliveryPath(e.kind, remoteIn)
	n.node.SetPath(path)
	n.node.Charge(n.cost.LookupCall)
	n.countDelivery(e.kind, remoteIn)
	if np := n.node.Prof(); np != nil {
		n.profDeliver(np, obj, e.kind, path)
	}
	if e.kind == entryMulti {
		// Multiactive receivers buffer into their group ready queues even
		// under the naive policy; the scheduler performs the compatibility
		// check at dispatch time.
		qi := obj.class.queueIndex(f.Pattern)
		n.node.Charge(n.cost.GroupCheck + n.cost.FrameAlloc + n.cost.StoreMessage +
			n.cost.EnqueueMsgQ)
		obj.multi.buffer(qi, f)
		n.C.MultiParked++
		if np := n.node.Prof(); np != nil {
			np.GroupEvent(obj.class.profGroupID(qi), profile.GroupParked)
		}
		if obj.multi.canStart(qi) {
			n.enqueueSched(obj)
		}
		return
	}
	n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ)
	obj.queue.push(f)
	if n.frameDispatchable(obj, e.kind) {
		n.enqueueSched(obj)
	}
}

// countDelivery classifies the delivery for statistics by the entry kind the
// receiver's current table holds, i.e. by receiver mode.
func (n *NodeRT) countDelivery(k EntryKind, remoteIn bool) {
	if remoteIn {
		n.C.RemoteDelivers++
		return
	}
	switch k {
	case entryBody, entryInit:
		n.C.LocalToDormant++
	case entryQueue:
		n.C.LocalToActive++
	case entryRestore:
		n.C.LocalRestores++
	case entryMulti:
		n.C.LocalToMulti++
	case entryFault:
		// counted by faultEntry
	case entryNative:
		// reply deliveries counted by replyEntry
	}
}

// deliveryPath maps a dispatch to its attribution path by the receiver's
// current-table entry kind — i.e. by receiver mode, mirroring countDelivery.
func deliveryPath(k EntryKind, remoteIn bool) profile.Path {
	if remoteIn {
		return profile.RemoteRecv
	}
	switch k {
	case entryBody, entryInit:
		return profile.LocalDormant
	case entryQueue:
		return profile.LocalActive
	case entryRestore:
		return profile.Restore
	case entryMulti:
		return profile.Multi
	case entryNative:
		return profile.NowBlocked
	case entryFault:
		return profile.Create
	case entryForward:
		return profile.Forward
	}
	return profile.Other
}

// profDeliver records one delivery in the profiler: an event on the path and,
// when class attribution is on, a per-class mode count. Reply deliveries
// (entryNative) are not counted as events — the now-send already counted the
// round trip — so their instructions fold into the per-now-send cost.
func (n *NodeRT) profDeliver(np *profile.NodeProf, obj *Object, k EntryKind, p profile.Path) {
	if p != profile.NowBlocked {
		np.CountEvent(p, n.node.Now())
	}
	if obj.class == nil {
		return
	}
	switch k {
	case entryBody, entryInit:
		np.ClassDeliver(obj.class.id, profile.DeliverDormant)
	case entryQueue:
		np.ClassDeliver(obj.class.id, profile.DeliverActive)
	case entryRestore:
		np.ClassDeliver(obj.class.id, profile.DeliverRestore)
	case entryMulti:
		np.ClassDeliver(obj.class.id, profile.DeliverMulti)
	}
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
	case entryBody, entryInit, entryRestore, entryNative, entryForward:
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
	// dequeue charge: saved continuations and waiting objects are context
	// restorations; everything else is a queued (active-mode) dispatch.
	switch {
	case obj.resumeK != nil || obj.wait != nil:
		n.node.SetPath(profile.Restore)
	case obj.multi != nil:
		if len(obj.multi.resume) > 0 {
			n.node.SetPath(profile.Restore)
		} else {
			n.node.SetPath(profile.Multi)
		}
	default:
		n.node.SetPath(profile.LocalActive)
	}
	n.node.Charge(n.cost.DequeueDispatch)
	n.C.SchedDequeues++
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvDispatch, "%s", describe(obj))
	}

	switch {
	case obj.resumeK != nil:
		// A preempted or yielded continuation.
		k, f := obj.resumeK, obj.resumeF
		obj.resumeK, obj.resumeF = nil, nil
		n.node.Charge(n.cost.RestoreContext)
		n.runCont(obj, f, k)

	case obj.wait != nil:
		// A waiting object scheduled because an awaited message was
		// buffered (naive policy, or a depth-deferred restoration).
		ws := obj.wait
		f := obj.queue.popMatchingPats(ws.pats)
		if f == nil {
			break // parked again; a future awaited arrival reschedules
		}
		obj.wait = nil
		n.node.Charge(n.cost.RestoreContext + n.cost.SwitchVFTPActive)
		obj.vftp = obj.class.active
		n.runCont(obj, ws.frame, func(ctx *Ctx) { ws.k(ctx, f) })

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
		e := obj.vftp.lookup(f.Pattern)
		switch e.kind {
		case entryQueue:
			// Parked active object: the scheduling item's continuation
			// invokes the method body for the buffered message directly.
			n.invokeBody(obj, f, obj.class.body(f.Pattern))
		case entryFault:
			panic("core: uninitialized chunk reached the scheduling queue")
		case entryNone:
			panic(n.notUnderstood(obj, f.Pattern))
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
	if np := n.node.Prof(); np != nil {
		np.QueueDepth(n.schedQ.len(), n.node.Now())
	}
	if n.rt.Tracing() {
		n.rt.Tracef(n.node.Now(), n.id, trace.EvSchedule, "%s (queue %d)", describe(obj), obj.queue.len())
	}
	n.node.Wake()
}

// invokeBody runs a method body on the current stack: the object enters
// active mode for the duration; at completion the message queue is checked
// and the object either returns to dormant mode or re-enqueues itself.
func (n *NodeRT) invokeBody(obj *Object, f *Frame, body MethodFunc) {
	prevPath := n.node.Path() // nested sends inside the body overwrite the register
	wasRunning := obj.running // nested multiactive invocations stack
	obj.running = true
	n.stackDepth++
	if n.stackDepth > n.maxDepth {
		n.maxDepth = n.stackDepth
	}
	ctx := n.acquireCtx(obj, f)
	body(ctx)
	n.stackDepth--
	obj.running = wasRunning
	n.node.SetPath(prevPath)
	h := f.hints
	if h&HintLeafMethod != 0 && (ctx.acted || ctx.blocked) {
		panic("core: HintLeafMethod violated: the method sent, created, blocked, or yielded")
	}
	if !ctx.blocked {
		if obj.multi != nil {
			n.multiMethodEnd(obj, f)
		} else {
			n.methodEndHinted(obj, h)
		}
		n.releaseFrame(f)
		n.releaseCtx(ctx)
	}
	if h&HintNoPoll == 0 {
		n.node.Charge(n.cost.PollRemote)
	}
	n.node.Charge(n.cost.StackReturn)
}

// runCont resumes a saved continuation (context restoration): like
// invokeBody but without the poll/return epilogue of a fresh invocation.
func (n *NodeRT) runCont(obj *Object, frame *Frame, k func(*Ctx)) {
	prevPath := n.node.Path()
	wasRunning := obj.running
	obj.running = true
	n.stackDepth++
	if n.stackDepth > n.maxDepth {
		n.maxDepth = n.stackDepth
	}
	ctx := n.acquireCtx(obj, frame)
	k(ctx)
	n.stackDepth--
	obj.running = wasRunning
	n.node.SetPath(prevPath)
	if !ctx.blocked {
		if obj.multi != nil {
			n.multiMethodEnd(obj, frame)
		} else {
			n.methodEnd(obj)
		}
		n.releaseFrame(frame)
		n.releaseCtx(ctx)
	}
	n.node.Charge(n.cost.StackReturn)
}

// methodEnd implements the paper's method-completion protocol: check the
// message queue; if empty return to dormant mode, otherwise enqueue the
// object on the scheduling queue (it stays in active mode so further
// messages keep buffering).
func (n *NodeRT) methodEnd(obj *Object) { n.methodEndHinted(obj, 0) }

func (n *NodeRT) methodEndHinted(obj *Object, h SendHint) {
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
		n.invokeBody(obj, f, cl.methods[p])
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
		if cl.Init != nil {
			n.initCtx = InitCtx{obj: obj, args: obj.ctorArgs}
			cl.Init(&n.initCtx)
			n.initCtx = InitCtx{}
		}
		obj.ctorArgs = nil
		tbl := cl.dormant
		if cl.multiTable != nil {
			tbl = cl.multiTable
		}
		obj.vftp = tbl
		tbl.entries[p].fn(n, obj, f)
	}
}

// makeRestoreEntry builds a waiting-table entry for an awaited pattern: it
// restores the saved context and continues the blocked method with the
// arrived message.
func makeRestoreEntry(p PatternID) entryFunc {
	return func(n *NodeRT, obj *Object, f *Frame) {
		ws := obj.wait
		if ws == nil {
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
		obj.wait = nil
		n.node.Charge(n.cost.RestoreContext + n.cost.SwitchVFTPActive)
		obj.vftp = obj.class.active
		n.runCont(obj, ws.frame, func(ctx *Ctx) { ws.k(ctx, f) })
	}
}
