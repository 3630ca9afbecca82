package core

// Object is a concurrent object as in Figure 2 of the paper: a state
// variable box, a message queue, and a virtual function table pointer
// (VFTP) designating the table for its current mode.
type Object struct {
	class *Class
	node  int

	// multi is non-nil for objects of multiactive classes: live-invocation
	// counts, per-group ready queues, and deferred continuations.
	multi *multiState

	// rd is non-nil for reply destination objects.
	rd *replyState

	vftp     *VFT
	queue    frameQueue
	ctorArgs []Value // held until lazy initialization

	inSchedQ bool
	running  bool // a method invocation is live on the stack
	tracked  bool // on its home's checkpoint list (NodeRT.hosted)

	// wait holds the saved selective-reception context while in waiting
	// mode: the continuation plus the frame of the blocked invocation.
	wait *waitState

	// resume is a saved context parked for the scheduling queue: a yielded
	// invocation, a reply continuation deferred because the stack was deep,
	// or a creation its reply resumed. The scheduling-queue item's
	// "continuation address".
	resume *SavedContext

	state []Value
}

type waitState struct {
	pats  []PatternID
	k     func(*Ctx, *Frame)
	frame *Frame // the invocation frame whose context was saved
}

// Class returns the object's class (nil for an uninitialized chunk).
func (o *Object) Class() *Class { return o.class }

// NodeID returns the ID of the node the object lives on.
func (o *Object) NodeID() int { return o.node }

// Mode returns the object's current mode per its VFTP. For objects created
// before the runtime froze (no tables yet) the initial mode is derived from
// the class.
func (o *Object) Mode() Mode {
	if o.vftp == nil {
		switch {
		case o.class == nil:
			return ModeUninit
		case o.class.Init != nil:
			return ModeNeedInit
		case o.class.Multiactive():
			return ModeMultiactive
		default:
			return ModeDormant
		}
	}
	return o.vftp.Mode
}

// Addr returns the object's mail address.
func (o *Object) Addr() Address { return Address{Node: o.node, Obj: o} }

// QueueLen returns the number of buffered messages.
func (o *Object) QueueLen() int { return o.queue.len() }

// ReadyLen returns the number of frames parked in the multiactive ready
// queues (zero for serial objects).
func (o *Object) ReadyLen() int {
	if o.multi == nil {
		return 0
	}
	return o.multi.readyN
}

// LiveInvocations returns the number of live (running or blocked)
// invocations on a multiactive object (zero for serial objects).
func (o *Object) LiveInvocations() int {
	if o.multi == nil {
		return 0
	}
	return o.multi.totalLive
}

// State reads state variable i directly; intended for tests and drivers
// inspecting a quiescent system, not for method bodies (use Ctx.State).
func (o *Object) State(i int) Value { return o.state[i] }
