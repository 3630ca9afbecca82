package core

import "unsafe"

// Object is a concurrent object as in Figure 2 of the paper: a state
// variable box, a message queue, and a virtual function table pointer
// (VFTP) designating the table for its current mode. Every object ever
// created keeps one, so it is one 64-byte cache line on a 64-bit host: what
// only some objects need sits behind a pointer or in a record of its own.
type Object struct {
	class *Class
	vftp  *VFT

	// state is the object's one value-arena box: class.StateSize state
	// variables, then the nctor constructor arguments held until lazy
	// initialization consumes them.
	state *Value

	// saved is the saved context a serial object is parked on: a yielded
	// invocation, a reply continuation deferred because the stack was deep
	// or a creation its reply resumed — the scheduling-queue item's
	// "continuation address" — or, in waiting mode, a selective reception's
	// context (SavedContext.waiting). A serial object has at most one live
	// invocation, so never both.
	saved *SavedContext

	// multi is non-nil for objects of multiactive classes: live-invocation
	// counts, per-group ready queues, and deferred continuations.
	multi *multiState

	queue frameQueue

	node     uint16 // home node (machine.MaxNodes fits)
	nctor    uint16 // constructor arguments held after the state variables
	inSchedQ bool
	running  bool // a method invocation is live on the stack
	tracked  bool // on its home's checkpoint list (NodeRT.hosted)
	reply    bool // a reply destination: the Object of a replyDest
}

// Class returns the object's class (nil for an uninitialized chunk).
func (o *Object) Class() *Class { return o.class }

// NodeID returns the ID of the node the object lives on.
func (o *Object) NodeID() int { return int(o.node) }

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
func (o *Object) Addr() Address { return Address{Node: int(o.node), Obj: o} }

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
func (o *Object) State(i int) Value { return o.vars()[i] }

// vars returns the state variables.
func (o *Object) vars() []Value {
	if o.class == nil {
		return nil
	}
	return unsafe.Slice(o.state, o.class.StateSize)
}

// ctorArgs returns the constructor arguments still held.
func (o *Object) ctorArgs() []Value {
	if o.nctor == 0 {
		return nil
	}
	sz := o.class.StateSize
	return unsafe.Slice(o.state, sz+int(o.nctor))[sz:]
}
