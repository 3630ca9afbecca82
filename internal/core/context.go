package core

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
)

// Ctx is the execution context of one method invocation (or restored
// continuation). Method bodies receive a Ctx and perform the five basic
// actions of Section 2.2 through it: message sends (past and now type),
// object creation, state access, selective reception, and computation
// (modelled by Charge).
//
// Operations that may block take an explicit continuation; after a blocking
// operation the method body must return without performing further actions
// (the runtime enforces this).
type Ctx struct {
	rt      *NodeRT
	self    *Object
	f       *Frame
	blocked bool
	acted   bool // any send/create/block occurred (validates HintLeafMethod)
}

// Self returns the mail address of the executing object.
func (c *Ctx) Self() Address { return c.self.Addr() }

// NodeID returns the node the method is executing on.
func (c *Ctx) NodeID() int { return c.rt.id }

// Nodes returns the machine's node count.
func (c *Ctx) Nodes() int { return c.rt.rt.Nodes() }

// Now returns the node's current virtual time.
func (c *Ctx) Now() sim.Time { return c.rt.node.Now() }

// Pattern returns the pattern of the message being processed.
func (c *Ctx) Pattern() PatternID { return c.f.Pattern }

// Arg returns the i'th message argument (Nil when out of range).
func (c *Ctx) Arg(i int) Value { return c.f.Arg(i) }

// NumArgs returns the message's argument count.
func (c *Ctx) NumArgs() int { return int(c.f.nargs) }

// State reads state variable i.
func (c *Ctx) State(i int) Value { return c.self.vars()[i] }

// SetState writes state variable i.
func (c *Ctx) SetState(i int, v Value) { c.self.vars()[i] = v }

// Charge models computation: it advances the node clock by instr
// instructions (standard operations, Section 2.2 item 5).
func (c *Ctx) Charge(instr int) {
	c.checkLive("Charge")
	n := c.rt
	n.node.ChargeTo(profile.Body, instr)
	if c.self.class != nil {
		n.rt.M.Counts().Classes[c.self.class.id].Body += uint64(instr)
	}
}

// SendPast sends an asynchronous no-wait message ([Target <= Msg]).
func (c *Ctx) SendPast(to Address, p PatternID, args ...Value) {
	c.checkLive("SendPast")
	c.acted = true
	c.rt.Send(to, p, args, NilAddress)
}

// SendWithReply sends a message carrying an explicit reply destination.
// This is how reply destinations are passed to other objects so that
// "reply messages are not necessarily sent by the original receiver"
// (Section 2.2) — delegation of the reply.
func (c *Ctx) SendWithReply(to Address, p PatternID, args []Value, replyTo Address) {
	c.checkLive("SendWithReply")
	c.acted = true
	c.rt.Send(to, p, args, replyTo)
}

// ReplyTo returns the reply destination of the message being processed
// (nil address for past-type messages). It is a first-class address.
func (c *Ctx) ReplyTo() Address { return c.f.ReplyTo() }

// Reply sends v to the current message's reply destination. For past-type
// messages (no destination) it is a no-op.
func (c *Ctx) Reply(v Value) {
	c.checkLive("Reply")
	c.acted = true
	if c.f.replyTo == nil {
		return
	}
	c.rt.Send(c.f.ReplyTo(), c.rt.rt.PatReply, []Value{v}, NilAddress)
}

// SendNow sends an asynchronous message and waits for the reply
// ([Target <== Msg]). A reply destination object is created and its address
// travels with the message. After the send, the reply destination is
// checked: if the reply has already arrived — the usual case for intra-node
// sends under stack-based scheduling — k continues immediately on the
// current stack with no unwinding. Otherwise the context is saved into a
// heap frame and the object blocks until the reply destination resumes it.
func (c *Ctx) SendNow(to Address, p PatternID, args []Value, k func(*Ctx, Value)) {
	c.checkLive("SendNow")
	c.acted = true
	n := c.rt
	prev := n.node.SetPath(profile.NowBlocked)
	n.node.Charge(n.cost.ReplyDestAlloc)
	n.node.Count(profile.NowBlocked)
	rd := n.newReplyDest()
	n.Send(to, p, args, rd.Addr())
	// The nested dispatch above may have overwritten the register.
	n.node.SetPath(profile.NowBlocked)
	n.node.Charge(n.cost.ReplyCheck)
	st := rd.replyState()
	if st.arrived && !st.consumed {
		st.consumed = true
		n.node.SetPath(prev)
		k(c, st.value)
		return
	}
	n.C.NowBlocked++
	n.C.HeapFrames++
	n.node.Charge(n.cost.SaveContext)
	st.waiterObj = c.self
	st.waiterK = k
	st.waiterF = c.f
	c.blocked = true
	n.node.SetPath(prev)
}

// WaitFor is selective message reception: the object waits for the first
// message matching one of the awaited patterns and continues with k. The
// message queue is scanned first; if an awaited message is already buffered
// the object does not block. Otherwise the context is saved, the VFTP is
// switched to the waiting-mode table whose awaited entries restore the
// context, and the method returns. The awaited frame f and f.Args() are
// valid until k returns: the frame is recycled then, so a continuation that
// k leaves behind (a later SendNow, WaitFor, Create or Yield) must copy what
// it needs of f first.
func (c *Ctx) WaitFor(k func(*Ctx, *Frame), pats ...PatternID) {
	c.checkLive("WaitFor")
	c.acted = true
	if len(pats) == 0 {
		panic("core: WaitFor with empty pattern set")
	}
	if c.self.multi != nil {
		// Selective reception relies on the serial message queue and the
		// waiting-mode table switch; a multiactive object has neither.
		panic(fmt.Sprintf("core: WaitFor on multiactive class %s: selective reception requires serial semantics",
			c.self.class.Name))
	}
	n := c.rt
	prev := n.node.SetPath(profile.Restore)
	n.node.Charge(n.cost.CheckMsgQueue)
	if f := c.self.queue.popMatchingPats(pats); f != nil {
		n.C.WaitFast++
		n.node.SetPath(prev)
		k(c, f)
		n.ReleaseFrame(f)
		return
	}
	n.C.WaitBlocked++
	n.C.HeapFrames++
	n.node.Charge(n.cost.SaveContext + n.cost.SwitchVFTPWait)
	c.self.saved = n.saveWait(c.self, c.f, k, pats)
	c.self.vftp = c.self.class.waitingVFT(pats)
	c.blocked = true
	n.node.SetPath(prev)
}

// NewLocal creates an object of class cl on this node (local create,
// Section 2.5). State variables are initialized lazily on first message.
func (c *Ctx) NewLocal(cl *Class, ctorArgs ...Value) Address {
	c.checkLive("NewLocal")
	c.acted = true
	n := c.rt
	n.node.ChargeTo(profile.Create, n.cost.CreateLocal)
	n.node.Count(profile.Create)
	return n.rt.newObject(cl, n.id, ctorArgs).Addr()
}

// Create creates an object on a node chosen by the system's placement
// policy (remote create, Section 2.5) and continues with its mail address.
// With the chunk-stock scheme the address is obtained locally and k runs
// immediately; only when the stock is empty does the object block.
func (c *Ctx) Create(cl *Class, ctorArgs []Value, k func(*Ctx, Address)) {
	c.checkLive("Create")
	c.acted = true
	c.rt.rt.remote.Create(c, cl, ctorArgs, k)
}

// Yield voluntarily preempts the object: the continuation is saved into a
// heap frame and the object is enqueued on the scheduling queue, preventing
// monopolization of the node during long loops (Section 4.3).
func (c *Ctx) Yield(k func(*Ctx)) {
	c.checkLive("Yield")
	c.acted = true
	n := c.rt
	n.C.Preemptions++
	n.C.HeapFrames++
	n.node.SetPath(profile.Sched)
	n.node.Charge(n.cost.SaveContext)
	n.deferResume(n.saveContext(c.self, c.f, k))
	c.blocked = true
}

// Blocked reports whether the context has performed a blocking operation.
func (c *Ctx) Blocked() bool { return c.blocked }

func (c *Ctx) checkLive(op string) {
	if c.blocked {
		panic(fmt.Sprintf("core: %s after the method blocked; blocking operations must be the last action", op))
	}
}

// NodeRT exposes the per-node runtime to sibling runtime packages
// (internal/remote); applications should not need it.
func (c *Ctx) NodeRT() *NodeRT { return c.rt }

// SelfObject exposes the executing object to sibling runtime packages.
func (c *Ctx) SelfObject() *Object { return c.self }

// CurrentFrame exposes the invocation frame to sibling runtime packages.
func (c *Ctx) CurrentFrame() *Frame { return c.f }

// BlockExternal marks the context blocked; the caller (the remote layer)
// takes responsibility for resuming the object via ResumeCreation.
func (c *Ctx) BlockExternal() { c.blocked = true }
