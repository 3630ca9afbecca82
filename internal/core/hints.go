package core

import "repro/internal/profile"

// SendHint encodes the compile-time send optimizations of Section 6.1: the
// paper notes the 25-instruction dormant path shrinks to as few as 8
// instructions ("truly comparable with virtual function call in C++") when
// the compiler can prove properties of the send site:
//
//  1. the receiver is guaranteed local (e.g. it was just created locally),
//  2. the method sends no messages and never blocks, so the VFTP switches
//     are unnecessary,
//  3. the object is not history sensitive, so the message-queue check can
//     be elided,
//  4. remote-message polling is guaranteed periodically elsewhere.
//
// Hints change only the charged cost: the runtime still performs the
// underlying bookkeeping (this is a simulator), and it *validates* hints
// that carry semantic obligations — a false HintKnownLocal or
// HintLeafMethod panics, modelling a miscompiled program.
type SendHint uint8

const (
	// HintKnownLocal elides the locality check (3 instructions). The
	// receiver must be on the sending node.
	HintKnownLocal SendHint = 1 << iota
	// HintLeafMethod elides both VFTP switches (6 instructions). The
	// invoked method must not send, create, block, or yield.
	HintLeafMethod
	// HintNoQueueCheck elides the message-queue check at method completion
	// (3 instructions) for objects the compiler knows are not history
	// sensitive.
	HintNoQueueCheck
	// HintNoPoll elides the remote-message poll (5 instructions); the
	// compiler must guarantee periodic polling elsewhere.
	HintNoPoll
)

// HintFullyOptimized combines all four optimizations: an 8-instruction
// dormant-path send (lookup+call 5, return 3).
const HintFullyOptimized = HintKnownLocal | HintLeafMethod | HintNoQueueCheck | HintNoPoll

// SendPastHinted is SendPast with compile-time optimization hints applied
// to this send site.
func (c *Ctx) SendPastHinted(to Address, p PatternID, hints SendHint, args ...Value) {
	c.checkLive("SendPastHinted")
	c.acted = true
	c.rt.sendHinted(to, p, args, NilAddress, hints)
}

// sendHinted is the hint-aware send path.
func (n *NodeRT) sendHinted(to Address, p PatternID, args []Value, replyTo Address, hints SendHint) {
	if to.IsNil() {
		panic("core: send to nil address")
	}
	if hints&HintKnownLocal != 0 {
		if to.Node != n.id {
			panic("core: HintKnownLocal violated: receiver is on another node")
		}
	} else {
		n.node.Charge(n.cost.CheckLocality)
	}
	if to.Node != n.id {
		n.node.SetPath(profile.RemoteSend)
		// Stage the arguments in the runtime's scratch buffer: the interface
		// call would otherwise force the caller's argument slice to the
		// heap. SendMessage copies before returning, so reuse is safe.
		r := n.rt
		r.sendScratch = append(r.sendScratch[:0], args...)
		r.remote.SendMessage(n, to, p, r.sendScratch, replyTo)
		return
	}
	f := n.NewFrame()
	f.Pattern, f.replyTo, f.hints = p, replyTo.Obj, hints
	f.SetArgs(args)
	n.DeliverFrame(to.Obj, f, false)
}
