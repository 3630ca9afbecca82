package core

import "unsafe"

// replyState is the payload of a reply destination object. Reply
// destinations are first-class concurrent objects (Section 2.2): their mail
// address may be passed to third parties, and whoever holds it may send the
// reply. When the reply arrives before the original sender checks, the value
// is stored; when the sender has already blocked, the arrival resumes the
// saved context.
type replyState struct {
	value    Value
	arrived  bool
	consumed bool

	waiterObj *Object
	waiterK   func(*Ctx, Value)
	waiterF   *Frame
}

// replyDest is a reply destination: the object its address names, and its
// payload after it. Like every Object it is never released, so it is carved
// from the runtime's arena of them, payload and all.
type replyDest struct {
	Object
	rd replyState
}

// The object is a reply destination's first field, so a reply destination's
// object is the reply destination (Object.replyState).
const _ uintptr = -unsafe.Offsetof(replyDest{}.Object)

// newReplyDest carves a reply destination object on node n.
func (n *NodeRT) newReplyDest() *Object {
	n.rt.Freeze()
	d := n.rt.replies.New()
	obj := n.initObject(&d.Object, n.id)
	obj.vftp = n.rt.replyVFT
	obj.reply = true
	n.rt.trackObject(n.id, obj)
	return obj
}

// IsReplyDest reports whether the object is a reply destination.
func (o *Object) IsReplyDest() bool { return o.reply }

// replyState returns a reply destination's payload, or nil for any other
// object.
func (o *Object) replyState() *replyState {
	if !o.reply {
		return nil
	}
	return &(*replyDest)(unsafe.Pointer(o)).rd
}

// replyEntry is the native handler for the reply: pattern on a reply
// destination object. If the original sender is already blocked on this
// destination, its context is restored and it continues on the current
// stack (or via the scheduling queue when the stack is deep); otherwise the
// value is stored for the sender's post-send check.
func replyEntry(n *NodeRT, obj *Object, f *Frame) {
	rd := obj.replyState()
	if rd == nil {
		panic("core: reply: sent to a non-reply-destination object")
	}
	n.C.Replies++
	v := f.Arg(0)
	n.ReleaseFrame(f)
	if rd.consumed || rd.arrived {
		// A second reply to the same destination: the first wins.
		n.C.DroppedReplies++
		return
	}
	if rd.waiterObj == nil {
		rd.value = v
		rd.arrived = true
		return
	}
	rd.consumed = true
	w, k, wf := rd.waiterObj, rd.waiterK, rd.waiterF
	rd.waiterObj, rd.waiterK, rd.waiterF = nil, nil, nil
	if n.stackDepth >= n.rt.maxStackDepth {
		n.C.Preemptions++
		n.node.Charge(n.cost.SaveContext)
		n.deferResume(n.saveContext(w, wf, func(ctx *Ctx) { k(ctx, v) }))
		return
	}
	n.node.Charge(n.cost.RestoreContext)
	// The waiter stays in active mode: while blocked on a reply all its
	// table entries are queuing procedures, exactly as the paper specifies
	// for now-type waits.
	n.invoke(w, wf, func(ctx *Ctx) { k(ctx, v) }, false)
}
