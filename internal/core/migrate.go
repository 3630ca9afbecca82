package core

// Forwarding support for object migration. The paper's uniform
// (processor, pointer) mail addresses mean an object cannot be moved
// without leaving something at the old address (Section 5.2 notes this
// restriction, and lists object migration among the category-4 remote
// services; moving locally-referenced objects is called out as in-progress
// work). The classic solution implemented here: migration installs a
// *forwarder* table at the old address whose every entry re-sends the
// message to the object's new home. Senders holding stale addresses keep
// working, one extra hop slower; the table pointer is, as always, where the
// mode lives — no per-send check is added for non-migrated objects.

// forwardEntry re-sends a frame to the object's new address.
func forwardEntry(n *NodeRT, obj *Object, f *Frame) {
	n.node.Charge(n.cost.ForwardHop)
	n.C.Forwards++
	// The re-send copies the arguments into its own frame (or the remote
	// layer's wire record), so f — whose inline buffer may back f.Args —
	// is released only after the Send completes.
	n.Send(obj.forward, f.Pattern, f.Args, f.ReplyTo)
	n.releaseFrame(f)
}

// MigrationState is the transferable image of an object: its state box, or
// — for an object whose lazy initialization has not run yet — its pending
// constructor arguments.
type MigrationState struct {
	State    []Value
	CtorArgs []Value
	NeedInit bool
}

// SizeBytes reports the wire size of the image.
func (ms MigrationState) SizeBytes() int {
	n := 8
	n += ArgsSize(ms.State)
	n += ArgsSize(ms.CtorArgs)
	return n
}

// BeginMigration freezes a dormant object for transfer: its image is
// handed to the caller and the object temporarily behaves like an
// uninitialized chunk (all messages buffer) until CompleteMigration
// installs the forwarder. Only dormant objects with empty message queues
// migrate — the paper's single-thread-of-control makes any other moment
// unsafe.
func (r *Runtime) BeginMigration(n *NodeRT, obj *Object) MigrationState {
	if obj.node != n.id {
		panic("core: BeginMigration on wrong node")
	}
	if obj.class == nil || obj.rd != nil {
		panic("core: cannot migrate chunks or reply destinations")
	}
	if obj.running || obj.wait != nil || obj.inSchedQ || !obj.queue.empty() {
		panic("core: only quiescent dormant objects can migrate")
	}
	r.Freeze()
	ms := MigrationState{
		State:    obj.state,
		CtorArgs: obj.ctorArgs,
		NeedInit: obj.vftp == obj.class.initTable,
	}
	obj.vftp = r.faultVFT // buffer anything that arrives mid-transfer
	obj.state = nil
	obj.ctorArgs = nil
	return ms
}

// CompleteMigration points the old object at its new home and flushes any
// messages buffered during the transfer through the forwarder.
func (r *Runtime) CompleteMigration(n *NodeRT, obj *Object, to Address) {
	if obj.node != n.id {
		panic("core: CompleteMigration on wrong node")
	}
	if to.IsNil() || to.Obj == obj {
		panic("core: invalid migration target")
	}
	obj.forward = to
	obj.vftp = r.forwardVFT
	for f := obj.queue.pop(); f != nil; f = obj.queue.pop() {
		forwardEntry(n, obj, f)
	}
}

// AdoptMigratedState installs a transferred image into an object created at
// the migration target: either initialized state (dormant mode) or pending
// constructor arguments (need-init mode). Both are copied, never adopted by
// alias: the image rides a wire record that is recycled after delivery, or —
// with checkpointing on — retained for possible replay after a crash, and
// mutations through the live object must never reach back into it.
func (r *Runtime) AdoptMigratedState(n *NodeRT, obj *Object, cl *Class, ms MigrationState) {
	if obj.node != n.id {
		panic("core: AdoptMigratedState on wrong node")
	}
	if obj.class != cl {
		panic("core: migrated state for a different class")
	}
	if ms.NeedInit {
		obj.ctorArgs = n.copyCtorArgs(ms.CtorArgs)
		obj.state = make([]Value, cl.StateSize)
		obj.vftp = cl.initTable
		return
	}
	if ms.State != nil {
		st := n.allocState(len(ms.State))
		copy(st, ms.State)
		obj.state = st
	} else {
		obj.state = nil
	}
	obj.ctorArgs = nil
	obj.vftp = cl.dormant
}

// ForwardTarget returns the forwarding address of a migrated object (nil
// address when the object has not migrated).
func (o *Object) ForwardTarget() Address { return o.forward }
