package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/profile"
)

// Object migration: a category-4 remote service (Section 5.1 lists
// migration among the "other services" handled by self-dispatching
// messages). Because mail addresses embed real pointers, the old address
// stays valid: migration installs a forwarder there, and messages sent to
// the stale address take one extra hop.
//
// Protocol (initiated host-side or by a management object on the owner
// node):
//
//  1. the owner extracts the object's state and switches the old object to
//     fault mode (messages arriving mid-transfer buffer there);
//  2. a category-4 wmMigrate record carries class identity and state to the
//     target, which materializes the object (a chunk adopting the state);
//  3. a category-4 wmMigrated record returns the new address; the owner
//     installs the forwarder and flushes anything buffered during the
//     transfer (both handlers are in handleWire).

// Migrate moves a quiescent dormant object from its current node to target.
// onDone (optional) observes the new address once the forwarder is
// installed. Migrate must be called from host context between runs or from
// the owner node's execution context; the transfer itself happens in
// simulated time.
func (l *Layer) Migrate(obj *core.Object, target int, onDone func(core.Address)) error {
	if target < 0 || target >= l.rt.Nodes() {
		return fmt.Errorf("remote: migration target %d out of range", target)
	}
	src := obj.NodeID()
	if target == src {
		return fmt.Errorf("remote: object already on node %d", target)
	}
	cl := obj.Class()
	if cl == nil {
		return fmt.Errorf("remote: cannot migrate an uninitialized chunk")
	}
	if cl.Multiactive() {
		// The transfer protocol assumes a quiescent serial object; a
		// multiactive object's live-invocation set cannot ride the wire.
		return fmt.Errorf("remote: cannot migrate multiactive object of class %s", cl.Name)
	}
	n := l.rt.NodeRT(src)
	image := l.rt.BeginMigration(n, obj) // old object now buffers
	n.C.Migrations++
	mn := n.MachineNode()
	w := l.record(mn, profile.Forward, l.cost().MigratePack, wmMigrate)
	w.to = obj.Addr()
	w.cl = cl
	w.needInit = image.NeedInit
	if image.NeedInit {
		w.setArgs(image.CtorArgs)
	} else {
		w.setArgs(image.State)
	}
	w.onCreated = onDone
	l.launch(mn, w, target, packetHeaderBytes+image.SizeBytes(), CatService)
	return nil
}
