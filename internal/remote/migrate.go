package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
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
//  2. a category-4 packet carries class identity and state to the target,
//     which materializes the object (a chunk adopting the state);
//  3. a category-4 ack returns the new address; the owner installs the
//     forwarder and flushes anything buffered during the transfer.

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
	c := l.cost()

	image := l.rt.BeginMigration(n, obj) // old object now buffers
	n.C.Migrations++
	n.MachineNode().ChargeTo(profile.Forward, c.RemoteSendSetup+c.MigratePack)

	size := packetHeaderBytes + image.SizeBytes()
	load := l.piggyback(src)
	l.transmit(n.MachineNode(), &machine.Packet{
		Dst:      target,
		Size:     size,
		Category: CatService,
		Handler: func(mn *machine.Node, _ *machine.Packet) {
			mn.ChargeTo(profile.Forward, c.RemoteRecvExtract+c.RemoteHandlerCall+c.MigrateUnpack)
			l.noteLoad(mn.ID, src, load)
			tn := l.rt.NodeRT(mn.ID)
			// Materialize at the target: a chunk adopting the class + state.
			moved := tn.NewFaultChunk(mn.ID)
			l.rt.InitChunk(tn, moved, cl, nil)
			l.rt.AdoptMigratedState(tn, moved, cl, image)
			addr := moved.Addr()
			// Ack with the new address; the owner installs the forwarder.
			tn.MachineNode().ChargeTo(profile.Forward, c.RemoteSendSetup)
			ackLoad := l.piggyback(mn.ID)
			l.transmit(tn.MachineNode(), &machine.Packet{
				Dst:      src,
				Size:     packetHeaderBytes + 8,
				Category: CatService,
				Handler: func(mn2 *machine.Node, _ *machine.Packet) {
					mn2.ChargeTo(profile.Forward, c.RemoteRecvExtract+c.RemoteHandlerCall)
					l.noteLoad(mn2.ID, mn.ID, ackLoad)
					on := l.rt.NodeRT(mn2.ID)
					l.rt.CompleteMigration(on, obj, addr)
					if onDone != nil {
						onDone(addr)
					}
				},
			})
		},
	})
	return nil
}
