// Acceptance tests for the wire-path optimisations: per-link packet
// batching and coalesced acknowledgments.
//
// The contract has two sides. With the options off (the default), the engine
// must be byte-identical to the pre-batching wire path: no new counters
// tick, every logical message is its own hardware packet, and results are
// reproducible run to run. With the options on, answers and delivery
// guarantees are unchanged while the packet and ack counts drop.
package abcl_test

import (
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
)

// queensRun runs one N-queens instance on a fresh system built with opts.
func queensRun(t *testing.T, opts ...abcl.Option) (*abcl.System, nqueens.Result) {
	t.Helper()
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(16), abcl.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, 7, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// With everything at defaults the new wire-path machinery must be inert:
// zero batches, zero coalesced acks, and one hardware packet per logical
// message.
func TestWirePathDefaultsInert(t *testing.T) {
	sys, res := queensRun(t)
	if res.Solutions != 40 {
		t.Fatalf("N=7 solutions = %d, want 40", res.Solutions)
	}
	c := sys.Report().Sched.Counters
	if c.BatchesSent != 0 || c.BatchedMsgs != 0 {
		t.Errorf("default run sent %d batches (%d records), want none", c.BatchesSent, c.BatchedMsgs)
	}
	if c.AcksCoalesced != 0 || c.AcksSent != 0 {
		t.Errorf("default run produced ack traffic: sent=%d coalesced=%d", c.AcksSent, c.AcksCoalesced)
	}
	wire := sys.Report().Wire
	if wire.BatchWindow != 0 || wire.BatchMaxBytes != 0 {
		t.Errorf("batch window = (%v, %d), want zeroes", wire.BatchWindow, wire.BatchMaxBytes)
	}
	if wire.Packets != wire.LogicalMsgs {
		t.Errorf("packets=%d logical msgs=%d: unbatched runs must map 1:1",
			wire.Packets, wire.LogicalMsgs)
	}
}

// Batching must preserve answers and object/message counts exactly, and be
// deterministic across repeated runs.
func TestWirePathBatchingDeterminism(t *testing.T) {
	_, plain := queensRun(t)
	sys1, run1 := queensRun(t, abcl.WithBatching(3*abcl.Microsecond, 0))
	sys2, run2 := queensRun(t, abcl.WithBatching(3*abcl.Microsecond, 0))

	if run1.Solutions != plain.Solutions || run1.Objects != plain.Objects || run1.Messages != plain.Messages {
		t.Errorf("batching changed the computation: batched %+v vs plain %+v", run1, plain)
	}
	if !reflect.DeepEqual(run1, run2) {
		t.Errorf("batched runs diverge:\n%+v %+v\nvs\n%+v %+v", run1, *run1.Report.Profile, run2, *run2.Report.Profile)
	}
	rep1, rep2 := sys1.Report(), sys2.Report()
	if a, b := rep1.Sched.Counters, rep2.Sched.Counters; a != b {
		t.Errorf("batched counters diverge:\n%+v\nvs\n%+v", a, b)
	}
	if rep1.Sched.Counters.BatchesSent == 0 {
		t.Error("batching enabled but no batch was ever sent")
	}
	if rep1.Wire.Packets >= plain.Packets {
		t.Errorf("batched run launched %d packets, plain %d: no coalescing happened",
			rep1.Wire.Packets, plain.Packets)
	}
}

// The headline acceptance numbers, measured on the communication-dominated
// all-to-all exchange in reliable mode: batching + delayed acks must at
// least halve both the packets-per-message ratio and the standalone ack
// count, without touching delivery guarantees.
func TestWirePathPacketReduction(t *testing.T) {
	plain, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 16, Rounds: 8,
		Opts: []abcl.Option{abcl.WithReliable()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 16, Rounds: 8,
		Opts: []abcl.Option{
			abcl.WithReliable(),
			abcl.WithBatching(25*abcl.Microsecond, 0),
			abcl.WithDelayedAcks(25 * abcl.Microsecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// RunAllToAll already verified full delivery and per-link FIFO order for
	// both runs; here we compare the wire traffic.
	if plain.Stats.RelSent != tuned.Stats.RelSent {
		t.Fatalf("workloads diverge: %d vs %d reliable sends", plain.Stats.RelSent, tuned.Stats.RelSent)
	}
	if tuned.Packets*2 > plain.Packets {
		t.Errorf("packets: plain=%d tuned=%d, want at least a 2x reduction", plain.Packets, tuned.Packets)
	}
	if tuned.Stats.AcksSent*2 > plain.Stats.AcksSent {
		t.Errorf("ack packets: plain=%d tuned=%d, want at least a 2x reduction",
			plain.Stats.AcksSent, tuned.Stats.AcksSent)
	}
	if tuned.Stats.AcksCoalesced == 0 {
		t.Error("delayed acks on but nothing was coalesced")
	}
	if tuned.Stats.Retransmits != 0 {
		t.Errorf("%d spurious retransmits on a fault-free machine", tuned.Stats.Retransmits)
	}
}

// Reliable delivery with batching and delayed acks must survive a lossy,
// duplicating interconnect with no lost messages and no order violations.
func TestWirePathReliableBatchedUnderFaults(t *testing.T) {
	res, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 8, Rounds: 6,
		Opts: []abcl.Option{
			abcl.WithFaults(abcl.UniformFaults(0.10, 0.10, 2*abcl.Microsecond)),
			abcl.WithBatching(25*abcl.Microsecond, 0),
			abcl.WithDelayedAcks(25 * abcl.Microsecond),
			abcl.WithSeed(7),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Stats
	if c.LostMessages() != 0 {
		t.Errorf("lost=%d under faults, want 0", c.LostMessages())
	}
	if c.Retransmits == 0 {
		t.Error("10%% drop produced no retransmits")
	}
	if c.BatchesSent == 0 || c.AcksCoalesced == 0 {
		t.Errorf("optimisations idle under faults: batches=%d coalesced=%d", c.BatchesSent, c.AcksCoalesced)
	}
}
