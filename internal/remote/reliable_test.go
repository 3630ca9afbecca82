package remote

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// buildFaulty returns a runtime+layer over a machine with the given fault
// plan installed and the reliable protocol enabled.
func buildFaulty(t *testing.T, nodes int, plan fault.Plan, seed int64) (*core.Runtime, *Layer) {
	return buildFaultyOpts(t, nodes, plan, Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: seed, Reliable: true,
	}, seed)
}

// buildFaultyOpts is buildFaulty with full control over the layer options,
// for the batching/delayed-ack variants of the fault tests.
func buildFaultyOpts(t *testing.T, nodes int, plan fault.Plan, opt Options, seed int64) (*core.Runtime, *Layer) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(plan, seed, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(in)
	rt := core.NewRuntime(m, core.Options{})
	l := Attach(rt, opt)
	return rt, l
}

// counterStream is a two-node workload: node 0 sends numbered increments to
// a counter on node 1; the counter records arrival order.
func runCounterStream(t *testing.T, plan fault.Plan, seed int64, msgs int) ([]int64, *core.Runtime, *Layer) {
	t.Helper()
	rt, l := buildFaulty(t, 2, plan, seed)
	return runCounterStreamOn(t, rt, l, msgs)
}

func runCounterStreamOn(t *testing.T, rt *core.Runtime, l *Layer, msgs int) ([]int64, *core.Runtime, *Layer) {
	t.Helper()
	inc := rt.Reg.Register("rel.inc", 1)
	kick := rt.Reg.Register("rel.kick", 1)

	var order []int64
	var target core.Address
	cnt := rt.DefineClass("rel.counter", 0, nil)
	cnt.Method(inc, func(ctx *core.Ctx) { order = append(order, ctx.Arg(0).Int()) })
	snd := rt.DefineClass("rel.sender", 0, nil)
	snd.Method(kick, func(ctx *core.Ctx) {
		n := ctx.Arg(0).Int()
		for i := int64(0); i < n; i++ {
			ctx.SendPast(target, inc, core.IntV(i))
		}
	})

	target = rt.NewObjectOn(1, cnt)
	s := rt.NewObjectOn(0, snd)
	rt.Inject(s, kick, core.IntV(int64(msgs)))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return order, rt, l
}

func TestReliableExactlyOnceInOrder(t *testing.T) {
	// 20% drop + 15% duplication + jitter: every message must still arrive
	// exactly once and in send order.
	plan := fault.UniformLinks(0.20, 0.15, 3*sim.Microsecond)
	const msgs = 200
	order, rt, l := runCounterStream(t, plan, 11, msgs)
	if len(order) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(order), msgs)
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 {
		t.Errorf("lost=%d, want 0", c.LostMessages())
	}
	if c.Retransmits == 0 {
		t.Error("20% drop produced no retransmits")
	}
	if c.DupSuppressed == 0 {
		t.Error("duplication + retransmission produced no suppressed duplicates")
	}
	if l.rel.Unacked() != 0 {
		t.Errorf("%d messages still unacked at quiescence", l.rel.Unacked())
	}
}

func TestReliableCleanLinkNoRetries(t *testing.T) {
	// Protocol on, faults off: exactly-once trivially, zero retransmits,
	// one ack per message.
	order, rt, _ := runCounterStream(t, fault.Plan{}, 1, 50)
	if len(order) != 50 {
		t.Fatalf("delivered %d, want 50", len(order))
	}
	c := rt.TotalStats()
	if c.Retransmits != 0 || c.DupSuppressed != 0 || c.HeldOutOfOrder != 0 {
		t.Errorf("clean link: retransmits=%d dups=%d held=%d, want all 0",
			c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder)
	}
	if c.AcksSent != c.RelSent {
		t.Errorf("acks=%d for %d messages", c.AcksSent, c.RelSent)
	}
}

func TestReliableSurvivesNodePause(t *testing.T) {
	// The receiver's processor pauses for 1ms right as traffic starts: its
	// message controller keeps acking, packets buffer, and every message is
	// still delivered exactly once in order when it wakes.
	plan := fault.UniformLinks(0.1, 0, 0).WithPause(1, 5*sim.Microsecond, sim.Millisecond)
	order, rt, _ := runCounterStream(t, plan, 5, 60)
	if len(order) != 60 {
		t.Fatalf("delivered %d messages, want 60", len(order))
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated across the pause", i, v)
		}
	}
	c := rt.TotalStats()
	if c.NodePauses == 0 {
		t.Error("pause window never took effect")
	}
	if c.LostMessages() != 0 {
		t.Errorf("lost %d messages across the pause", c.LostMessages())
	}
}

func TestReliableDeterminism(t *testing.T) {
	plan := fault.UniformLinks(0.25, 0.2, 5*sim.Microsecond)
	a, rta, _ := runCounterStream(t, plan, 42, 100)
	b, rtb, _ := runCounterStream(t, plan, 42, 100)
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	ca, cb := rta.TotalStats(), rtb.TotalStats()
	if ca != cb {
		t.Errorf("same seed+plan produced different counters:\n%+v\nvs\n%+v", ca, cb)
	}
}

func TestReliableRemoteCreationAndReplies(t *testing.T) {
	// Remote creation (chunk-stock refill) and now-type replies under 15%
	// drop: the fork-join style round trip must complete correctly.
	rt, _ := buildFaulty(t, 4, fault.UniformLinks(0.15, 0.1, 2*sim.Microsecond), 9)
	ask := rt.Reg.Register("rc.ask", 1)
	kick := rt.Reg.Register("rc.kick", 0)

	var sum int64
	var done int
	svc := rt.DefineClass("rc.svc", 0, nil)
	svc.Method(ask, func(ctx *core.Ctx) { ctx.Reply(core.IntV(ctx.Arg(0).Int() * 2)) })
	drv := rt.DefineClass("rc.drv", 0, nil)
	drv.Method(kick, func(ctx *core.Ctx) {
		// Create remotely (exercises chunk stock + create + refill under
		// faults), then do a now-type round trip with the created object.
		ctx.Create(svc, nil, func(ctx *core.Ctx, a core.Address) {
			ctx.SendNow(a, ask, []core.Value{core.IntV(21)}, func(ctx *core.Ctx, v core.Value) {
				sum += v.Int()
				done++
			})
		})
	})

	d := rt.NewObjectOn(0, drv)
	for i := 0; i < 8; i++ {
		rt.Inject(d, kick)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 8 || sum != 8*42 {
		t.Fatalf("done=%d sum=%d, want 8 replies summing to 336", done, sum)
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 {
		t.Errorf("lost=%d", c.LostMessages())
	}
}

// wireOpts is the reliable protocol with the full wire path on: per-link
// batching plus delayed cumulative acks.
func wireOpts(seed int64) Options {
	return Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: seed, Reliable: true,
		BatchWindow: 10 * sim.Microsecond,
		AckDelay:    50 * sim.Microsecond,
	}
}

func TestReliableBatchedUnderFaults(t *testing.T) {
	// 10% drop + 10% duplication with batching and delayed acks on: the
	// exactly-once, in-order guarantee must be unchanged, and both
	// coalescing mechanisms must actually engage.
	plan := fault.UniformLinks(0.10, 0.10, 3*sim.Microsecond)
	const msgs = 300
	rt, l := buildFaultyOpts(t, 2, plan, wireOpts(17), 17)
	order, _, _ := runCounterStreamOn(t, rt, l, msgs)
	if len(order) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(order), msgs)
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated under batching+faults", i, v)
		}
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 {
		t.Errorf("lost=%d, want 0", c.LostMessages())
	}
	if c.BatchesSent == 0 || c.AcksCoalesced == 0 {
		t.Errorf("batches=%d coalesced-acks=%d: wire-path options never engaged",
			c.BatchesSent, c.AcksCoalesced)
	}
	if l.rel.Unacked() != 0 {
		t.Errorf("%d messages still unacked at quiescence", l.rel.Unacked())
	}
}

func TestDuplicatedBatchFrameSharesItsChain(t *testing.T) {
	// A batch frame is a header over its records' own chain, and a
	// duplicated frame is a copy of that header: both copies walk the one
	// chain. With every packet on the data link doubled, each record must
	// reach the application once and be suppressed once — a receiver that
	// unlinked or recycled the chain under faults would leave the second copy
	// a chain cut short or records already reused.
	plan := fault.Plan{Links: []fault.LinkFault{{Src: 0, Dst: 1, Dup: 1}}}
	opt := wireOpts(5)
	opt.AckDelay = 0
	rt, l := buildFaultyOpts(t, 2, plan, opt, 5)
	const msgs = 120
	order, _, _ := runCounterStreamOn(t, rt, l, msgs)
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
	c := rt.TotalStats()
	if len(order) != msgs || c.RelSent != msgs || c.RelDelivered != msgs || c.DupSuppressed != msgs {
		t.Errorf("sent %d, delivered %d (%d to the application), suppressed %d: want each of %d records delivered once and suppressed once",
			c.RelSent, c.RelDelivered, len(order), c.DupSuppressed, msgs)
	}
	if c.BatchesSent < 2 || c.BatchedMsgs+2 < msgs || c.Retransmits != 0 {
		t.Errorf("batches=%d batched=%d retransmits=%d: want the stream framed in batches, nothing retransmitted",
			c.BatchesSent, c.BatchedMsgs, c.Retransmits)
	}
	if n := l.rel.Unacked(); n != 0 {
		t.Errorf("%d messages still unacked at quiescence", n)
	}
}

func TestReliableBatchedDeterminism(t *testing.T) {
	// Batching + delayed acks under 10% drop + 10% dup: two runs with the
	// same seed and plan must produce identical deliveries and counters.
	plan := fault.UniformLinks(0.10, 0.10, 5*sim.Microsecond)
	run := func() ([]int64, stats.Counters) {
		rt, l := buildFaultyOpts(t, 2, plan, wireOpts(42), 42)
		order, _, _ := runCounterStreamOn(t, rt, l, 150)
		return order, rt.TotalStats()
	}
	a, ca := run()
	b, cb := run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if ca != cb {
		t.Errorf("same seed+plan produced different counters:\n%+v\nvs\n%+v", ca, cb)
	}
}

func TestReliableDelayedAcksReduceAckTraffic(t *testing.T) {
	// On a clean link, immediate mode sends one ack per message; the
	// delayed-ack timer must cut that by at least half on the same stream.
	immediate, rtI, _ := runCounterStream(t, fault.Plan{}, 3, 200)
	rtD, l := buildFaultyOpts(t, 2, fault.Plan{}, wireOpts(3), 3)
	delayed, _, _ := runCounterStreamOn(t, rtD, l, 200)
	if len(immediate) != 200 || len(delayed) != 200 {
		t.Fatalf("deliveries: immediate=%d delayed=%d, want 200/200", len(immediate), len(delayed))
	}
	ci, cd := rtI.TotalStats(), rtD.TotalStats()
	if cd.AcksSent*2 > ci.AcksSent {
		t.Errorf("delayed acks sent %d ack packets vs %d immediate: want <= half",
			cd.AcksSent, ci.AcksSent)
	}
	if cd.Retransmits != 0 {
		t.Errorf("clean link with delayed acks produced %d retransmits", cd.Retransmits)
	}
}

func TestColdLinkStateOnlyUnderFaults(t *testing.T) {
	// What only faults and checkpoints need — reorder buffer, selective-ack
	// set, retention — is a link's cold record, made on first use: the full
	// wire path on a clean network never makes one, the same run under the
	// retry pin's fault plan does, and both end with nothing in flight.
	opt := wireOpts(3)
	opt.AckDelay = 500 * sim.Microsecond
	for _, tc := range []struct {
		name string
		plan fault.Plan
	}{
		{"lossless", fault.Plan{}},
		{"lossy", fault.UniformLinks(0.10, 0.05, 2*sim.Microsecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, l := buildFaultyOpts(t, 2, tc.plan, opt, 3)
			order, _, _ := runCounterStreamOn(t, rt, l, 300)
			c := rt.TotalStats()
			if len(order) != 300 || c.BatchesSent == 0 || c.AcksCoalesced == 0 {
				t.Fatalf("delivered %d of 300, batches=%d coalesced=%d", len(order), c.BatchesSent, c.AcksCoalesced)
			}
			cold := 0
			for _, ns := range l.nodes {
				for _, lc := range ns.cold {
					if lc != nil {
						cold++
					}
				}
			}
			if lossy := tc.plan.Enabled(); lossy != (cold > 0) || lossy != (c.Retransmits > 0) {
				t.Errorf("%d cold link records and %d retransmits, want both zero exactly when the network is clean", cold, c.Retransmits)
			}
			if n := l.rel.Unacked(); n != 0 {
				t.Errorf("%d messages still unacked at quiescence", n)
			}
		})
	}
}

func TestRollbackKeepsFlushDeadlineLive(t *testing.T) {
	// A rollback tears an open batch down while its flush deadline is still
	// queued. The next batch opened on that link must leave within the batch
	// window all the same — not wait for its record's retransmission timeout
	// to push it out.
	rt, l := buildSys(t, 2, core.Options{}, wireOpts(1))
	inc := rt.Reg.Register("rb.inc", 1)
	kick := rt.Reg.Register("rb.kick", 0)
	var got []int64
	var target core.Address
	cnt := rt.DefineClass("rb.counter", 0, nil)
	cnt.Method(inc, func(ctx *core.Ctx) { got = append(got, ctx.Arg(0).Int()) })
	snd := rt.DefineClass("rb.sender", 0, nil)
	snd.Method(kick, func(ctx *core.Ctx) {
		im := l.CaptureRel(0)
		ctx.SendPast(target, inc, core.IntV(1)) // opens a batch, arms its deadline
		l.CkptRestoreNode(im)                   // the rollback forgets that send
		ctx.SendPast(target, inc, core.IntV(2)) // opens the link's next batch
	})
	target = rt.NewObjectOn(1, cnt)
	rt.Inject(rt.NewObjectOn(0, snd), kick)
	// The deadline went missing when other events stayed queued around its
	// stopped slot: these keep the queue busy past it.
	lane := rt.M.Node(0).Lane()
	for i := 0; i < 8; i++ {
		rt.M.Eng.ScheduleFuncOn(lane, sim.Millisecond, func() {})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("delivered %v, want [2]: the torn-down send is gone, the one after it arrives", got)
	}
	if c := rt.TotalStats(); c.Retransmits != 0 {
		t.Errorf("retransmits = %d, want 0: the batch waited for a retry instead of its flush deadline", c.Retransmits)
	}
}

// nullCheckpointer turns retention and colouring on with no snapshot
// rounds behind them.
type nullCheckpointer struct{}

func (nullCheckpointer) Colour(node, src int, seq uint64) {}
func (nullCheckpointer) Acked(round int)                  {}

// TestFirstAttemptRidesItsRecord pins who carries a reliable record. On a
// machine without a fault model or checkpoint retention the first attempt
// is the record's own header, so on a lossless run no data record takes a
// machine packet: the pool serves acks and batch frames alone. Under a
// jitter-and-duplication plan, where a header could be in flight twice, and
// under checkpoint retention, which may replay it, every copy is pooled.
func TestFirstAttemptRidesItsRecord(t *testing.T) {
	const msgs = 200
	batched := Options{StockDepth: 2, Reliable: true, BatchWindow: 5 * sim.Microsecond, AckDelay: 20 * sim.Microsecond}
	for _, tc := range []struct {
		name   string
		faults bool // a jitter-and-duplication fault model
		opt    Options
		ckpt   bool
		inline bool // every polled copy is its record's header; false: none is
	}{
		{"lossless", false, Options{StockDepth: 2, Reliable: true}, false, true},
		{"lossless batched delayed acks", false, batched, false, true},
		{"jitter and duplication", true, Options{StockDepth: 2, Reliable: true}, false, false},
		{"jitter and duplication batched", true, batched, false, false},
		{"checkpoint retention", false, batched, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := machine.New(machine.DefaultConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults {
				in, err := fault.NewInjector(fault.UniformLinks(0, 0.3, 4*sim.Microsecond), 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				m.SetFaults(in)
			}
			rt := core.NewRuntime(m, core.Options{})
			l := Attach(rt, tc.opt)
			if tc.ckpt {
				l.EnableCheckpoint(nullCheckpointer{})
			}
			var inline, pooled int
			polled := l.rel.hPolled
			l.rel.hPolled = func(rn *machine.Node, p *machine.Packet) {
				if p == &p.Payload.(*core.Frame).Wire {
					inline++
				} else {
					pooled++
				}
				polled(rn, p)
			}
			order, rt, _ := runCounterStreamOn(t, rt, l, msgs)
			if len(order) != msgs {
				t.Fatalf("delivered %d messages, want %d", len(order), msgs)
			}
			c := rt.TotalStats()
			t.Logf("%d copies polled under their record's header, %d pooled; %d retransmits, %d dups suppressed",
				inline, pooled, c.Retransmits, c.DupSuppressed)
			switch {
			case tc.inline && (inline != msgs || pooled != 0):
				t.Errorf("%d of %d records' copies rode their header, %d a pooled packet; want every one the header", inline, msgs, pooled)
			case !tc.inline && inline != 0:
				t.Errorf("%d copies rode their record's header; want every copy pooled", inline)
			case tc.faults && c.DupSuppressed == 0:
				t.Error("the fault plan duplicated nothing")
			}
		})
	}
}
