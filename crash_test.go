package abcl_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/nqueens"
	"repro/internal/trace"
	"repro/internal/workload"
)

// crashRun executes one N-queens search under the given options and returns
// everything a recovery must reproduce.
type crashRun struct {
	solutions int64
	elapsed   abcl.Time
	stats     abcl.Counters
}

func runQueens(t *testing.T, n int, opts ...abcl.Option) crashRun {
	t.Helper()
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, n, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	return crashRun{solutions: res.Solutions, elapsed: rep.Sched.Elapsed, stats: rep.Sched.Counters}
}

// queensSolutions holds the exact answers the search must produce.
var queensSolutions = map[int]int64{5: 10, 6: 4, 7: 40, 8: 92}

// TestCrashRecoveryNQueens is the subsystem's headline property: with
// reliable delivery and periodic checkpoints on, a run that loses a node
// mid-search and recovers from the last checkpoint produces exactly the
// result of the fault-free run — no lost work, no double-counted solutions.
// This configuration once panicked with a stale seed chunk in the restored
// stock (InitChunk on an already-initialized object).
func TestCrashRecoveryNQueens(t *testing.T) {
	const n = 6
	base := []abcl.Option{abcl.WithNodes(4), abcl.WithSeed(11), abcl.WithReliable()}
	clean := runQueens(t, n, base...)
	if clean.solutions != queensSolutions[n] {
		t.Fatalf("fault-free run: %d solutions, want %d", clean.solutions, queensSolutions[n])
	}

	// Crash node 2 a third of the way into the fault-free makespan and
	// restart it shortly after; checkpoint often enough that real rounds
	// complete before the crash.
	crashAt := clean.elapsed / 3
	plan := abcl.FaultPlan{}.WithCrash(2, crashAt, clean.elapsed/10)
	crashed := runQueens(t, n,
		abcl.WithNodes(4), abcl.WithSeed(11),
		abcl.WithCheckpoint(clean.elapsed/8),
		abcl.WithFaults(plan),
	)
	if crashed.solutions != clean.solutions {
		t.Errorf("recovered run found %d solutions, fault-free found %d", crashed.solutions, clean.solutions)
	}
	c := crashed.stats
	if c.NodeCrashes != 1 || c.NodeRestarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", c.NodeCrashes, c.NodeRestarts)
	}
	if c.CkptSaves == 0 || c.CkptBytes == 0 {
		t.Errorf("no checkpoint writes recorded: saves=%d bytes=%d", c.CkptSaves, c.CkptBytes)
	}
	if crashed.elapsed <= clean.elapsed {
		t.Errorf("recovered run (%v) not slower than fault-free (%v): rollback re-execution missing?",
			crashed.elapsed, clean.elapsed)
	}
}

// TestCrashWithBatching combines a crash with per-link batching: the crash
// can strike with half-flushed batches open on any link, and recovery must
// tear them down and still deliver the exact result.
func TestCrashWithBatching(t *testing.T) {
	const n = 6
	batched := []abcl.Option{
		abcl.WithNodes(4), abcl.WithSeed(5), abcl.WithReliable(),
		abcl.WithBatching(2000*abcl.Nanosecond, 0),
	}
	clean := runQueens(t, n, batched...)
	if clean.solutions != queensSolutions[n] {
		t.Fatalf("batched fault-free run: %d solutions, want %d", clean.solutions, queensSolutions[n])
	}
	plan := abcl.FaultPlan{}.WithCrash(2, clean.elapsed/3, clean.elapsed/10)
	crashed := runQueens(t, n,
		abcl.WithNodes(4), abcl.WithSeed(5),
		abcl.WithBatching(2000*abcl.Nanosecond, 0),
		abcl.WithCheckpoint(clean.elapsed/8),
		abcl.WithFaults(plan),
	)
	if crashed.solutions != clean.solutions {
		t.Errorf("batched recovery found %d solutions, want %d", crashed.solutions, clean.solutions)
	}
}

// TestCrashRecoveryProperty is the subsystem's contract, stated once over a
// generated matrix: each app × placement × seed × wire path runs fault-free
// (elapsed el), then three more times with checkpoints every el/8 and node
// seed%4 down for el/10 from el/5, el/3 or el/2. Every recovered run must
// give the fault-free answer after one restart and some checkpoint writes,
// and finish after the fault-free run but within 3× it
// plus the outage; the el/3 crash runs twice, and the two traces must be
// the same. The scale rows run n-queens N8 on 256 nodes, where one round
// lasts about 2 ms, with intervals of 1.5 ms and 5 ms: at that width a
// round that outlived the program once kept the chain going for ever.
func TestCrashRecoveryProperty(t *testing.T) {
	apps := []workload.Spec{
		{Workload: "nqueens", N: 6},
		{Workload: "forkjoin", Depth: 6},
		{Workload: "diffusion", Grid: 6, GridIters: 4},
		{Workload: "hotkey", Clients: 4, Ops: 10},
		{Workload: "orderbook", Clients: 4, Ops: 10},
	}
	run := func(t *testing.T, sp workload.Spec, extra ...abcl.Option) workload.Outcome {
		t.Helper()
		out, err := workload.Run(sp, extra...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cell := func(t *testing.T, sp workload.Spec, interval func(el abcl.Time) abcl.Time) {
		clean := run(t, sp)
		el := clean.Elapsed
		for _, div := range []abcl.Time{5, 3, 2} {
			plan := abcl.FaultPlan{}.WithCrash(int(sp.Seed%4), el/div, el/10)
			crashed := sp
			crashed.CkptIntervalNs, crashed.Faults = int64(interval(el)), &plan
			var trA, trB traceDigest
			out := run(t, crashed, abcl.WithObserver(&trA))
			c := out.Report.Sched.Counters
			if out.Invariant != clean.Invariant || c.NodeRestarts != 1 || c.CkptSaves == 0 ||
				out.Elapsed <= el || out.Elapsed > 3*(el+el/10) {
				t.Errorf("crash at el/%d: %s, %d restarts, %d saves, elapsed %v; fault-free %s in %v",
					div, out.Invariant, c.NodeRestarts, c.CkptSaves, out.Elapsed, clean.Invariant, el)
			}
			if div == 3 {
				if again := run(t, crashed, abcl.WithObserver(&trB)); trA.sum() != trB.sum() || again.Elapsed != out.Elapsed {
					t.Errorf("crash at el/%d re-run: trace %x in %v, first run %x in %v",
						div, trB.sum(), again.Elapsed, trA.sum(), out.Elapsed)
				}
			}
		}
	}
	for _, app := range apps {
		for _, place := range []string{"random", "rr", "load", "depth"} {
			for seed := int64(1); seed <= 6; seed++ {
				for _, batched := range []bool{false, true} {
					sp := app
					sp.Nodes, sp.Seed, sp.Placement, sp.Reliable = 4, seed, place, true
					if batched {
						sp.BatchWindowNs, sp.AckDelayNs = 2000, 50000
					}
					t.Run(fmt.Sprintf("%s/%s/seed=%d/batched=%v", app.Workload, place, seed, batched), func(t *testing.T) {
						cell(t, sp, func(el abcl.Time) abcl.Time { return el / 8 })
					})
				}
			}
		}
	}
	for _, every := range []abcl.Time{1500 * abcl.Microsecond, 5 * abcl.Millisecond} {
		sp := workload.Spec{Workload: "nqueens", N: 8, Nodes: 256, Seed: 1, Reliable: true}
		t.Run(fmt.Sprintf("nqueens-p256/every=%v", every), func(t *testing.T) {
			cell(t, sp, func(abcl.Time) abcl.Time { return every })
		})
	}
}

// traceDigest is a sink that folds every trace event into one hash.
type traceDigest struct {
	h   hash.Hash64
	buf []byte
}

func (d *traceDigest) Event(e trace.Event) {
	if d.h == nil {
		d.h = fnv.New64a()
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(e.At))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(e.Node)<<8|uint64(e.Kind))
	d.buf = append(d.buf, e.What...)
	d.h.Write(d.buf)
}

func (d *traceDigest) sum() uint64 {
	if d.h == nil {
		return 0
	}
	return d.h.Sum64()
}

// roundSpan is a sink that keeps what the end of the checkpoint chain is
// judged by: the last application event (a delivery or a dispatch) and the
// start of every completed round.
type roundSpan struct {
	last   abcl.Time
	starts []abcl.Time
}

func (s *roundSpan) Event(e trace.Event) {
	switch e.Kind {
	case trace.EvSend, trace.EvDispatch:
		s.last = max(s.last, e.At)
	case trace.EvCkptRound:
		s.starts = append(s.starts, e.At)
	}
}

// TestCheckpointRoundsEndWithApplication is the termination grid: n-queens
// N8 on 64, 256 and 512 nodes, with checkpoint intervals from a tenth of
// one round's virtual length to twice it. A round there is the
// coordinator's 2(P-1) control records on top of its share of the search,
// about 2, 2.5 and 4.5 ms. Every run ends with the fault-free answer, every
// round it starts completes with a snapshot of every node, no round starts
// after the application's last event, and a round sends at most 2(P-1)
// checkpoint records.
func TestCheckpointRoundsEndWithApplication(t *testing.T) {
	for _, row := range []struct {
		nodes int
		round abcl.Time
	}{{64, 2 * abcl.Millisecond}, {256, 2500 * abcl.Microsecond}, {512, 4500 * abcl.Microsecond}} {
		sp := workload.Spec{Workload: "nqueens", N: 8, Nodes: row.nodes}
		clean, err := workload.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, tenths := range []abcl.Time{1, 5, 10, 20} {
			every := row.round * tenths / 10
			sp.CkptIntervalNs = int64(every)
			var span roundSpan
			out, err := workload.Run(sp, abcl.WithObserver(&span))
			if err != nil {
				t.Fatal(err)
			}
			c := out.Report.Sched.Counters
			rounds := uint64(len(span.starts))
			var records uint64
			for _, ps := range out.Report.Profile.Paths {
				if ps.Path == "ckpt" {
					records = ps.Packets
				}
			}
			if out.Invariant != clean.Invariant || c.CkptRounds != rounds || c.CkptSaves != uint64(row.nodes)*(rounds+1) ||
				(tenths == 1 && rounds == 0) || records > 2*uint64(row.nodes-1)*rounds {
				t.Errorf("P=%d every %v: %s (fault-free %s), %d rounds traced, %d counted, %d saves, %d checkpoint records",
					row.nodes, every, out.Invariant, clean.Invariant, rounds, c.CkptRounds, c.CkptSaves, records)
			}
			for _, at := range span.starts {
				if at > span.last {
					t.Errorf("P=%d every %v: a round started at %v, after the application's last event at %v",
						row.nodes, every, at, span.last)
				}
			}
		}
	}
}

// TestCrashRecoveryDeterminism re-runs an identical crash-and-recover
// configuration and requires byte-identical counters, elapsed time and
// trace: recovery is part of the deterministic simulation, not an escape
// from it.
func TestCrashRecoveryDeterminism(t *testing.T) {
	const n = 6
	clean := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(7), abcl.WithReliable())
	plan := abcl.FaultPlan{}.WithCrash(1, clean.elapsed/4, clean.elapsed/12)
	opts := []abcl.Option{
		abcl.WithNodes(4), abcl.WithSeed(7),
		abcl.WithCheckpoint(clean.elapsed / 6),
		abcl.WithFaults(plan),
	}
	ringA, ringB := trace.NewRing(1<<15), trace.NewRing(1<<15)
	a := runQueens(t, n, append(opts, abcl.WithObserver(ringA))...)
	b := runQueens(t, n, append(opts, abcl.WithObserver(ringB))...)
	if a.stats != b.stats {
		t.Errorf("counters differ across identical crash runs:\n%+v\nvs\n%+v", a.stats, b.stats)
	}
	if a.elapsed != b.elapsed || a.solutions != b.solutions {
		t.Errorf("elapsed/answer differ: (%v, %d) vs (%v, %d)",
			a.elapsed, a.solutions, b.elapsed, b.solutions)
	}
	if a.elapsed > 3*(clean.elapsed+clean.elapsed/12) {
		t.Errorf("recovery took %v; fault-free %v", a.elapsed, clean.elapsed)
	}
	if ta, tb := ringA.Events(), ringB.Events(); !reflect.DeepEqual(ta, tb) {
		for i := range ta {
			if i < len(tb) && ta[i] != tb[i] {
				t.Errorf("trace diverges at %d:\n  %s\n  %s", i, ta[i], tb[i])
				break
			}
		}
		t.Errorf("traces differ (%d vs %d events)", len(ta), len(tb))
	}
}

// TestCrashBeforeFirstCheckpoint crashes so early that only the automatic
// baseline (round 0) checkpoint exists, twice in a row on the same node:
// recovery restarts the whole computation from its initial state each time
// and still completes exactly.
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	const n = 6
	clean := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(3), abcl.WithReliable())
	early := clean.elapsed / 50
	plan := abcl.FaultPlan{}.
		WithCrash(3, early, early).
		WithCrash(3, 3*early, early)
	// No WithCheckpoint: the crash plan alone attaches the subsystem with
	// only the baseline checkpoint.
	crashed := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(3), abcl.WithFaults(plan))
	if crashed.solutions != clean.solutions {
		t.Errorf("recover-from-baseline found %d solutions, want %d", crashed.solutions, clean.solutions)
	}
	c := crashed.stats
	if c.NodeCrashes != 2 || c.NodeRestarts != 2 {
		t.Errorf("crashes=%d restarts=%d, want 2/2", c.NodeCrashes, c.NodeRestarts)
	}
	if c.CkptRounds != 0 {
		t.Errorf("completed %d periodic rounds with checkpointing nominally off", c.CkptRounds)
	}
}
