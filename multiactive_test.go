package abcl_test

import (
	"testing"

	abcl "repro"
	"repro/internal/apps/hotkey"
)

// runGroupedContention builds a small contended workload through the
// facade builder — a hot object on node 0 whose only method blocks on a
// round trip to a remote echo shard, annotated with one compatibility
// group — and runs it to quiescence. It returns the completed-operation
// count (from object state) plus the run's virtual time and counters.
func runGroupedContention(t *testing.T, extra ...abcl.Option) (int64, abcl.Time, abcl.Counters) {
	t.Helper()
	const (
		nodes   = 4
		clients = 6
		opsEach = 12
	)
	opts := append([]abcl.Option{abcl.WithNodes(nodes), abcl.WithSeed(11)}, extra...)
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}

	ping := sys.Pattern("mx.ping", 0)
	req := sys.Pattern("mx.req", 0)
	step := sys.Pattern("mx.step", 1)

	echo := sys.Class("mx.echo", 0, nil).
		Method(ping, func(ctx *abcl.Ctx) {
			ctx.Charge(300)
			ctx.Reply(abcl.Int(0))
		})
	shards := make([]abcl.Address, nodes-1)
	for i := range shards {
		shards[i] = sys.NewObjectOn(i+1, echo)
	}

	hot := sys.Class("mx.hot", 2, func(ic *abcl.InitCtx) {
		ic.SetState(0, abcl.Int(0)) // completed requests
		ic.SetState(1, abcl.Int(0)) // shard cursor
	}).
		Method(req, func(ctx *abcl.Ctx) {
			cur := ctx.State(1).Int()
			ctx.SetState(1, abcl.Int(cur+1))
			shard := shards[cur%int64(len(shards))]
			ctx.SendNow(shard, ping, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
				ctx.Reply(abcl.Int(0))
			})
		}).
		Group("reqs", req)
	hotAddr := sys.NewObjectOn(0, hot)

	client := sys.Class("mx.client", 0, nil).
		Method(step, func(ctx *abcl.Ctx) {
			rem := ctx.Arg(0).Int()
			if rem == 0 {
				return
			}
			ctx.SendNow(hotAddr, req, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SendPast(ctx.Self(), step, abcl.Int(rem-1))
			})
		})
	for i := 0; i < clients; i++ {
		c := sys.NewObjectOn(1+i%(nodes-1), client)
		sys.Send(c, step, abcl.Int(opsEach))
	}

	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	done := hotAddr.Obj.State(0).Int()
	if done != clients*opsEach {
		t.Fatalf("completed %d requests, want %d", done, clients*opsEach)
	}
	rep := sys.Report()
	return done, rep.Sched.Elapsed, rep.Sched.Counters
}

// The conservative parallel executor must produce byte-identical results
// for multiactive schedules: per-group ready queues are part of node state
// and must not introduce cross-lane nondeterminism.
func TestMultiactiveParallelEquivalence(t *testing.T) {
	seqDone, seqElapsed, seqStats := runGroupedContention(t)
	parDone, parElapsed, parStats := runGroupedContention(t, abcl.WithExecutor(abcl.Conservative(4)))
	if seqDone != parDone {
		t.Errorf("completed ops diverge: sequential %d, parallel %d", seqDone, parDone)
	}
	if seqElapsed != parElapsed {
		t.Errorf("virtual time diverges: sequential %v, parallel %v", seqElapsed, parElapsed)
	}
	if seqStats != parStats {
		t.Errorf("counters diverge:\nsequential %+v\nparallel   %+v", seqStats, parStats)
	}
}

// Crashing the counter's node mid-run — while grouped invocations are
// overlapped inside their compatibility groups — must roll back to the
// last checkpoint and replay to the same ledger: per-group queues are
// captured and restored with the rest of the node state, and the
// workload keeps its operation counts in object state so the rollback
// rewinds them consistently (the host-write rule).
func TestCrashRestartMidGroup(t *testing.T) {
	base := hotkey.Options{Clients: 8, Ops: 20, Coverage: hotkey.CoverFull}
	sysOpts := []abcl.Option{
		abcl.WithNodes(8),
		abcl.WithCheckpoint(500_000), // 500µs rounds; the run takes ~3.4ms
	}
	clean, err := hotkey.Run(base, sysOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if clean.MaxLive < 2 {
		t.Fatalf("workload never overlapped invocations (maxLive=%d); crash would not land mid-group", clean.MaxLive)
	}

	res, err := hotkey.Run(base, append(sysOpts, abcl.WithFaults(abcl.FaultPlan{Crashes: []abcl.NodeCrash{
		{Node: 0, At: 1_500_000, RestartAfter: 300_000},
	}}))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodeRestarts == 0 {
		t.Error("no node restart recorded; the crash did not land")
	}
	if res.Report.Ckpt.Rounds == 0 {
		t.Error("no checkpoint rounds completed")
	}
	if res.Ops != clean.Ops || res.Final != clean.Final {
		t.Errorf("recovery changed the ledger: ops=%d final=%d, want ops=%d final=%d",
			res.Ops, res.Final, clean.Ops, clean.Final)
	}
	if res.Elapsed <= clean.Elapsed {
		t.Errorf("crashed run finished in %v, not slower than clean %v", res.Elapsed, clean.Elapsed)
	}
}
