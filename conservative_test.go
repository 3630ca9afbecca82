package abcl_test

import (
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/conformance"
)

// TestConservativeEquivalence: the conservative parallel executor is
// byte-identical to the sequential engine — same observations, same full
// report (virtual time, all counters) — on every program below.
func TestConservativeEquivalence(t *testing.T) {
	type observed struct {
		obs any
		rep abcl.Report
	}
	rows := []struct {
		name string
		run  func(t *testing.T, exec abcl.Option) any
	}{
		// The 25 generated conformance programs, through the facade.
		{"conformance", func(t *testing.T, exec abcl.Option) any {
			var out []observed
			for seed := int64(1); seed <= 25; seed++ {
				nodes := 2 + int(seed)%6
				p := conformance.Generate(seed, nodes)
				p.Reset()
				sys, err := abcl.NewSystem(abcl.WithNodes(nodes), abcl.WithSeed(1), exec)
				if err != nil {
					t.Fatal(err)
				}
				inject := p.Build(sys.RT)
				inject()
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				out = append(out, observed{p.Observe(sys.RT), sys.Report()})
			}
			return out
		}},
		// Every lane sends to every other: each window closes on cross-lane
		// births for all of them.
		{"alltoall", func(t *testing.T, exec abcl.Option) any {
			res, err := misc.RunAllToAll(misc.AllToAllOptions{
				Nodes: 8, Rounds: 6, Opts: []abcl.Option{exec},
			})
			if err != nil {
				t.Fatal(err)
			}
			// SyncWindows is executor bookkeeping, not a simulation result.
			res.SyncWindows = 0
			return res
		}},
		// Fault injection draws from per-link random streams on the sending
		// lane, under the full reliable protocol with coalesced (delayed)
		// acks.
		{"lossy-hotkey", func(t *testing.T, exec abcl.Option) any {
			res, err := hotkey.Run(hotkey.Options{Clients: 6, Ops: 8},
				abcl.WithNodes(4), abcl.WithSeed(7),
				abcl.WithFaults(abcl.UniformFaults(0.10, 0.05, 2*abcl.Microsecond)),
				abcl.WithDelayedAcks(3*abcl.Microsecond),
				exec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		// The profiler's accumulators live on the machine nodes, one per
		// lane: the whole profile — path rows, class and group tables, time
		// slices — must come out the same, and the race detector watches the
		// lanes charge them concurrently.
		{"profiled-hotkey", func(t *testing.T, exec abcl.Option) any {
			res, err := hotkey.Run(hotkey.Options{Clients: 6, Ops: 8, Coverage: hotkey.CoverFull},
				abcl.WithNodes(4), abcl.WithSeed(7),
				abcl.WithFaults(abcl.UniformFaults(0.10, 0.05, 2*abcl.Microsecond)),
				abcl.WithDelayedAcks(3*abcl.Microsecond),
				abcl.WithProfiler(abcl.ProfileOptions{Window: 20 * abcl.Microsecond}),
				exec)
			if err != nil {
				t.Fatal(err)
			}
			if p := res.Report.Profile; p == nil || len(p.Slices) == 0 || len(p.Classes) == 0 || len(p.Groups) == 0 {
				t.Fatalf("profile lacks slices, classes or groups: %+v", p)
			}
			return res
		}},
		// Creation-heavy traffic: the remote chunk-stock path pre-seeds a
		// target's chunks from the requester's lane.
		{"forkjoin", func(t *testing.T, exec abcl.Option) any {
			sys, err := abcl.NewSystem(abcl.WithNodes(6), abcl.WithSeed(5), exec)
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := misc.RunForkJoinOn(sys, 6)
			if err != nil {
				t.Fatal(err)
			}
			return observed{leaves, sys.Report()}
		}},
		// The paper's program under random placement: every requester carves
		// its targets' chunks on its own lane, from its worker's slot of the
		// object arena, and a board is carved on the lane that spawns the
		// child and read on the lane that expands it.
		{"nqueens", func(t *testing.T, exec abcl.Option) any {
			res, err := nqueens.Run(nqueens.Options{N: 7}, abcl.WithNodes(8), abcl.WithSeed(3), exec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solutions != 40 || res.Stats.StockHits == 0 {
				t.Fatalf("solutions=%d stock hits=%d, want 40 and a used stock", res.Solutions, res.Stats.StockHits)
			}
			return res
		}},
		// The same program on the benchmark's lossless reliable path: every
		// flush deadline reserves its position on the node's lane and the
		// node's one flush timer stands at it, so the barrier settles those
		// numbers in records the window's events keep lending and taking back.
		{"relbatch-nqueens", func(t *testing.T, exec abcl.Option) any {
			res, err := nqueens.Run(nqueens.Options{N: 7}, abcl.WithNodes(8), abcl.WithSeed(3),
				abcl.WithPlacement(abcl.PlaceRandom), abcl.WithReliable(),
				abcl.WithBatching(10*abcl.Microsecond, 0), abcl.WithDelayedAcks(500*abcl.Microsecond), exec)
			if err != nil {
				t.Fatal(err)
			}
			if c := res.Stats; res.Solutions != 40 || c.BatchesSent == 0 || c.AcksCoalesced == 0 || c.Retransmits != 0 {
				t.Fatalf("solutions=%d batches=%d coalesced=%d retransmits=%d, want 40, batching and coalescing, no retry",
					res.Solutions, c.BatchesSent, c.AcksCoalesced, c.Retransmits)
			}
			return res
		}},
		// Selective reception across lanes: a producer and a consumer on
		// their own nodes drive a capacity-1 buffer on a third. The consumer
		// asks first, so the buffer waits (Ctx.WaitFor) for a put once and
		// for a take after every put.
		{"bounded-buffer", func(t *testing.T, exec abcl.Option) any {
			const pairs = 40
			sys, err := abcl.NewSystem(abcl.WithNodes(4), abcl.WithSeed(3), exec)
			if err != nil {
				t.Fatal(err)
			}
			bb := misc.BuildBoundedBuffer(sys)
			produce := sys.Pattern("t.produce", 0)
			consume := sys.Pattern("t.consume", 0)
			var buf abcl.Address
			var got []int64
			producer := sys.Class("t.producer", 0, nil).Method(produce, func(ctx *abcl.Ctx) {
				ctx.Charge(5000) // let the first take find the buffer empty
				for i := int64(1); i <= pairs; i++ {
					ctx.SendPast(buf, bb.Put, abcl.Int(i*i))
				}
			})
			var take func(ctx *abcl.Ctx)
			take = func(ctx *abcl.Ctx) {
				if len(got) == pairs {
					return
				}
				ctx.SendNow(buf, bb.Take, nil, func(ctx *abcl.Ctx, v abcl.Value) {
					got = append(got, v.Int())
					take(ctx)
				})
			}
			consumer := sys.Class("t.consumer", 0, nil).Method(consume, take)
			buf = sys.NewObjectOn(0, bb.Cls)
			sys.Send(sys.NewObjectOn(1, producer), produce)
			sys.Send(sys.NewObjectOn(2, consumer), consume)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != pairs || got[0] != 1 || got[pairs-1] != pairs*pairs {
				t.Fatalf("took %v, want the %d squares in order", got, pairs)
			}
			return observed{got, sys.Report()}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			seq := r.run(t, abcl.WithExecutor(abcl.Sequential()))
			par := r.run(t, abcl.WithExecutor(abcl.Conservative(4)))
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("Conservative(4) diverged from Sequential():\nseq %+v\npar %+v", seq, par)
			}
		})
	}
}
