// Ablation benchmarks: EXPERIMENTS.md's reproduction path for the design
// decisions called out in DESIGN.md. Each runs its experiment on the
// simulator and reports the *virtual-time* quantity as a custom metric
// (virtual-ms, speedup, …). The paper's own tables and figures are
// internal/exp (`abclsim tables`, `abclsim figures`, exp_test.go);
// wall-clock has one ruler, `make bench`, so the ns/op printed here is not
// tracked anywhere.
//
//	go test -run xxx -bench . -benchtime 1x .
package abcl_test

import (
	"fmt"
	"testing"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/core"
	"repro/internal/machine"
)

// --- Ablations -------------------------------------------------------------

// Chunk-stock prefetch vs blocking round-trip creation (Section 5.2).
func BenchmarkAblation_ChunkStock(b *testing.B) {
	for _, depth := range []int{-1, 1, 2, 4} {
		name := fmt.Sprintf("stock%d", depth)
		if depth < 0 {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			var misses uint64
			stock := abcl.WithoutChunkStock()
			if depth > 0 {
				stock = abcl.WithChunkStock(depth)
			}
			for i := 0; i < b.N; i++ {
				res, err := nqueens.Run(nqueens.Options{N: 9}, abcl.WithNodes(64), abcl.WithSeed(1), stock)
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
				misses = res.Stats.StockMisses
			}
			b.ReportMetric(ms, "virtual-ms")
			b.ReportMetric(float64(misses), "stock-misses")
		})
	}
}

// Placement policies for remote creation (Section 2.5's locality control).
func BenchmarkAblation_Placement(b *testing.B) {
	for _, p := range []abcl.Placement{
		abcl.PlaceRandom, abcl.PlaceRoundRobin, abcl.PlaceLoadBased, abcl.PlaceDepthLocal,
	} {
		b.Run(p.Name(), func(b *testing.B) {
			var ms, util float64
			for i := 0; i < b.N; i++ {
				res, err := nqueens.Run(nqueens.Options{N: 9}, abcl.WithNodes(64), abcl.WithSeed(1), abcl.WithPlacement(p))
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
				util = res.Utilization
			}
			b.ReportMetric(ms, "virtual-ms")
			b.ReportMetric(util, "utilization")
		})
	}
}

// Preemption bound: how deep stack-based chaining may grow before the
// scheduler preempts to the queue (Section 4.3).
func BenchmarkAblation_MaxStackDepth(b *testing.B) {
	for _, d := range []int{2, 8, 64, 512} {
		b.Run(fmt.Sprintf("depth%d", d), func(b *testing.B) {
			var ms float64
			var preempts uint64
			for i := 0; i < b.N; i++ {
				res, err := nqueens.Run(nqueens.Options{N: 9}, abcl.WithNodes(16), abcl.WithSeed(1), abcl.WithMaxStackDepth(d))
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
				preempts = res.Stats.Preemptions
			}
			b.ReportMetric(ms, "virtual-ms")
			b.ReportMetric(float64(preempts), "preemptions")
		})
	}
}

// Interconnect topology: routing distance vs the software-dominated costs.
func BenchmarkAblation_Topology(b *testing.B) {
	topos := []struct {
		name string
		topo machine.Topology
	}{
		{"torus", machine.SquarishTorus(64)},
		{"mesh", machine.Mesh2D{W: 8, H: 8}},
		{"hypercube", machine.Hypercube{}},
		{"full", machine.FullyConnected{}},
	}
	for _, tc := range topos {
		b.Run(tc.name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(64)
				cfg.Topology = tc.topo
				sys, err := abcl.NewSystem(abcl.WithNodes(64), abcl.WithMachine(cfg), abcl.WithSeed(1))
				if err != nil {
					b.Fatal(err)
				}
				d := nqueens.Build(sys, 9, 0)
				d.Start()
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				res, err := d.Result()
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
			}
			b.ReportMetric(ms, "virtual-ms")
		})
	}
}

// Arrival notification: polling (AP1000/CM-5 style) vs interrupt
// (nCUBE/2/iPSC/2 style), Section 5. Polling taxes every method epilogue;
// interrupts tax every received packet.
func BenchmarkAblation_NotifyMode(b *testing.B) {
	for _, mode := range []machine.NotifyMode{machine.NotifyPolling, machine.NotifyInterrupt} {
		b.Run(mode.String(), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(64)
				cfg.Notify = mode
				sys, err := abcl.NewSystem(abcl.WithNodes(64), abcl.WithMachine(cfg), abcl.WithSeed(1))
				if err != nil {
					b.Fatal(err)
				}
				d := nqueens.Build(sys, 9, 0)
				d.Start()
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				res, err := d.Result()
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
			}
			b.ReportMetric(ms, "virtual-ms")
		})
	}
}

// The compile-time send optimizations of Section 6.1: the dormant-path
// overhead ladder from 25 instructions down to 8.
func BenchmarkAblation_SendHints(b *testing.B) {
	run := func(b *testing.B, hints core.SendHint) {
		var per float64
		for i := 0; i < b.N; i++ {
			sys, err := abcl.NewSystem(abcl.WithNodes(1))
			if err != nil {
				b.Fatal(err)
			}
			ping := sys.Pattern("ping", 0)
			kick := sys.Pattern("kick", 0)
			null := sys.Class("null", 0, nil)
			null.Method(ping, func(ctx *abcl.Ctx) {})
			var target abcl.Address
			var start, end abcl.Time
			drv := sys.Class("drv", 0, nil)
			drv.Method(kick, func(ctx *abcl.Ctx) {
				start = ctx.Now()
				for j := 0; j < 1000; j++ {
					ctx.SendPastHinted(target, ping, hints)
				}
				end = ctx.Now()
			})
			target = sys.NewObjectOn(0, null)
			d := sys.NewObjectOn(0, drv)
			sys.Send(d, kick)
			if err := sys.Run(); err != nil {
				b.Fatal(err)
			}
			per = (end - start).Micros() / 1000
		}
		b.ReportMetric(per, "virtual-µs/msg")
	}
	b.Run("none", func(b *testing.B) { run(b, 0) })
	b.Run("known-local", func(b *testing.B) { run(b, core.HintKnownLocal) })
	b.Run("leaf", func(b *testing.B) { run(b, core.HintLeafMethod) })
	b.Run("full", func(b *testing.B) { run(b, core.HintFullyOptimized) })
}

// Diffusion stencil: a join-heavy nearest-neighbour workload, the opposite
// communication pattern to N-queens (2% dormant fraction vs ~80%). Compares
// block placement (torus locality) against scatter.
func BenchmarkDiffusion(b *testing.B) {
	for _, blockPlace := range []bool{true, false} {
		name := "scatter"
		if blockPlace {
			name = "block"
		}
		b.Run(name, func(b *testing.B) {
			var ms, util float64
			for i := 0; i < b.N; i++ {
				res, err := diffusion.Run(diffusion.Options{
					W: 16, H: 16, Iters: 10, BlockPlace: blockPlace,
				}, abcl.WithNodes(16))
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Millis()
				util = res.Utilization
			}
			b.ReportMetric(ms, "virtual-ms")
			b.ReportMetric(util, "utilization")
		})
	}
}

// All-to-all exchange: the communication-dominated workload for the
// wire-path optimisations. Every node sends numbered messages to every other
// node; variants toggle per-link batching, the reliable protocol and
// delayed (coalesced) acks. The interesting metrics are virtual-time
// packets/op (how much the fixed per-packet launch cost is amortised),
// acks/op and msgs-per-batch.
func BenchmarkTable_AllToAll(b *testing.B) {
	const nodes, rounds = 16, 8
	variants := []struct {
		name string
		opts []abcl.Option
	}{
		{"plain", nil},
		{"batched", []abcl.Option{abcl.WithBatching(25*abcl.Microsecond, 0)}},
		{"reliable", []abcl.Option{abcl.WithReliable()}},
		{"reliable_coalesced", []abcl.Option{
			abcl.WithReliable(),
			abcl.WithBatching(25*abcl.Microsecond, 0),
			abcl.WithDelayedAcks(25 * abcl.Microsecond),
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var res *misc.AllToAllResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = misc.RunAllToAll(misc.AllToAllOptions{Nodes: nodes, Rounds: rounds, Opts: v.opts})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Elapsed.Micros(), "virtual-µs")
			b.ReportMetric(float64(res.Packets), "packets")
			b.ReportMetric(float64(res.Stats.AcksSent), "acks")
			b.ReportMetric(res.Stats.MsgsPerBatch(), "msgs-per-batch")
		})
	}
}

// Figure 5 with the full wire path on: the N-queens runs of exp.Figure5 but
// under the reliable protocol with per-link batching and delayed
// (coalesced) acks, for packet count and utilization
// comparison against the unbatched baseline. Reliable mode without the
// wire-path options would pay one ack packet per data packet (2x the
// packets); batching + ack coalescing brings the total back to ~2/3 of the
// *unreliable* baseline's count. The tree workload spreads its traffic over
// ~65k links (~2 records per link per run), so unlike the all-to-all
// exchange, per-link coalescing is density-limited here: packets drop ~1.5x,
// while utilization stays within schedule noise (±0.3%) of the baseline.
func BenchmarkFigure5_SpeedupBatched(b *testing.B) {
	const n = 10
	seq := nqueens.Sequential(n, machine.DefaultConfig(1), 0)
	for _, procs := range []int{256, 512} {
		b.Run(fmt.Sprintf("N%d_P%d", n, procs), func(b *testing.B) {
			var sp, util, pkts float64
			for i := 0; i < b.N; i++ {
				res, err := nqueens.Run(nqueens.Options{N: n}, abcl.WithNodes(procs), abcl.WithSeed(1),
					abcl.WithReliable(),
					abcl.WithBatching(10*abcl.Microsecond, 0),
					abcl.WithDelayedAcks(500*abcl.Microsecond))
				if err != nil {
					b.Fatal(err)
				}
				sp = float64(seq.Elapsed) / float64(res.Elapsed)
				util = res.Utilization
				pkts = float64(res.Packets)
			}
			b.ReportMetric(sp, "speedup")
			b.ReportMetric(util, "utilization")
			b.ReportMetric(pkts, "packets")
		})
	}
}

// Object migration service: cost of moving an object and of sending through
// its forwarder afterwards.
func BenchmarkMigrationForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := abcl.NewSystem(abcl.WithNodes(3))
		if err != nil {
			b.Fatal(err)
		}
		inc := sys.Pattern("inc", 0)
		kick := sys.Pattern("kick", 0)
		counter := sys.Class("counter", 1, func(ic *abcl.InitCtx) { ic.SetState(0, abcl.Int(0)) })
		counter.Method(inc, func(ctx *abcl.Ctx) {
			ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
		})
		target := sys.NewObjectOn(0, counter)
		drv := sys.Class("drv", 0, nil)
		drv.Method(kick, func(ctx *abcl.Ctx) {
			for j := 0; j < 100; j++ {
				ctx.SendPast(target, inc)
			}
		})
		d := sys.NewObjectOn(1, drv)
		sys.RT.Freeze()
		if err := sys.Net.Migrate(target.Obj, 2, nil); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		sys.Send(d, kick)
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		if got := sys.Report().Sched.Counters.Forwards; got != 100 {
			b.Fatalf("forwards = %d, want 100", got)
		}
	}
}

// --- Contention: throughput vs annotation coverage ------------------------

// BenchmarkHotKeyContention runs the hot-key counter workload at each
// annotation coverage level and reports virtual-time throughput plus the
// speedup over the unannotated serial baseline — the headline multiactive
// ablation (EXPERIMENTS.md). The host-side cost of the per-group ready
// queues is pinned as an allocation count by TestMessageAllocationBudget.
func BenchmarkHotKeyContention(b *testing.B) {
	opts := hotkey.Options{Clients: 16, Ops: 40, WritePct: 20}
	opts.Coverage = hotkey.CoverNone
	base, err := hotkey.Run(opts, abcl.WithNodes(16))
	if err != nil {
		b.Fatal(err)
	}
	for _, cov := range []hotkey.Coverage{hotkey.CoverNone, hotkey.CoverPartial, hotkey.CoverFull} {
		b.Run(cov.String(), func(b *testing.B) {
			var res hotkey.Result
			for i := 0; i < b.N; i++ {
				opts.Coverage = cov
				res, err = hotkey.Run(opts, abcl.WithNodes(16))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Throughput, "ops/virtual-ms")
			b.ReportMetric(res.Throughput/base.Throughput, "speedup")
			b.ReportMetric(float64(res.MaxLive), "peak-overlap")
		})
	}
}
