package workload

import (
	"errors"
	"fmt"
	"io"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/machine"
)

// app prepares a program at sp's parameters: it translates them into the
// app's own options once, judges them with the app's own check before
// anything is built, and returns the run on a system built from opts.
type app func(sp Spec) (runner, error)

type runner func(opts []abcl.Option) (Outcome, error)

// apps is the only name → program mapping outside bench/: each entry runs
// its program, states its answer and invariant, and renders the result
// lines abclsim prints for it.
var apps = map[string]app{
	"nqueens": func(sp Spec) (runner, error) {
		return func(opts []abcl.Option) (Outcome, error) {
			res, err := nqueens.Run(nqueens.Options{N: sp.N}, opts...)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				Answer:    fmt.Sprintf("solutions=%d objects=%d messages=%d", res.Solutions, res.Objects, res.Messages),
				Invariant: fmt.Sprintf("solutions=%d", res.Solutions),
				Elapsed:   res.Elapsed, Report: &res.Report,
				Lines: func(w io.Writer) {
					seq := nqueens.Sequential(sp.N, machine.DefaultConfig(1), 0)
					fmt.Fprintf(w, "N-queens N=%d on %d nodes (%s scheduling, %s placement)\n",
						sp.N, sp.Nodes, sp.Policy, sp.Placement)
					fmt.Fprintf(w, "  solutions        %d (expected %d)\n", res.Solutions, seq.Solutions)
					fmt.Fprintf(w, "  objects created  %d\n", res.Objects)
					fmt.Fprintf(w, "  messages         %d\n", res.Messages)
					fmt.Fprintf(w, "  elapsed          %v (sequential %v)\n", res.Elapsed, seq.Elapsed)
					fmt.Fprintf(w, "  speedup          %.1fx on %d nodes\n",
						float64(seq.Elapsed)/float64(res.Elapsed), sp.Nodes)
					fmt.Fprintf(w, "  utilization      %.1f%%\n", 100*res.Utilization)
					fmt.Fprintf(w, "  memory model     %.0f KB\n", float64(res.MemoryBytes)/1024)
				},
			}, nil
		}, nqueens.CheckN(sp.N)
	},
	"forkjoin": func(sp Spec) (runner, error) {
		return func(opts []abcl.Option) (Outcome, error) {
			sys, err := abcl.NewSystem(opts...)
			if err != nil {
				return Outcome{}, err
			}
			leaves, err := misc.RunForkJoinOn(sys, sp.Depth)
			if err != nil {
				return Outcome{}, err
			}
			rep := sys.Report()
			ans := fmt.Sprintf("leaves=%d", leaves)
			return Outcome{Answer: ans, Invariant: ans, Elapsed: rep.Sched.Elapsed, Report: &rep,
				Lines: func(w io.Writer) {
					fmt.Fprintf(w, "fork-join depth=%d on %d nodes: %d leaves (expected %d)\n",
						sp.Depth, sp.Nodes, leaves, int64(1)<<uint(sp.Depth))
				},
			}, nil
		}, misc.CheckDepth(sp.Depth)
	},
	"diffusion": func(sp Spec) (runner, error) {
		o := diffusion.Options{W: sp.Grid, H: sp.Grid, Iters: sp.GridIters, BlockPlace: !sp.Scatter}
		return func(opts []abcl.Option) (Outcome, error) {
			res, err := diffusion.Run(o, opts...)
			if err != nil {
				return Outcome{}, err
			}
			ans := fmt.Sprintf("residual=%.9g", res.Residual)
			return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report,
				Lines: func(w io.Writer) {
					place := "block"
					if sp.Scatter {
						place = "scatter"
					}
					fmt.Fprintf(w, "diffusion %dx%d, %d iterations on %d nodes (%s placement)\n",
						sp.Grid, sp.Grid, sp.GridIters, sp.Nodes, place)
					fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
					fmt.Fprintf(w, "  utilization   %.1f%%\n", 100*res.Utilization)
					fmt.Fprintf(w, "  residual      %.6g (sequential: %.6g)\n",
						res.Residual, diffusion.SequentialResidual(sp.Grid, sp.Grid, sp.GridIters))
				},
			}, nil
		}, diffusion.Check(o)
	},
	"hotkey": func(sp Spec) (runner, error) {
		cov, err := hotkey.ParseCoverage(sp.Coverage)
		o := hotkey.Options{Clients: sp.Clients, Ops: sp.Ops, WritePct: sp.WritePct, Coverage: cov}
		return func(opts []abcl.Option) (Outcome, error) {
			res, err := hotkey.Run(o, opts...)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				Answer: fmt.Sprintf("ops=%d reads=%d writes=%d final=%d", res.Ops, res.Reads, res.Writes, res.Final),
				// The op count and final value are interleaving-independent;
				// faults reorder the overlapped invocations but not these.
				Invariant: fmt.Sprintf("ops=%d final=%d", res.Ops, res.Final),
				Elapsed:   res.Elapsed, Report: &res.Report,
				Lines: func(w io.Writer) {
					fmt.Fprintf(w, "hotkey: %d clients x %d ops on %d nodes (coverage %s, %d%% writes)\n",
						sp.Clients, sp.Ops, sp.Nodes, sp.Coverage, sp.WritePct)
					fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
					fmt.Fprintf(w, "  throughput    %.1f ops/ms\n", res.Throughput)
					fmt.Fprintf(w, "  peak overlap  %d concurrent invocations\n", res.MaxLive)
					fmt.Fprintf(w, "  final value   %d (= %d writes; %d reads)\n", res.Final, res.Writes, res.Reads)
				},
			}, nil
		}, errors.Join(err, hotkey.Check(o, sp.Nodes))
	},
	"orderbook": func(sp Spec) (runner, error) {
		o := orderbook.Options{Clients: sp.Clients, Ops: sp.Ops, Grouped: !sp.Ungrouped}
		return func(opts []abcl.Option) (Outcome, error) {
			res, err := orderbook.Run(o, opts...)
			if err != nil {
				return Outcome{}, err
			}
			// The op mix is a function of (client, op index) alone, so the
			// whole ledger is fault-invariant.
			ans := fmt.Sprintf("ops=%d reads=%d deposits=%d transfers=%d total=%d",
				res.Ops, res.Reads, res.Deposits, res.Transfers, res.Total)
			return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report,
				Lines: func(w io.Writer) {
					fmt.Fprintf(w, "orderbook: %d clients x %d ops on %d nodes (grouped=%v)\n",
						sp.Clients, sp.Ops, sp.Nodes, !sp.Ungrouped)
					fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
					fmt.Fprintf(w, "  throughput    %.1f ops/ms\n", res.Throughput)
					fmt.Fprintf(w, "  peak overlap  %d concurrent invocations\n", res.MaxLive)
					fmt.Fprintf(w, "  ops           %d reads, %d deposits, %d transfers\n", res.Reads, res.Deposits, res.Transfers)
					fmt.Fprintf(w, "  conservation  total %d = initial + deposits %d\n", res.Total, res.WantTotal)
				},
			}, nil
		}, orderbook.Check(o, sp.Nodes)
	},
}

// Names returns the workload names the app table knows, sorted.
func Names() []string { return names(apps) }
