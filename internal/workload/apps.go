package workload

import (
	"errors"
	"fmt"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
)

// app prepares a program at sp's parameters: it translates them into the
// app's own options once, judges them with the app's own check before
// anything is built, and returns the run on a system built from opts.
type app func(sp Spec) (runner, error)

type runner func(opts []abcl.Option) (Outcome, error)

// apps is the only name → program mapping outside bench/.
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
				Elapsed:   res.Elapsed, Report: &res.Report, Result: res,
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
			return Outcome{Answer: ans, Invariant: ans, Elapsed: rep.Sched.Elapsed, Report: &rep, Result: leaves}, nil
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
			return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report, Result: res}, nil
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
				Elapsed:   res.Elapsed, Report: &res.Report, Result: res,
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
			return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report, Result: res}, nil
		}, orderbook.Check(o, sp.Nodes)
	},
}
