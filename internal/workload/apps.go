package workload

import (
	"errors"
	"fmt"
	"strings"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/apps/pingpong"
)

// app is one entry of the name → program table.
type app struct {
	// run executes the program at sp's parameters on a system built from
	// opts.
	run func(sp Spec, opts []abcl.Option) (Outcome, error)
	// check, when set, rejects parameters the program cannot run, before
	// anything is built: Validate and Run both ask it.
	check func(sp Spec) error
	// ownMachines marks a program that measures fixed machines it builds
	// itself: it is handed only Run's extra options, never the spec's.
	ownMachines bool
}

// apps is the only name → program mapping outside bench/.
var apps = map[string]app{
	"nqueens": {
		check: func(sp Spec) error { return nqueens.CheckN(sp.N) },
		run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
			res, err := nqueens.Run(nqueens.Options{N: sp.N}, opts...)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				Answer:    fmt.Sprintf("solutions=%d objects=%d messages=%d", res.Solutions, res.Objects, res.Messages),
				Invariant: fmt.Sprintf("solutions=%d", res.Solutions),
				Elapsed:   res.Elapsed, Report: &res.Report, Result: res,
			}, nil
		},
	},
	"forkjoin": {
		// A negative depth never reaches the tree's leaf case: the run
		// would fork without end.
		check: func(sp Spec) error {
			if sp.Depth < 0 {
				return fmt.Errorf("workload: forkjoin depth must be >= 0, got %d", sp.Depth)
			}
			return nil
		},
		run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
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
		},
	},
	"diffusion": {run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
		res, err := diffusion.Run(diffusion.Options{
			W: sp.Grid, H: sp.Grid, Iters: sp.GridIters, BlockPlace: !sp.Scatter,
		}, opts...)
		if err != nil {
			return Outcome{}, err
		}
		ans := fmt.Sprintf("residual=%.9g", res.Residual)
		return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report, Result: res}, nil
	}},
	"hotkey": {
		check: func(sp Spec) error {
			var errs []error
			if sp.Nodes < 2 {
				errs = append(errs, fmt.Errorf("workload: hotkey needs >= 2 nodes"))
			}
			_, err := hotkey.ParseCoverage(sp.Coverage)
			return errors.Join(append(errs, err)...)
		},
		run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
			cov, err := hotkey.ParseCoverage(sp.Coverage)
			if err != nil {
				return Outcome{}, err
			}
			res, err := hotkey.Run(hotkey.Options{
				Clients: sp.Clients, Ops: sp.Ops, WritePct: sp.WritePct, Coverage: cov, Reorder: sp.Reorder,
			}, opts...)
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
		},
	},
	"orderbook": {run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
		res, err := orderbook.Run(orderbook.Options{
			Clients: sp.Clients, Ops: sp.Ops, Grouped: !sp.Ungrouped, Reorder: sp.Reorder,
		}, opts...)
		if err != nil {
			return Outcome{}, err
		}
		// The op mix is a function of (client, op index) alone, so the whole
		// ledger is fault-invariant.
		ans := fmt.Sprintf("ops=%d reads=%d deposits=%d transfers=%d total=%d",
			res.Ops, res.Reads, res.Deposits, res.Transfers, res.Total)
		return Outcome{Answer: ans, Invariant: ans, Elapsed: res.Elapsed, Report: &res.Report, Result: res}, nil
	}},
	// pingpong is the paper's Table 1/3 microbenchmark set: five fixed one-
	// and two-node machines measuring one message path each. A fleet size,
	// a placement policy or a fault plan has no meaning on them, so the
	// spec's system settings do not apply (observer sinks still attach).
	"pingpong": {ownMachines: true, run: func(sp Spec, opts []abcl.Option) (Outcome, error) {
		now := sp.Iters / 10
		if now == 0 {
			now = 1
		}
		benches := []struct {
			name string
			run  func(int, ...abcl.Option) (pingpong.Result, error)
			n    int
		}{
			{"past-local", pingpong.PastLocal, sp.Iters},
			{"past-active", pingpong.PastLocalActive, sp.Iters},
			{"create-local", pingpong.CreateLocal, sp.Iters},
			{"past-remote", pingpong.PastRemote, sp.Iters},
			{"now-remote", pingpong.NowRemote, now},
		}
		results := make([]pingpong.Result, len(benches))
		parts := make([]string, len(benches))
		var total abcl.Time
		for i, b := range benches {
			r, err := b.run(b.n, opts...)
			if err != nil {
				return Outcome{}, err
			}
			results[i] = r
			parts[i] = fmt.Sprintf("%s=%d", b.name, int64(r.PerOp))
			total += r.Total
		}
		return Outcome{Answer: strings.Join(parts, " "), Elapsed: total, Result: results}, nil
	}},
}
