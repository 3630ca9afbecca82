// Package exp defines the experiments as testable functions: each table and
// figure of the paper's evaluation, and each ablation table (6–8), has a
// generator returning structured rows and one markdown renderer (render.go)
// — the only way a result table is written; this package's tests hold the
// paper's to its published values. `abclsim tables` and `abclsim figures`
// print the renderings, and EXPERIMENTS.md embeds them as golden output that
// cmd/abclsim's tests re-render.
package exp

import (
	"fmt"
	"runtime"

	abcl "repro"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/pingpong"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table1Row is one basic-operation cost (paper's Table 1).
type Table1Row struct {
	Name    string
	PaperUs float64
	SimUs   float64
}

// Table1 measures the four basic operations.
func Table1(iters int) ([]Table1Row, error) {
	d, err := pingpong.PastLocal(iters)
	if err != nil {
		return nil, err
	}
	a, err := pingpong.PastLocalActive(iters)
	if err != nil {
		return nil, err
	}
	c, err := pingpong.CreateLocal(iters)
	if err != nil {
		return nil, err
	}
	r, err := pingpong.PastRemote(iters)
	if err != nil {
		return nil, err
	}
	return []Table1Row{
		{"Intra-node Message (to Dormant)", 2.3, d.PerOp.Micros()},
		{"Intra-node Message (to Active)", 9.6, a.PerOp.Micros()},
		{"Intra-node Creation", 2.1, c.PerOp.Micros()},
		{"Latency of Inter-node Message", 8.9, r.PerOp.Micros()},
	}, nil
}

// Table2Row is one step of the dormant-path breakdown (paper's Table 2).
type Table2Row struct {
	Name  string
	Paper int
	Sim   int
}

// Table2 returns the instruction breakdown plus the totals row.
func Table2() []Table2Row {
	cost := machine.DefaultCost()
	return []Table2Row{
		{"Check Locality", 3, cost.CheckLocality},
		{"Lookup and Call", 5, cost.LookupCall},
		{"Switch VFTP to Active Mode", 3, cost.SwitchVFTPActive},
		{"Execution of Method Body", 0, 0},
		{"Check Message Queue", 3, cost.CheckMsgQueue},
		{"Switch VFTP to Dormant Mode", 3, cost.SwitchVFTPDormant},
		{"Polling of Remote Message", 5, cost.PollRemote},
		{"Adjusting Stack Pointer and Return", 3, cost.StackReturn},
		{"Total", 25, cost.DormantPath()},
	}
}

// Table3Row is one system's send/reply latency (paper's Table 3).
type Table3Row struct {
	System   string
	Instr    int
	TimeUs   float64
	Cycles   float64
	ClockMHz float64
	Source   string
}

// Table3 measures this simulation's request-reply cycle and lines it up
// against the paper's own figure and the fine-grain-machine literature
// constants it compares to.
func Table3(iters int) ([]Table3Row, error) {
	now, err := pingpong.NowRemote(iters)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(2)
	cycles := now.PerOp.Micros() * cfg.ClockMHz
	instr := int(cycles/cfg.CPI + 0.5)
	return []Table3Row{
		{"ABCL/onAP1000", instr, now.PerOp.Micros(), cycles, cfg.ClockMHz, "this simulation"},
		{"ABCL/onAP1000 (paper)", 160, 17.8, 450, 25.0, "paper's measurement"},
		{"ABCL/onEM4 [14]", 100, 8.8, 110, 12.5, "literature"},
		{"CST (on J-Machine) [5]", 110, 4.4, 220, 50.0, "literature"},
	}, nil
}

// Table4Col is one problem-size column of the paper's Table 4.
type Table4Col struct {
	N          int
	Solutions  int64
	Objects    int64
	Messages   int64
	MemKB      float64
	SeqElapsed sim.Time
}

// Table4 computes the scale of the N-queens program for each size. The
// counts are exact properties of the search tree; the sequential time uses
// the calibrated work model.
func Table4(ns []int) []Table4Col {
	out := make([]Table4Col, 0, len(ns))
	for _, n := range ns {
		seq := nqueens.Sequential(n, machine.DefaultConfig(1), 0)
		objs := seq.TreeNodes
		msgs := 2*objs + 1
		out = append(out, Table4Col{
			N:          n,
			Solutions:  seq.Solutions,
			Objects:    objs,
			Messages:   msgs,
			MemKB:      float64(objs*64+msgs*28) / 1024,
			SeqElapsed: seq.Elapsed,
		})
	}
	return out
}

// PathBreakdown runs an N-queens search and returns its report, whose
// profile is the cost attribution — per-path rows and the per-class
// breakdown, the live counterpart of Section 6's message-path cost
// taxonomy — and whose counters give the dormant fraction (the paper's
// "approximately 75%", Section 6.3).
func PathBreakdown(n, nodes int, seed int64) (*abcl.Report, error) {
	o, err := workload.Run(queens(n, nodes, seed))
	if err != nil {
		return nil, fmt.Errorf("exp: path breakdown N=%d P=%d: %w", n, nodes, err)
	}
	return o.Report, nil
}

// queens is the run spec of one N-queens experiment point: the one
// description a figure's row is run from and, with -pack, packed from.
func queens(n, nodes int, seed int64) workload.Spec {
	return workload.Spec{Workload: "nqueens", N: n, Nodes: nodes, Seed: seed}
}

// SpeedupPoint is one point of the paper's Figure 5.
type SpeedupPoint struct {
	N           int
	Procs       int
	Elapsed     sim.Time
	Speedup     float64
	Utilization float64
	spec        workload.Spec // the run, as WriteFigure5 packs it
}

// Figure5 sweeps node counts for each problem size, computing speedup
// against the sequential baseline. The sweep points are independent
// simulations and run concurrently across GOMAXPROCS; the returned order is
// the same nested (size, procs) order as a sequential sweep.
func Figure5(ns, procs []int, seed int64) ([]SpeedupPoint, error) {
	seqElapsed := make(map[int]sim.Time, len(ns))
	for _, n := range ns {
		seqElapsed[n] = nqueens.Sequential(n, machine.DefaultConfig(1), 0).Elapsed
	}
	out := make([]SpeedupPoint, len(ns)*len(procs))
	err := workload.ForEachIndexed(len(out), runtime.GOMAXPROCS(0), func(i int) error {
		n, p := ns[i/len(procs)], procs[i%len(procs)]
		sp := queens(n, p, seed)
		o, err := workload.Run(sp)
		if err != nil {
			return fmt.Errorf("exp: figure 5 N=%d P=%d: %w", n, p, err)
		}
		out[i] = SpeedupPoint{
			N:           n,
			Procs:       p,
			Elapsed:     o.Elapsed,
			Speedup:     float64(seqElapsed[n]) / float64(o.Elapsed),
			Utilization: o.Report.Sched.Utilization,
			spec:        sp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6Row is one problem size of the paper's Figure 6.
type Figure6Row struct {
	N           int
	NaiveMs     float64
	StackMs     float64
	SpeedupPct  float64 // naive/stack - 1, in percent
	DormantFrac float64 // fraction of local messages to dormant objects
	naive       workload.Spec
	stack       workload.Spec // the two runs, as WriteFigure6 packs them
}

// Figure6 compares naive and stack-based scheduling on the N-queens
// programs at the given node count. Problem sizes run concurrently across
// GOMAXPROCS; row order matches the input sizes.
func Figure6(ns []int, procs int, seed int64) ([]Figure6Row, error) {
	out := make([]Figure6Row, len(ns))
	err := workload.ForEachIndexed(len(ns), runtime.GOMAXPROCS(0), func(i int) error {
		n := ns[i]
		naive, stack := queens(n, procs, seed), queens(n, procs, seed)
		naive.Policy, stack.Policy = "naive", "stack"
		st, err := workload.Run(stack)
		if err != nil {
			return fmt.Errorf("exp: figure 6 N=%d stack: %w", n, err)
		}
		nv, err := workload.Run(naive)
		if err != nil {
			return fmt.Errorf("exp: figure 6 N=%d naive: %w", n, err)
		}
		out[i] = Figure6Row{
			N:           n,
			NaiveMs:     nv.Elapsed.Millis(),
			StackMs:     st.Elapsed.Millis(),
			SpeedupPct:  100 * (float64(nv.Elapsed)/float64(st.Elapsed) - 1),
			DormantFrac: st.Report.Sched.Counters.DormantFraction(),
			naive:       naive,
			stack:       stack,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
