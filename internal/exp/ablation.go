package exp

import (
	"fmt"
	"runtime"

	abcl "repro"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/apps/pingpong"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationRow is one measured variant of a design decision (Table 6).
type AblationRow struct {
	Decision, Variant string // the decision and the run it is measured on; the setting changed
	Time, Measured    string // the virtual-time result with its unit; the decision's own counters
	run               func() (time, measured string, err error)
}

// nq9 is the shared baseline of the n-queens ablations: N = 9 on 64 nodes,
// seed 1, under nqueens.Run's random placement and the default depth-2
// chunk stock. Each row changes one setting.
var nq9 = workload.Spec{Workload: "nqueens", N: 9, Nodes: 64, Seed: seed}

// specRun runs sp, extra options winning, and formats its elapsed time and
// the counters measure picks.
func specRun(measure func(workload.Outcome) string, sp workload.Spec, extra ...abcl.Option) func() (string, string, error) {
	return func() (string, string, error) {
		o, err := workload.Run(sp, extra...)
		if err != nil {
			return "", "", err
		}
		return fmt.Sprintf("%.2f ms", o.Elapsed.Millis()), measure(o), nil
	}
}

func utilization(o workload.Outcome) string {
	return fmt.Sprintf("%.1f %% utilization", 100*o.Report.Sched.Utilization)
}

// Table6 runs the ablations, decision by decision, concurrently across
// GOMAXPROCS; rows come back in the listed order.
func Table6() ([]AblationRow, error) {
	var rows []AblationRow
	add := func(decision, variant string, run func() (string, string, error)) {
		rows = append(rows, AblationRow{Decision: decision, Variant: variant, run: run})
	}
	const onNQ9 = ", N-queens N = 9, 64 nodes"
	for _, depth := range []int{-1, 1, 2, 4} {
		sp, name := nq9, fmt.Sprintf("depth %d", depth)
		if sp.Stock = depth; depth < 0 {
			name = "no stock"
		}
		add("Chunk stock (§5.2)"+onNQ9, name, specRun(func(o workload.Outcome) string {
			return commas(o.Report.Sched.Counters.StockMisses) + " stock misses"
		}, sp))
	}
	for _, p := range []string{"random", "rr", "load", "depth"} {
		sp := nq9
		sp.Placement = p
		add("Placement (§2.5)"+onNQ9, p, specRun(utilization, sp))
	}
	// At 64 nodes stack chains never reach a bound; at 16 the shallowest one preempts.
	nq9p16 := workload.Spec{Workload: "nqueens", N: 9, Nodes: 16, Seed: seed}
	for _, d := range []int{2, 8, 64, 512} {
		add("Preemption bound (§4.3), N-queens N = 9, 16 nodes", fmt.Sprint(d), specRun(func(o workload.Outcome) string {
			return commas(o.Report.Sched.Counters.Preemptions) + " preemptions"
		}, nq9p16, abcl.WithMaxStackDepth(d)))
	}
	for _, m := range []struct {
		decision, name string
		set            func(*machine.Config)
	}{
		{"Topology", "torus", func(c *machine.Config) { c.Topology = machine.SquarishTorus(nq9.Nodes) }},
		{"Topology", "mesh", func(c *machine.Config) { c.Topology = machine.Mesh2D{W: 8, H: 8} }},
		{"Topology", "hypercube", func(c *machine.Config) { c.Topology = machine.Hypercube{} }},
		{"Topology", "full", func(c *machine.Config) { c.Topology = machine.FullyConnected{} }},
		{"Arrival notification (§5)", "polling", func(c *machine.Config) { c.Notify = machine.NotifyPolling }},
		{"Arrival notification (§5)", "interrupt", func(c *machine.Config) { c.Notify = machine.NotifyInterrupt }},
	} {
		cfg := machine.DefaultConfig(nq9.Nodes)
		m.set(&cfg)
		add(m.decision+onNQ9, m.name, specRun(func(workload.Outcome) string { return "" }, nq9, abcl.WithMachine(cfg)))
	}
	cpu := machine.DefaultConfig(1)
	for _, h := range []struct {
		name  string
		hints abcl.SendHint
	}{{"none", 0}, {"known local", abcl.HintKnownLocal}, {"leaf method", abcl.HintLeafMethod}, {"fully optimized", abcl.HintFullyOptimized}} {
		add("Send-site hints (§6.1), 1 000 sends to a dormant object", h.name, func() (string, string, error) {
			r, err := pingpong.PastLocalHinted(1000, h.hints)
			us := r.PerOp.Micros()
			return fmt.Sprintf("%.3f µs per send", us), fmt.Sprintf("%.0f instructions", us*cpu.ClockMHz/cpu.CPI), err
		})
	}
	for _, name := range []string{"block", "scatter"} {
		sp := workload.Spec{Workload: "diffusion", Nodes: 8, Grid: 16, GridIters: 10, Scatter: name == "scatter"}
		add("Diffusion placement, 16 × 16 grid, 10 iterations, 8 nodes", name, specRun(func(o workload.Outcome) string {
			return utilization(o) + ", " + commas(o.Report.Sched.Counters.RemoteSends) + " remote sends"
		}, sp))
	}
	for _, v := range []struct {
		name string
		opts []abcl.Option
	}{
		{"plain", nil},
		{"25 µs batching", []abcl.Option{abcl.WithBatching(25*abcl.Microsecond, 0)}},
		{"reliable", []abcl.Option{abcl.WithReliable()}},
		{"reliable, batching, 25 µs delayed acks", []abcl.Option{
			abcl.WithReliable(), abcl.WithBatching(25*abcl.Microsecond, 0), abcl.WithDelayedAcks(25 * abcl.Microsecond)}},
	} {
		add("Wire path (DESIGN §9), all-to-all, 16 nodes × 8 rounds", v.name, func() (string, string, error) {
			r, err := misc.RunAllToAll(misc.AllToAllOptions{Nodes: 16, Rounds: 8, Opts: v.opts})
			if err != nil {
				return "", "", err
			}
			return fmt.Sprintf("%.1f µs", r.Elapsed.Micros()), fmt.Sprintf("%s packets, %s acks, %.1f msgs per batch",
				commas(r.Packets), commas(r.Stats.AcksSent), r.Stats.MsgsPerBatch()), nil
		})
	}
	seq := nqueens.Sequential(10, machine.DefaultConfig(1), 0).Elapsed
	for _, p := range []int{256, 512} {
		sp := workload.Spec{Workload: "nqueens", N: 10, Nodes: p, Seed: seed,
			Reliable: true, BatchWindowNs: int64(10 * abcl.Microsecond), AckDelayNs: int64(500 * abcl.Microsecond)}
		add("Wire path on N-queens N = 10: reliable, 10 µs batching, 500 µs delayed acks", fmt.Sprintf("%d nodes", p),
			specRun(func(o workload.Outcome) string {
				return fmt.Sprintf("speedup %.1f, %s, %s packets", float64(seq)/float64(o.Elapsed), utilization(o), commas(o.Report.Wire.Packets))
			}, sp))
	}
	return rows, workload.ForEachIndexed(len(rows), runtime.GOMAXPROCS(0), func(i int) (err error) {
		r := &rows[i]
		if r.Time, r.Measured, err = r.run(); err != nil {
			err = fmt.Errorf("exp: ablation %s / %s: %w", r.Decision, r.Variant, err)
		}
		return err
	})
}

// ContentionRow is one variant of a multiactive workload (Table 7).
type ContentionRow struct {
	Workload, Variant string
	run               func() (elapsed sim.Time, throughput float64, maxLive int, err error)
	Elapsed           sim.Time
	Throughput        float64 // operations per virtual ms
	MaxLive           int     // peak invocations live at once in a compatibility group; 0 without groups
}

// Table7 runs the hot-key counter at each annotation coverage and the order
// book without and with its groups, each on one request stream throughout.
func Table7() ([]ContentionRow, error) {
	const hot, book = "hot-key counter, 16 nodes, 16 clients × 40 ops", "order book, 8 nodes, 12 clients × 40 ops"
	hk := func(cov hotkey.Coverage) func() (sim.Time, float64, int, error) {
		return func() (sim.Time, float64, int, error) {
			r, err := hotkey.Run(hotkey.Options{Clients: 16, Ops: 40, WritePct: 20, Coverage: cov}, abcl.WithNodes(16))
			return r.Elapsed, r.Throughput, r.MaxLive, err
		}
	}
	ob := func(grouped bool) func() (sim.Time, float64, int, error) {
		return func() (sim.Time, float64, int, error) {
			r, err := orderbook.Run(orderbook.Options{Clients: 12, Ops: 40, Grouped: grouped}, abcl.WithNodes(8))
			return r.Elapsed, r.Throughput, r.MaxLive, err
		}
	}
	rows := []ContentionRow{
		{Workload: hot, Variant: "none (serial)", run: hk(hotkey.CoverNone)},
		{Workload: hot, Variant: "partial: reads grouped", run: hk(hotkey.CoverPartial)},
		{Workload: hot, Variant: "full: reads and writes grouped", run: hk(hotkey.CoverFull)},
		{Workload: book, Variant: "ungrouped (serial)", run: ob(false)},
		{Workload: book, Variant: "grouped reads and deposits", run: ob(true)},
	}
	return rows, workload.ForEachIndexed(len(rows), runtime.GOMAXPROCS(0), func(i int) (err error) {
		r := &rows[i]
		if r.Elapsed, r.Throughput, r.MaxLive, err = r.run(); err != nil {
			err = fmt.Errorf("exp: contention %s / %s: %w", r.Workload, r.Variant, err)
		}
		return err
	})
}
