package exp

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	abcl "repro"
	"repro/internal/machine"
	"repro/internal/runpack"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// seed is the placement seed of every rendered experiment; the runpack ids
// EXPERIMENTS.md pins for Figures 5 and 6 are packed with it.
const seed = 1

// section is one table or figure: its heading and its markdown renderer.
type section struct {
	title string
	write func(io.Writer) error
}

var tables = []section{
	{"Table 1 — Costs of basic operations", table1},
	{"Table 2 — Breakdown of intra-node message to dormant object", table2},
	{"Table 3 — Comparison of send/reply latency", table3},
	{"Table 4 — Scale of the N-queens program", table4},
	{"Table 5 — Measured per-path costs, N-queens N = 10 on 16 nodes", func(w io.Writer) error {
		r, err := PathBreakdown(10, 16, seed)
		if err == nil {
			WriteCostTable(w, r)
		}
		return err
	}},
	{"Table 6 — Ablations of the design decisions", table6},
	{"Table 7 — Contention: throughput against compatibility groups", table7},
	{"Table 8 — Crash recovery: the nqueens-crash-recover scenario", table8},
}

// NumTables is the number of tables WriteTable renders: the paper's Tables
// 1–4, the per-path costs of its Section 6, and Tables 6–8 of the ablations.
var NumTables = len(tables)

// WriteTable writes table n (1..NumTables) as the markdown table
// EXPERIMENTS.md embeds; n = 0 writes all of them, each under its heading.
func WriteTable(w io.Writer, n int) error {
	if n < 0 || n > len(tables) {
		return fmt.Errorf("unknown table %d (want 1-%d)", n, len(tables))
	}
	if n > 0 {
		return tables[n-1].write(w)
	}
	return writeAll(w, tables)
}

// WriteFigure writes Figure 5 or 6, or both for n = 0. big selects the
// paper's problem sizes (N = 13 in Figure 5, N = 12 added to Figure 6:
// minutes of CPU); a non-empty packDir packs every sweep point there and
// adds its runpack id to the row.
func WriteFigure(w io.Writer, n int, big bool, packDir string) error {
	fig5, fig6 := []int{8, 11}, []int{9, 10, 11}
	if big {
		fig5, fig6 = []int{8, 13}, append(fig6, 12)
	}
	figures := []section{
		{"Figure 5 — Speedup for N-queens", func(w io.Writer) error { return WriteFigure5(w, fig5, packDir) }},
		{"Figure 6 — Stack-based vs naive scheduling on 512 processors", func(w io.Writer) error { return WriteFigure6(w, fig6, packDir) }},
	}
	switch n {
	case 0:
		return writeAll(w, figures)
	case 5, 6:
		return figures[n-5].write(w)
	}
	return fmt.Errorf("unknown figure %d (want 5 or 6)", n)
}

func writeAll(w io.Writer, sections []section) error {
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "## %s\n\n", s.title)
		if err := s.write(w); err != nil {
			return err
		}
	}
	return nil
}

// header writes a markdown table's header row and rule.
func header(w io.Writer, cols ...any) {
	row(w, cols...)
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(cols)))
}

// row writes one markdown table row.
func row(w io.Writer, cells ...any) {
	fmt.Fprint(w, "|")
	for _, c := range cells {
		fmt.Fprintf(w, " %v |", c)
	}
	fmt.Fprintln(w)
}

// commas formats a count with thousands separators, as the paper prints it.
func commas[T int64 | uint64](n T) string {
	s := strconv.FormatUint(uint64(n), 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func table1(w io.Writer) error {
	rows, err := Table1(1000)
	if err != nil {
		return err
	}
	header(w, "Operation", "Paper (µs)", "Measured (µs)")
	for _, r := range rows {
		row(w, r.Name, fmt.Sprintf("%.1f", r.PaperUs), fmt.Sprintf("%.2f", r.SimUs))
	}
	return nil
}

func table2(w io.Writer) error {
	cfg, rows := machine.DefaultConfig(1), Table2()
	header(w, "Step", "Paper (instr)", "Measured (instr)")
	for i, r := range rows {
		sim := fmt.Sprint(r.Sim)
		if i == len(rows)-1 {
			sim += fmt.Sprintf(" (= %.1f µs at %v MHz, CPI %.1f)", cfg.InstrTime(int64(r.Sim)).Micros(), cfg.ClockMHz, cfg.CPI)
		}
		row(w, r.Name, r.Paper, sim)
	}
	return nil
}

func table3(w io.Writer) error {
	rows, err := Table3(100)
	if err != nil {
		return err
	}
	header(w, "System", "Instr", "Time (µs)", "Cycles", "Clock (MHz)", "Source")
	for _, r := range rows {
		row(w, r.System, r.Instr, fmt.Sprintf("%.1f", r.TimeUs), fmt.Sprintf("%.0f", r.Cycles),
			fmt.Sprintf("%.1f", r.ClockMHz), r.Source)
	}
	return nil
}

// table4 sets the paper's Table 4 beside the measured columns. The paper's
// N = 13 creation count is OCR-garbled in the published text ("4,636;210");
// its message count implies ~4.67 M.
func table4(w io.Writer) error {
	paper := [][]string{
		{"92", "2,056", "4,104", "130", "84 ms"},
		{"73,712", "~4.6 M", "9,349,765", "549,463", "461,955 ms"},
	}
	var measured [][]string
	for _, c := range Table4([]int{8, 13}) {
		measured = append(measured, []string{commas(c.Solutions), commas(c.Objects), commas(c.Messages),
			commas(int64(math.Round(c.MemKB))), commas(int64(math.Round(c.SeqElapsed.Millis()))) + " ms"})
	}
	header(w, "Quantity", "Paper N = 8", "Measured N = 8", "Paper N = 13", "Measured N = 13")
	for i, q := range []string{"# of solutions", "# of object creations", "# of messages",
		"Total memory used (KB)", "Elapsed time (sequential)"} {
		row(w, q, paper[0][i], measured[0][i], paper[1][i], measured[1][i])
	}
	return nil
}

func table6(w io.Writer) error {
	rows, err := Table6()
	if err != nil {
		return err
	}
	header(w, "Decision", "Variant", "Virtual time", "Also measured")
	for i, r := range rows {
		row(w, unlessRepeated(i, rows, func(r AblationRow) string { return r.Decision }), r.Variant, r.Time, r.Measured)
	}
	return nil
}

// unlessRepeated returns rows[i]'s group label, or "" when the row above
// has the same one: a group is labelled on its first row.
func unlessRepeated[R any](i int, rows []R, label func(R) string) string {
	if i > 0 && label(rows[i-1]) == label(rows[i]) {
		return ""
	}
	return label(rows[i])
}

func table7(w io.Writer) error {
	rows, err := Table7()
	if err != nil {
		return err
	}
	header(w, "Workload", "Variant", "Elapsed (virtual ms)", "Throughput (ops/ms)", "Peak invocations live in a group", "Speedup over serial")
	var serial float64
	for i, r := range rows {
		label := unlessRepeated(i, rows, func(r ContentionRow) string { return r.Workload })
		if label != "" {
			serial = r.Throughput
		}
		row(w, label, r.Variant, fmt.Sprintf("%.2f", r.Elapsed.Millis()), fmt.Sprintf("%.2f", r.Throughput),
			r.MaxLive, fmt.Sprintf("%.2f×", r.Throughput/serial))
	}
	return nil
}

// table8 sets the bundled crash-recovery scenario's fault-free baseline
// beside its crashed run; a broken assertion is an error, not a row.
func table8(w io.Writer) error {
	sp, err := scenario.Find("nqueens-crash-recover")
	if err != nil {
		return err
	}
	o, err := scenario.Run(sp)
	if err == nil && !o.OK() {
		err = fmt.Errorf("exp: %s: %s", sp.Name, strings.Join(o.Violations, "; "))
	}
	if err != nil {
		return err
	}
	b, f := o.Baseline, o.Faulted
	bc, fc := b.Report.Sched.Counters, f.Report.Sched.Counters
	header(w, "", "Fault-free baseline", "Crashed and recovered")
	row(w, "Answer", b.Invariant, f.Invariant)
	row(w, "Elapsed (virtual)", fmt.Sprintf("%.3f ms", b.Elapsed.Millis()),
		fmt.Sprintf("%.3f ms (%.2f×)", f.Elapsed.Millis(), float64(f.Elapsed)/float64(b.Elapsed)))
	row(w, "Checkpoint rounds / stable-store bytes", fmt.Sprintf("%d / %s", bc.CkptRounds, commas(bc.CkptBytes)),
		fmt.Sprintf("%d / %s", fc.CkptRounds, commas(fc.CkptBytes)))
	row(w, "Restarts / replayed in-flight messages", fmt.Sprintf("%d / %d", bc.NodeRestarts, bc.ReplayedMsgs),
		fmt.Sprintf("%d / %d", fc.NodeRestarts, fc.ReplayedMsgs))
	return nil
}

// WriteCostTable writes a report's per-path cost rows and the run's dormant
// fraction: Table 5, and what `abclsim -cost-table` prints after any run.
func WriteCostTable(w io.Writer, r *abcl.Report) {
	header(w, "Path", "Events", "Instr", "Share", "Instr/event", "Packets")
	for _, ps := range r.Profile.Paths {
		perEv := "—"
		if ps.Events > 0 {
			perEv = fmt.Sprintf("%.1f", ps.InstrPerEvent)
		}
		row(w, ps.Path, commas(ps.Events), commas(ps.Instr), fmt.Sprintf("%.1f %%", 100*ps.InstrShare), perEv, commas(ps.Packets))
	}
	row(w, "total", "", commas(r.Sched.TotalInstructions), "", "", "")
	fmt.Fprintf(w, "\nDormant fraction of local deliveries: %.0f %% (paper: ~75 %%, Section 6.3).\n", 100*r.Sched.Counters.DormantFraction())
}

// WriteFigure5 writes the speedup sweep over 1..512 processors for each
// problem size, one row per point.
func WriteFigure5(w io.Writer, sizes []int, packDir string) error {
	pts, err := Figure5(sizes, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, seed)
	if err != nil {
		return err
	}
	cols := []any{"N", "procs", "elapsed (virtual ms)", "speedup", "utilization"}
	if packDir != "" {
		cols = append(cols, "pack")
	}
	header(w, cols...)
	for _, p := range pts {
		cells, err := packIDs(packDir, []any{p.N, p.Procs, fmt.Sprintf("%.3f", p.Elapsed.Millis()),
			fmt.Sprintf("%.1f", p.Speedup), fmt.Sprintf("%.1f %%", 100*p.Utilization)}, p.spec)
		if err != nil {
			return err
		}
		row(w, cells...)
	}
	return nil
}

// WriteFigure6 writes naive against stack-based scheduling on 512
// processors, one row per problem size.
func WriteFigure6(w io.Writer, sizes []int, packDir string) error {
	const procs = 512
	rows, err := Figure6(sizes, procs, seed)
	if err != nil {
		return err
	}
	cols := []any{"N", "naive (virtual ms)", "stack (virtual ms)", "naive/stack − 1", "dormant fraction"}
	if packDir != "" {
		cols = append(cols, "naive pack", "stack pack")
	}
	header(w, cols...)
	for _, r := range rows {
		cells, err := packIDs(packDir, []any{r.N, fmt.Sprintf("%.3f", r.NaiveMs), fmt.Sprintf("%.3f", r.StackMs),
			fmt.Sprintf("%+.1f %%", r.SpeedupPct), fmt.Sprintf("%.0f %%", 100*r.DormantFrac)}, r.naive, r.stack)
		if err != nil {
			return err
		}
		row(w, cells...)
	}
	return nil
}

// packIDs appends to a row the artifact id of the runpack of each spec,
// written to packDir; with packing off it returns the row as it is. A pack
// re-executes its run under the deterministic tracer, so the id pins the
// row: `abclsim verify` replays and byte-compares it.
func packIDs(packDir string, cells []any, specs ...workload.Spec) ([]any, error) {
	for _, spec := range specs {
		if packDir == "" {
			break
		}
		p, _, err := runpack.Create(scenario.Spec{Spec: spec}, packDir)
		if err != nil {
			return nil, err
		}
		cells = append(cells, "`"+p.Manifest.ID+"`")
	}
	return cells, nil
}
