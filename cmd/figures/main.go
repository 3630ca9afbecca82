// Command figures regenerates Figures 5 and 6 of the paper.
//
//	figures                 # both figures at default sizes
//	figures -figure 5       # speedup curves (N-queens vs node count)
//	figures -figure 6       # stack-based vs naive scheduling
//	figures -big            # the paper's full problem sizes (N=13 for
//	                        # figure 5, N=12 included in figure 6); several
//	                        # minutes of CPU
//	figures -csv            # machine-readable output
//	figures -pack out/      # also write one verifiable runpack per sweep
//	                        # point and print its artifact id per row
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps/nqueens"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/runpack"
	"repro/internal/scenario"
	"repro/internal/workload"
)

var (
	figure  = flag.Int("figure", 0, "figure to print (5 or 6); 0 prints both")
	big     = flag.Bool("big", false, "use the paper's full problem sizes (minutes of CPU)")
	csv     = flag.Bool("csv", false, "CSV output")
	seed    = flag.Int64("seed", 1, "placement seed")
	packDir = flag.String("pack", "", "write a runpack per sweep point into this directory (see DESIGN.md §13)")
)

func main() {
	flag.Parse()
	switch *figure {
	case 0:
		figure5()
		fmt.Println()
		figure6()
	case 5:
		figure5()
	case 6:
		figure6()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown figure %d\n", *figure)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// packPoint writes the verifiable runpack for one sweep configuration and
// returns its artifact id ("-" when packing is off). The pack re-executes
// the run under the deterministic tracer, so the id pins the exact table
// row: `abclsim verify <pack>` replays and byte-compares it.
func packPoint(cfg workload.Spec) string {
	if *packDir == "" {
		return "-"
	}
	p, _, err := runpack.Create(scenario.Spec{Spec: cfg}, *packDir)
	check(err)
	return p.Manifest.ID
}

func figure5() {
	sizes := []int{8, 11}
	if *big {
		sizes = []int{8, 13}
	}
	procs := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	pts, err := exp.Figure5(sizes, procs, *seed)
	check(err)
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = packPoint(workload.Spec{Workload: "nqueens", N: p.N, Nodes: p.Procs, Seed: *seed})
	}

	if *csv {
		fmt.Println("figure,N,procs,elapsed_ms,speedup,utilization,pack_id")
		for i, p := range pts {
			fmt.Printf("5,%d,%d,%.3f,%.2f,%.3f,%s\n", p.N, p.Procs, p.Elapsed.Millis(), p.Speedup, p.Utilization, ids[i])
		}
		return
	}
	fmt.Printf("Figure 5: Speedup for N-queen problem (N = %v)\n", sizes)
	fmt.Println("----------------------------------------------------------------")
	fmt.Printf("%4s %6s %14s %10s %8s %8s\n", "N", "procs", "elapsed", "speedup", "ideal", "util")
	for i, p := range pts {
		fmt.Printf("%4d %6d %14v %10.1f %8d %8.2f  %s%s\n",
			p.N, p.Procs, p.Elapsed, p.Speedup, p.Procs, p.Utilization,
			bar(p.Speedup, float64(p.Procs)), packSuffix(ids[i]))
	}
	for _, n := range sizes {
		seq := nqueens.Sequential(n, machine.DefaultConfig(1), 0)
		fmt.Printf("   (sequential reference N=%d: %v)\n", n, seq.Elapsed)
	}
	fmt.Println("   (paper: ~20x at 64 procs for N=8; 440x at 512 procs for N=13)")
}

func figure6() {
	sizes := []int{9, 10, 11}
	if *big {
		sizes = append(sizes, 12)
	}
	const procs = 512
	rows, err := exp.Figure6(sizes, procs, *seed)
	check(err)
	naiveIDs := make([]string, len(rows))
	stackIDs := make([]string, len(rows))
	for i, r := range rows {
		naiveIDs[i] = packPoint(workload.Spec{Workload: "nqueens", N: r.N, Nodes: procs, Seed: *seed, Policy: "naive"})
		stackIDs[i] = packPoint(workload.Spec{Workload: "nqueens", N: r.N, Nodes: procs, Seed: *seed, Policy: "stack"})
	}

	if *csv {
		fmt.Println("figure,N,naive_ms,stack_ms,speedup_pct,dormant_fraction,naive_pack_id,stack_pack_id")
		for i, r := range rows {
			fmt.Printf("6,%d,%.3f,%.3f,%.1f,%.3f,%s,%s\n", r.N, r.NaiveMs, r.StackMs, r.SpeedupPct, r.DormantFrac, naiveIDs[i], stackIDs[i])
		}
		return
	}
	fmt.Printf("Figure 6: Effect of stack scheduling (N-queens on %d procs)\n", procs)
	fmt.Println("----------------------------------------------------------------")
	fmt.Printf("%4s %16s %16s %10s %10s\n", "N", "naive(ms)", "stack(ms)", "speedup", "dormant")
	for i, r := range rows {
		fmt.Printf("%4d %16.1f %16.1f %9.1f%% %9.0f%%%s%s\n",
			r.N, r.NaiveMs, r.StackMs, r.SpeedupPct, 100*r.DormantFrac,
			packSuffix("naive "+naiveIDs[i]), packSuffix("stack "+stackIDs[i]))
	}
	fmt.Println("   (paper: ~30% speedup; ~75% of local messages to dormant objects)")
}

// packSuffix formats a pack annotation for table rows; empty when -pack is
// off so the default output is unchanged.
func packSuffix(s string) string {
	if *packDir == "" {
		return ""
	}
	return "  [" + s + "]"
}

// bar renders a small ASCII bar of achieved vs ideal speedup.
func bar(got, ideal float64) string {
	const width = 24
	frac := got / ideal
	if frac > 1 {
		frac = 1
	}
	n := int(frac*width + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}
