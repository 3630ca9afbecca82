// Command bench is the repository's benchmark: four whole-system workloads
// measured end to end with tracing off, and a separate traced pass that
// gives the per-layer numbers. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printMetrics lists the metrics by name with their units, one per line.
func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-18s %-32s %16.6f %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

func printHost(calMs float64) {
	fmt.Printf("host: %s %s/%s nproc=%d GOMAXPROCS=%d host.cal_ms=%.3f (reference %.3f)\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		calMs, CalRefS*1e3)
}

// emit prints a run's metrics and then the result object as the last line.
func emit(workload string, res result) {
	printMetrics(workload, res.Metrics)
	fmt.Printf("%s: reps_failed/reps = %d/%d\n", workload, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	// Two processors whatever the host has: the conservative executor's
	// worker count is part of its workload's definition.
	runtime.GOMAXPROCS(2)

	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 0, "length of the measured section (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and per-layer metrics")
		aa      = flag.Int("aa", 0, "A/A mode: compare two interleaved sets of this many runs per workload")
		out     = flag.String("out", ".bench_build/trace", "directory for the traced pass's trace-event JSON and CPU profile")
		probe   = flag.Bool("setup-probe", false, "internal: time one cold set-up and print it")
		small   = flag.Bool("small", false, "for the tests: tiny workloads whose numbers mean nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}

	sz := fullSize
	if *small {
		sz = smallSize
	}

	var w *workload
	if *name != "all" {
		if w = findWorkload(*name); w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}

	if *probe {
		if w == nil {
			fatal(fmt.Errorf("-setup-probe needs one workload"))
		}
		if err := setupProbe(w, sz, *seed); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	switch {
	case *aa > 0:
		if err := runAA(spec, sz, *aa, *seed, *seconds, *out); err != nil {
			fatal(err)
		}
	case w == nil:
		if err := runAll(sz, *seed, *seconds, *trace, *out); err != nil {
			fatal(err)
		}
	default:
		var res result
		if *trace == 1 {
			res, err = runTraced(w, sz, *seed, *seconds, *out)
		} else {
			res, err = runEndToEnd(w, sz, *seed, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		if err := spec.checkNames(res, *trace); err != nil {
			fatal(err)
		}
		emit(w.name, res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}
