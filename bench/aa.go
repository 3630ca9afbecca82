package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// runChild measures one workload in a process of its own and returns the
// result object from the last line of its output, and the lines before it.
func runChild(workload string, sz size, seed int64, seconds float64, trace int, out string) (result, []byte, error) {
	outBytes, runErr := runSelf(sz,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", out)
	outBytes = bytes.TrimSpace(outBytes)
	cut := bytes.LastIndexByte(outBytes, '\n') + 1
	var res result
	if err := json.Unmarshal(outBytes[cut:], &res); err != nil {
		if runErr != nil {
			return result{}, nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, nil, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	return res, outBytes[:cut], nil
}

// runAll measures every workload, one process each, and prints the two
// ratios between workloads that ROADMAP.md sets targets for.
func runAll(sz size, seed int64, seconds float64, trace int, out string) error {
	failed := 0
	rate := map[string]float64{}
	for _, w := range workloads {
		res, report, err := runChild(w.name, sz, seed, seconds, trace, out)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", report)
		if !res.Correct {
			failed++
		}
		rate[w.name] = res.Metrics["msgs_per_s"].Value
	}
	if trace == 0 {
		fmt.Printf("derived, not gated: alltoall-cons2/alltoall-seq msgs_per_s = %.3f (parallel speed-up)\n",
			ratio(rate["alltoall-cons2"], rate["alltoall-seq"]))
		fmt.Printf("derived, not gated: nqueens-seq/nqueens-relbatch msgs_per_s = %.3f (cost of reliable+batched)\n",
			ratio(rate["nqueens-seq"], rate["nqueens-relbatch"]))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads had failed repetitions", failed, len(workloads))
	}
	return nil
}

// worseBy is how far b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(m specMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the benchmark's own repeatability check, the same one it is
// accepted by: two interleaved sets of n runs of this binary per workload,
// run i of either set on seed+i. For every end-to-end metric it prints both
// medians, how far the second is worse than the first, the quartile spread
// within each set and the bound. It fails when a difference or a spread
// exceeds the bound (setup_s is held to the difference only), and marks as
// "wide" a spread above a third of the bound, the margin to aim for.
func runAA(spec *benchSpec, sz size, n int, seed int64, seconds float64, out string) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set")
	}
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, _, err := runChild(w.name, sz, seed+int64(i), seconds, 0, out)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: seed %d: %d of %d repetitions failed", w.name, seed+int64(i), res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: aa %s set %c run %d/%d done\n", w.name, 'A'+s, i+1, n)
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			diff, spA, spB := worseBy(m, median(a), median(b)), spread(a), spread(b)
			widest := math.Max(spA, spB)
			if m.Name == "setup_s" {
				widest = 0
			}
			verdict := "ok"
			switch {
			case diff > m.Bound || widest > m.Bound:
				verdict = "FAIL"
				bad++
			case widest > m.Bound/3:
				verdict = "ok (wide)"
			}
			fmt.Printf("%-18s %-20s A %14.6f  B %14.6f  B worse by %+7.3f%%  spread A %6.3f%% B %6.3f%%  bound %5.2f%%  %s\n",
				w.name, m.Name, median(a), median(b), diff*100, spA*100, spB*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs outside their bounds", bad)
	}
	fmt.Println("A/A: every metric x workload pair inside its bound")
	return nil
}
