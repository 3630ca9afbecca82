// Command benchab compares the two sides of an interleaved A/B run of the
// repository benchmark, as `make bench-ab` makes one: the standard output of
// `bench/run.sh --workload W` run once a pair for the base tree and once for
// the change, appended to one file per side. For each end-to-end metric of
// BENCHMARK.json it prints both sides' quartiles and median, the pairs the
// change wins, and whether the medians differ by more than the base's
// quartile spread; then whether every run printed the same digest.
//
//	go run ./cmd/benchab base.out change.out
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
)

// side is one file's runs, each its metrics by name, and the digests seen.
type side struct {
	runs    []map[string]struct{ Value float64 }
	digests []string
}

func read(path string) (side, error) {
	var s side
	data, err := os.ReadFile(path)
	for _, line := range strings.Split(string(data), "\n") {
		var res struct {
			Metrics map[string]struct{ Value float64 }
		}
		if _, d, ok := strings.Cut(line, ", digest "); ok && !slices.Contains(s.digests, d) {
			s.digests = append(s.digests, d)
		} else if strings.HasPrefix(line, "{") && err == nil {
			if err = json.Unmarshal([]byte(line), &res); err == nil {
				s.runs = append(s.runs, res.Metrics)
			}
		}
	}
	return s, err
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, interpolated.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[min(i+1, len(s)-1)]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchab base.out change.out")
		os.Exit(2)
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	base, errB := read(os.Args[1])
	change, errC := read(os.Args[2])
	pairs := min(len(base.runs), len(change.runs))
	if err = cmp.Or(err, errB, errC); err == nil && pairs == 0 {
		err = errors.New("no complete pair of runs")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
	fmt.Printf("%d pairs; quartiles p25 / median / p75\n", pairs)
	for _, m := range spec.EndToEnd {
		var xs, ys []float64
		var wins int
		for i := range pairs {
			x, y := base.runs[i][m.Name].Value, change.runs[i][m.Name].Value
			xs, ys = append(xs, x), append(ys, y)
			if m.Better == "higher" && y > x || m.Better == "lower" && y < x {
				wins++
			}
		}
		b, c := quartiles(xs), quartiles(ys)
		d := c[1] - b[1]
		fmt.Printf("%-20s base %.6g / %.6g / %.6g  change %.6g / %.6g / %.6g  (%+.2f %%)  change better in %d/%d  shift beyond the base's spread: %v\n",
			m.Name, b[0], b[1], b[2], c[0], c[1], c[2], 100*d/b[1], wins, pairs, max(d, -d) > b[2]-b[0])
	}
	same := slices.Equal(base.digests, change.digests) && len(base.digests) == 1
	fmt.Printf("digests: base %v, change %v, one and the same: %v\n", base.digests, change.digests, same)
}
