package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness itself uses: the run
// length, and the metric names, directions and bounds that A/A mode and the
// output check are held to.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkNames holds a run's output to BENCHMARK.json: exactly the end-to-end
// metrics with tracing off, exactly the per-layer metrics with it on, each
// with the unit declared there.
func (s *benchSpec) checkNames(res result, trace int) error {
	want := s.EndToEnd
	if trace == 1 {
		want = s.PerLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}
