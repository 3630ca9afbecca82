package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles the command once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runBench runs the command from the repository root, where BENCHMARK.json
// is, and returns its standard output.
func runBench(t *testing.T, bin string, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-small", "-out", t.TempDir())...)
	cmd.Dir = ".."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Logf("stderr: %s", stderr.String())
	}
	return out, err
}

// Every workload, with tracing off and on, at the small size: the last line
// is a result object that is correct and carries exactly the metrics
// BENCHMARK.json names for that mode, and each is also printed by name.
func TestCommandPrintsEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	bin := buildBench(t)
	for _, sw := range spec.Workloads {
		if findWorkload(sw.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the harness has none", sw.Name)
		}
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			out, err := runBench(t, bin, "--workload", sw.Name, "--seed", "5", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace])
			if err != nil {
				t.Fatalf("%s trace %d: %v", sw.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line %q: %v", sw.Name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", sw.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if err := spec.checkNames(res, trace); err != nil {
				t.Errorf("%s trace %d: %v", sw.Name, trace, err)
			}
			for _, m := range want {
				if !strings.Contains(string(out), " "+m.Name+" ") {
					t.Errorf("%s trace %d: metric %s is not printed by name", sw.Name, trace, m.Name)
				}
			}
		}
	}
}

func TestCommandRejectsBadInput(t *testing.T) {
	bin := buildBench(t)
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "nqueens-seq", "--trace", "2"},
		{"--workload", "nqueens-seq", "stray"},
	} {
		if out, err := runBench(t, bin, args...); err == nil {
			t.Errorf("%v: exit 0, output %q", args, out)
		}
	}
}

// The traced pass leaves a loadable trace-event file and a CPU profile.
func TestTracedPassWritesItsFiles(t *testing.T) {
	dir := t.TempDir()
	w := findWorkload("nqueens-relbatch")
	res, err := runTraced(w, smallSize, 2, 0.2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced pass: %d of %d repetitions failed", res.Failed, res.Attempted)
	}
	data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	reps, children := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", e.Name, e.Ph)
		}
		if e.Args["parent"] < 0 {
			reps++
		} else {
			children++
		}
	}
	if reps < minTracedReps || children != reps*len(spanNames) {
		t.Errorf("trace has %d repetition spans and %d child spans", reps, children)
	}
	if prof, err := os.ReadFile(filepath.Join(dir, w.name+".cpu.pprof")); err != nil || len(prof) == 0 {
		t.Errorf("CPU profile: %d bytes, %v", len(prof), err)
	}
}
