package scenario

import (
	"strings"
	"testing"
)

// TestBundledScenariosPass is the conformance suite: every shipped
// scenario must reach quiescence under its faults with the same answer as
// its fault-free baseline and zero lost messages.
func TestBundledScenariosPass(t *testing.T) {
	specs, err := Bundled()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 3 {
		t.Fatalf("expected several bundled scenarios, found %d", len(specs))
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			o, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range o.Violations {
				t.Error(v)
			}
			if t.Failed() {
				t.Log(o.Report())
			}
		})
	}
}

// TestScenarioDeterminism re-runs one bundled scenario and requires the
// byte-identical outcome: same counters, same elapsed time, same answer.
func TestScenarioDeterminism(t *testing.T) {
	sp, err := Find("forkjoin-dup-jitter")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Faulted.Stats != b.Faulted.Stats {
		t.Errorf("same spec produced different counters:\n%+v\nvs\n%+v", a.Faulted.Stats, b.Faulted.Stats)
	}
	if a.Faulted.Elapsed != b.Faulted.Elapsed || a.Faulted.Answer != b.Faulted.Answer {
		t.Errorf("same spec produced different runs: %v/%s vs %v/%s",
			a.Faulted.Elapsed, a.Faulted.Answer, b.Faulted.Elapsed, b.Faulted.Answer)
	}
}

// TestSpecValidation loads each broken spec from a file: every one must be
// refused, with an error that names the offending value or key. Unknown keys
// are refused at decode time, anywhere in the document — a misspelt or
// retired key must not silently run a different configuration.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"missing name", `{"workload":"forkjoin","nodes":2}`, "missing name"},
		{"bad workload", `{"name":"x","workload":"nope","nodes":2}`, `unknown workload "nope"`},
		{"zero nodes", `{"name":"x","workload":"forkjoin"}`, "nodes must be >= 1"},
		{"drop = 1", `{"name":"x","workload":"forkjoin","nodes":2,"faults":{"links":[{"drop":1.0}]}}`, "drop probability 1"},
		{"pause out of range", `{"name":"x","workload":"forkjoin","nodes":2,"faults":{"pauses":[{"node":9,"at_ns":0,"for_ns":10}]}}`, "node 9"},
		{"misspelt key", `{"name":"x","workload":"forkjoin","nodes":2,"checkpoint_interval":500000}`, `unknown field "checkpoint_interval"`},
		{"misspelt link key", `{"name":"x","workload":"forkjoin","nodes":2,"faults":{"links":[{"jitter":5}]}}`, `unknown field "jitter"`},
		{"removed executor", `{"name":"x","workload":"forkjoin","nodes":2,"executor":"optimistic","workers":4}`, `unknown executor "optimistic"`},
		{"removed window key", `{"name":"x","workload":"forkjoin","nodes":2,"optimistic_window_ns":1000}`, `unknown field "optimistic_window_ns"`},
		{"negative depth", `{"name":"x","workload":"forkjoin","nodes":2,"depth":-1}`, "forkjoin depth must be >= 0"},
		{"trailing data", `{"name":"x","workload":"forkjoin","nodes":2} {}`, "after the top-level value"},
	}
	for _, tc := range cases {
		_, err := Load(writeSpec(t, tc.json))
		if err == nil {
			t.Errorf("%s: want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestProfileWindowKnob asserts the profiling spec field: the profiler
// attaches to both runs, slices the time series by the requested window,
// changes no checked result (the run still passes), and its digest lands
// in the report.
func TestProfileWindowKnob(t *testing.T) {
	plain := Spec{Name: "prof", Workload: "forkjoin", Nodes: 4, Depth: 5}
	profiled := plain
	profiled.ProfileWindowNs = 20_000
	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(profiled)
	if err != nil {
		t.Fatal(err)
	}
	if a.Faulted.Profile != nil {
		t.Error("unprofiled scenario produced a profile report")
	}
	p := b.Faulted.Profile
	if p == nil {
		t.Fatal("profiled scenario produced no profile report")
	}
	if b.Baseline.Profile == nil {
		t.Error("baseline run produced no profile report")
	}
	if len(p.Slices) < 2 {
		t.Errorf("window 20µs produced %d slices, want several", len(p.Slices))
	}
	if !b.OK() {
		t.Errorf("profiled scenario failed: %v", b.Violations)
	}
	if a.Faulted.Answer != b.Faulted.Answer || a.Faulted.Elapsed != b.Faulted.Elapsed {
		t.Error("attaching the profiler changed the scenario outcome")
	}
	if rep := b.Report(); !strings.Contains(rep, "profile:") {
		t.Errorf("report lacks the profile digest:\n%s", rep)
	}
}
