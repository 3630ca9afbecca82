package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
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
	if ca, cb := a.Faulted.Report.Sched.Counters, b.Faulted.Report.Sched.Counters; ca != cb {
		t.Errorf("same spec produced different counters:\n%+v\nvs\n%+v", ca, cb)
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
		{"removed executor key", `{"name":"x","workload":"forkjoin","nodes":2,"executor":"conservative"}`, `unknown field "executor"`},
		{"removed workers key", `{"name":"x","workload":"forkjoin","nodes":2,"workers":4}`, `unknown field "workers"`},
		{"removed window key", `{"name":"x","workload":"forkjoin","nodes":2,"optimistic_window_ns":1000}`, `unknown field "optimistic_window_ns"`},
		{"negative depth", `{"name":"x","workload":"forkjoin","nodes":2,"depth":-1}`, "forkjoin depth must be >= 0"},
		{"negative reorder", `{"name":"x","workload":"hotkey","nodes":2,"reorder":-1}`, "reorder bound must be >= 0, got -1"},
		{"trailing data", `{"name":"x","workload":"forkjoin","nodes":2} {}`, "after the top-level value"},
		{"retired flat drop", `{"name":"x","workload":"forkjoin","nodes":2,"drop":0.1}`, `unknown field "drop"`},
		{"retired flat crashes", `{"name":"x","workload":"nqueens","nodes":2,"crashes":[{"node":1,"at_ns":5,"restart_after_ns":5}]}`, `unknown field "crashes"`},
	}
	for _, tc := range cases {
		path := writeSpec(t, tc.json)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		} else if strings.Contains(tc.want, "unknown field") && !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", tc.name, err)
		}
	}
}

// TestSpecDeclaresNoRunSpecKey pins the shape: a scenario document is a run
// spec plus a name and assertions, so Spec has exactly those three members
// and none of its own JSON keys is one workload.Spec declares (encoding/json
// would let the outer key silently shadow the run spec's).
func TestSpecDeclaresNoRunSpecKey(t *testing.T) {
	key := func(f reflect.StructField) string {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return name
	}
	runKeys := map[string]bool{}
	rt := reflect.TypeOf(workload.Spec{})
	for i := 0; i < rt.NumField(); i++ {
		runKeys[key(rt.Field(i))] = true
	}
	st := reflect.TypeOf(Spec{})
	if st.NumField() != 3 {
		t.Errorf("Spec has %d members, want name, the embedded run spec and assertions", st.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); f.Anonymous {
			if f.Type != rt {
				t.Errorf("Spec embeds %v, want workload.Spec", f.Type)
			}
		} else if runKeys[key(f)] {
			t.Errorf("Spec.%s re-declares the run spec's key %q", f.Name, key(f))
		}
	}
}

// TestProfileWindowKnob asserts the profiling spec field: the profiler
// attaches to both runs, slices the time series by the requested window,
// changes no checked result (the run still passes), and its digest lands
// in the report.
func TestProfileWindowKnob(t *testing.T) {
	plain := Spec{Name: "prof", Spec: workload.Spec{Workload: "forkjoin", Nodes: 4, Depth: 5}}
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
	if a.Faulted.Report.Profile != nil {
		t.Error("unprofiled scenario produced a profile report")
	}
	p := b.Faulted.Report.Profile
	if p == nil {
		t.Fatal("profiled scenario produced no profile report")
	}
	if b.Baseline.Report.Profile == nil {
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
