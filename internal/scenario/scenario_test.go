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

// TestRetriesUntilAcknowledged runs the two bundled plans that outlast any
// fixed retry budget: a link dropping nine copies in ten (some records need
// dozens of transmissions) and a 300 ms crash outage (about 150 backoffs of
// the capped 2 ms, all toward the dead node). Each must pass — the
// fault-free answer, and without a crash no message lost. The retransmission
// counts pin the backoff schedule past the sixth attempt, where it sits at
// its 2 ms cap; TestRetryEquivalencePin's runs never get that far.
func TestRetriesUntilAcknowledged(t *testing.T) {
	for _, tc := range []struct {
		name, answer string
		retransmits  uint64
	}{
		{"lossy-link-storm", "leaves=64", 35137},
		{"long-outage", "leaves=256", 153},
	} {
		sp, err := Find(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if o.Faulted.Invariant != tc.answer || !o.OK() {
			t.Errorf("%s: %s, violations %v; want %s", tc.name, o.Faulted.Invariant, o.Violations, tc.answer)
		}
		if c := o.Faulted.Report.Sched.Counters; c.Retransmits != tc.retransmits {
			t.Errorf("%s: %d retransmits, want %d", tc.name, c.Retransmits, tc.retransmits)
		}
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
		{"removed location-cache key", `{"name":"x","workload":"forkjoin","nodes":2,"no_loc_cache":true}`, `unknown field "no_loc_cache"`},
		{"removed window key", `{"name":"x","workload":"forkjoin","nodes":2,"optimistic_window_ns":1000}`, `unknown field "optimistic_window_ns"`},
		{"negative depth", `{"name":"x","workload":"forkjoin","nodes":2,"depth":-1}`, "forkjoin depth must be >= 0"},
		{"removed reorder key", `{"name":"x","workload":"hotkey","nodes":2,"reorder":2}`, `unknown field "reorder"`},
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

// TestProfileWindowKnob asserts the profiling spec field: the window slices
// both runs' profiles into a time series, changes no checked result (the run
// still passes), and its digest lands in the report, which leaves it out
// without a window.
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
	if a.Faulted.Report.Profile.Slices != nil {
		t.Error("a scenario without a window produced time slices")
	}
	p := b.Faulted.Report.Profile
	if b.Baseline.Report.Profile.Slices == nil {
		t.Error("baseline run produced no time slices")
	}
	if len(p.Slices) < 2 {
		t.Errorf("window 20µs produced %d slices, want several", len(p.Slices))
	}
	if !b.OK() {
		t.Errorf("profiled scenario failed: %v", b.Violations)
	}
	if a.Faulted.Answer != b.Faulted.Answer || a.Faulted.Elapsed != b.Faulted.Elapsed {
		t.Error("the profile window changed the scenario outcome")
	}
	if rep := b.Report(); !strings.Contains(rep, "profile:") || strings.Contains(a.Report(), "profile:") {
		t.Errorf("the profile digest belongs in a windowed report alone:\n%s\n%s", rep, a.Report())
	}
}
