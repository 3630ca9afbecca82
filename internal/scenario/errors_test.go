package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/workload"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadMalformedJSON pins that a syntactically broken spec file fails
// with an error naming the file, not a zero-value Spec that fails later.
func TestLoadMalformedJSON(t *testing.T) {
	path := writeSpec(t, `{"name": "broken", "workload":`)
	if _, err := Load(path); err == nil {
		t.Fatal("want error for malformed JSON")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the file: %v", err)
	}
}

// TestLoadUnknownWorkload pins the unknown-workload complaint, with the
// offending name quoted.
func TestLoadUnknownWorkload(t *testing.T) {
	path := writeSpec(t, `{"name": "typo", "workload": "quicksort", "nodes": 4}`)
	_, err := Load(path)
	if err == nil {
		t.Fatal("want error for unknown workload")
	}
	if !strings.Contains(err.Error(), `unknown workload "quicksort"`) {
		t.Errorf("error does not quote the workload: %v", err)
	}
}

// TestValidateAggregatesErrors asserts Validate collects every complaint
// into one joined error (one per line, errors.Join style) instead of
// stopping at the first: a spec with three independent problems must
// surface all three at once.
func TestValidateAggregatesErrors(t *testing.T) {
	// Assertions make it a scenario: missing name, zero nodes, unknown workload.
	sp := Spec{Spec: workload.Spec{Workload: "nope"}, Assert: &Assert{}}
	err := sp.Validate()
	if err == nil {
		t.Fatal("want validation errors")
	}
	text := err.Error()
	for _, want := range []string{
		"missing name",
		"nodes must be >= 1",
		`unknown workload "nope"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("aggregated error missing %q:\n%s", want, text)
		}
	}
	if got := len(strings.Split(text, "\n")); got != 3 {
		t.Errorf("joined error has %d lines, want 3:\n%s", got, text)
	}
}

// TestValidatePauseCrashOverlap pins the overlap rejection: a pause window
// and a crash outage on the same node at the same time have no well-defined
// semantics, and the error names both windows.
func TestValidatePauseCrashOverlap(t *testing.T) {
	sp := Spec{Name: "overlap", Spec: workload.Spec{
		Workload: "forkjoin", Nodes: 4, CkptIntervalNs: 1000,
		Faults: &abcl.FaultPlan{
			Pauses:  []abcl.NodePause{{Node: 2, At: 100, For: 500}},
			Crashes: []abcl.NodeCrash{{Node: 2, At: 300, RestartAfter: 400}},
		},
	}}
	err := sp.Validate()
	if err == nil {
		t.Fatal("want error for overlapping pause and crash on one node")
	}
	if !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("error does not mention the overlap: %v", err)
	}
	if !strings.Contains(err.Error(), "scenario overlap:") {
		t.Errorf("error does not carry the scenario name: %v", err)
	}
}

// TestValidateHotkeyFleet pins the hotkey minimum-fleet and coverage checks.
func TestValidateHotkeyFleet(t *testing.T) {
	sp := Spec{Name: "tiny", Spec: workload.Spec{Workload: "hotkey", Nodes: 1, Coverage: "most"}}
	err := sp.Validate()
	if err == nil {
		t.Fatal("want error for a 1-node hotkey scenario with bad coverage")
	}
	text := err.Error()
	if !strings.Contains(text, ">= 2 nodes") {
		t.Errorf("error missing the fleet complaint: %v", err)
	}
	if !strings.Contains(text, "most") {
		t.Errorf("error missing the coverage complaint: %v", err)
	}
}
