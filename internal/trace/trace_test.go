package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Add(int64ToTime(i), i, EvSend, "x")
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d, want 3/3", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Node != i {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
}

func TestRingWrapsOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Addf(int64ToTime(i), i, EvDispatch, "ev%d", i)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	want := []int{6, 7, 8, 9}
	for i := range want {
		if evs[i].Node != want[i] {
			t.Fatalf("retained = %v, want nodes %v", evs, want)
		}
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(8)
	r.Add(2300, 0, EvSend, "ping -> obj1")
	r.Add(4600, 1, EvRetry, "cat-1 seq 3")
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"send", "ping -> obj1", "retry", "n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 2000; i++ {
		r.Add(0, 0, EvSend, "")
	}
	if r.Len() != 1024 {
		t.Fatalf("default capacity = %d, want 1024", r.Len())
	}
}

func TestKindString(t *testing.T) {
	if EvSchedule.String() != "schedule" {
		t.Error("kind name wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still format")
	}
}

// TestCheckJSONL holds the stream check to each way a JSONL stream can break
// its schema, and a good stream's per-kind line counts to what was written.
func TestCheckJSONL(t *testing.T) {
	var stream bytes.Buffer
	sink := NewJSONL(&stream)
	for _, e := range []Event{{100, 0, EvSend, "a"}, {250, 2, EvDispatch, "b"}, {180, 1, EvSend, "c"}} {
		sink.Event(e)
	}
	good := stream.String()
	for _, tc := range []struct {
		name, stream string
		want         string
	}{
		{"schema", good, ""},
		{"not an object", "[1,2]\n", "line 1: not a JSON object"},
		{"missing field", `{"at":5,"node":0,"kind":"send"}`, `line 1: missing field "what"`},
		{"extra field", `{"at":5,"node":0,"kind":"send","what":"x","lane":3}`, "line 1: undocumented fields"},
		{"unknown kind", good + `{"at":5,"node":0,"kind":"teleport","what":"x"}`, `line 4: unknown kind "teleport"`},
		{"negative at", `{"at":-1,"node":0,"kind":"send","what":"x"}`, "line 1: negative at -1"},
		{"negative node", `{"at":5,"node":-1,"kind":"send","what":"x"}`, "line 1: node -1 out of range"},
		{"huge node", `{"at":5,"node":1099511627776,"kind":"send","what":"x"}`, "line 1: node 1099511627776 out of range"},
		{"empty what", `{"at":5,"node":0,"kind":"send","what":""}`, "line 1: empty what"},
		{"field case", `{"AT":5,"node":0,"kind":"send","what":"x"}`, `line 1: missing field "at"`},
		// The sink's own layout is read without a JSON decoder; these break
		// JSON inside that layout and must fail as any other line does.
		{"bad escape", `{"at":5,"node":0,"kind":"send","what":"a\q"}`, "line 1: not a JSON object"},
		{"short escape", `{"at":5,"node":0,"kind":"send","what":"a\u00"}`, "line 1: not a JSON object"},
		{"quote in what", `{"at":5,"node":0,"kind":"send","what":"a"b"}`, "line 1: not a JSON object"},
		{"control byte", "{\"at\":5,\"node\":0,\"kind\":\"send\",\"what\":\"a\tb\"}", "line 1: not a JSON object"},
		{"leading zero", `{"at":05,"node":0,"kind":"send","what":"x"}`, "line 1: not a JSON object"},
		{"quote in kind", `{"at":5,"node":0,"kind":"se"nd","what":"x"}`, "line 1: not a JSON object"},
		{"float at", `{"at":5.5,"node":0,"kind":"send","what":"x"}`, "line 1: json: cannot unmarshal number 5.5"},
		// Any other layout of the same events is read by the decoder.
		{"spaced", strings.ReplaceAll(good, ",", ", "), ""},
		{"empty stream", "", "empty stream"},
	} {
		lines, err := CheckJSONL(strings.NewReader(tc.stream))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && (lines[EvSend] != 2 || lines[EvDispatch] != 1 || lines[EvRetry] != 0):
			t.Errorf("%s: line counts %v, want 2 send and 1 dispatch", tc.name, lines)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v lacks %q", tc.name, err, tc.want)
		}
	}
}

func int64ToTime(i int) sim.Time { return sim.Time(i) }
