package fault

import (
	"cmp"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"uniform", UniformLinks(0.1, 0.05, 2000), true},
		{"drop out of range", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: 1.5}}}, false},
		{"drop one", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: 1}}}, false},
		{"negative jitter", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Jitter: -1}}}, false},
		{"bad node", Plan{Links: []LinkFault{{Src: 9, Dst: Wildcard}}}, false},
		{"pause bad node", Plan{}.WithPause(9, 0, 100), false},
		{"pause zero width", Plan{Pauses: []NodePause{{Node: 0, At: 0, For: 0}}}, false},
		{"pause ok", Plan{}.WithPause(1, 1000, 500), true},
		{"pause ends at the last time", Plan{}.WithPause(1, math.MaxInt64-500, 500), true},
		{"pause end overflows", Plan{}.WithPause(1, 9e18, 9e18), false},
		{"crash end overflows", Plan{Crashes: []NodeCrash{{Node: 1, At: 9e18, RestartAfter: 9e18}}}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// A window whose end passes the last virtual time is refused by name: its
// end once wrapped negative, and a crash 9e18 ns away counted as done.
func TestValidateRejectsOverflowingWindows(t *testing.T) {
	for _, c := range []struct {
		plan Plan
		want string
	}{
		{Plan{Crashes: []NodeCrash{{Node: 1, At: 9e18, RestartAfter: 9e18}}},
			"fault: crash 0: outage [9000000000.000s, +9000000000.000s) ends past the last virtual time"},
		{Plan{}.WithPause(1, 2000, 500).WithPause(1, 9e18, 9e18),
			"fault: pause 1: window [9000000000.000s, +9000000000.000s) ends past the last virtual time"},
	} {
		if err := c.plan.Validate(4); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", c.plan, err, c.want)
		}
	}
}

func TestLinkDeterminism(t *testing.T) {
	// The same (plan, seed) must yield an identical decision stream, and the
	// stream of one link must not depend on traffic on other links.
	plan := UniformLinks(0.2, 0.1, 5000)
	a, err := NewInjector(plan, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	// a: interleave traffic on two links; b: query them separately. A
	// result is valid until the next call, so each is copied.
	var aSeq, bSeq [][]sim.Time
	for i := 0; i < 200; i++ {
		aSeq = append(aSeq, slices.Clone(a.Link(0, 1, 0, 32)))
		a.Link(2, 3, 0, 32) // unrelated traffic
	}
	for i := 0; i < 200; i++ {
		bSeq = append(bSeq, slices.Clone(b.Link(0, 1, 0, 32)))
	}
	for i := range aSeq {
		if len(aSeq[i]) != len(bSeq[i]) {
			t.Fatalf("decision %d differs: %v vs %v", i, aSeq[i], bSeq[i])
		}
		for j := range aSeq[i] {
			if aSeq[i][j] != bSeq[i][j] {
				t.Fatalf("decision %d jitter differs: %v vs %v", i, aSeq[i], bSeq[i])
			}
		}
	}
}

func TestLinkRates(t *testing.T) {
	in, err := NewInjector(UniformLinks(0.25, 0.25, 0), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var drops, dups int
	for i := 0; i < n; i++ {
		out := in.Link(0, 1, 0, 16)
		switch len(out) {
		case 0:
			drops++
		case 2:
			dups++
		}
	}
	if f := float64(drops) / n; f < 0.22 || f > 0.28 {
		t.Errorf("drop rate %f, want ~0.25", f)
	}
	// Duplication only applies to non-dropped attempts: ~0.25 * 0.75.
	if f := float64(dups) / n; f < 0.16 || f > 0.22 {
		t.Errorf("dup rate %f, want ~0.19", f)
	}
}

// TestLinkAllocatesNothing holds a faulty link's decisions to no allocation:
// drops, duplicates and jittered copies all come out of the injector's own
// buffer.
func TestLinkAllocatesNothing(t *testing.T) {
	in, err := NewInjector(UniformLinks(0.2, 0.3, 5000), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var copies [3]int
	if n := testing.AllocsPerRun(1000, func() { copies[len(in.Link(0, 1, 0, 16))]++ }); n != 0 {
		t.Errorf("Link allocates %v times a call", n)
	}
	if copies[0] == 0 || copies[1] == 0 || copies[2] == 0 {
		t.Errorf("%v dropped, delivered and duplicated: the rule left a case out", copies)
	}
}

func TestLocalTrafficExempt(t *testing.T) {
	in, err := NewInjector(UniformLinks(0.99, 0.99, 1000), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out := in.Link(1, 1, 0, 16)
		if len(out) != 1 || out[0] != 0 {
			t.Fatalf("local delivery must be exempt, got %v", out)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	plan := Plan{Links: []LinkFault{
		{Src: 0, Dst: 1, Drop: 0},                              // specific link: clean
		{Src: Wildcard, Dst: Wildcard, Drop: 0.999999, Dup: 0}, // everything else drops
	}}
	in, err := NewInjector(plan, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if len(in.Link(0, 1, 0, 16)) != 1 {
			t.Fatal("specific clean rule must shadow the wildcard")
		}
	}
	var delivered int
	for i := 0; i < 50; i++ {
		delivered += len(in.Link(1, 0, 0, 16))
	}
	if delivered > 2 {
		t.Fatalf("wildcard drop rule barely applied: %d/50 delivered", delivered)
	}
}

func TestPausedUntil(t *testing.T) {
	plan := Plan{}.WithPause(1, 1000, 500).WithPause(1, 3000, 100)
	in, err := NewInjector(plan, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node int
		at   sim.Time
		want sim.Time
	}{
		{0, 1200, 1200}, // other node unaffected
		{1, 500, 500},   // before the window
		{1, 1000, 1500}, // window start
		{1, 1499, 1500}, // inside
		{1, 1500, 1500}, // window end: running
		{1, 3050, 3100}, // second window
		{1, 9999, 9999}, // after everything
	}
	for _, c := range cases {
		if got := in.PausedUntil(c.node, c.at); got != c.want {
			t.Errorf("PausedUntil(%d, %v) = %v, want %v", c.node, c.at, got, c.want)
		}
	}
}

// TestPlanJSON pins the one JSON shape of a fault schedule — the "faults"
// object of a scenario file, the "crashes" list of a run spec: omitted
// src/dst mean any node, a key a link rule does not declare is an error (the
// enclosing decoder's DisallowUnknownFields does not reach a custom
// unmarshaller), and Plan → JSON → Plan is the identity.
func TestPlanJSON(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     Plan
		out      string // the canonical form in marshals back to
		err      string
	}{
		{name: "empty", in: `{}`, out: `{}`},
		{name: "omitted src/dst are wildcards", in: `{"links":[{"drop":0.5},{"src":2,"dup":0.1}]}`,
			want: Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: 0.5}, {Src: 2, Dst: Wildcard, Dup: 0.1}}},
			out:  `{"links":[{"src":-1,"dst":-1,"drop":0.5},{"src":2,"dst":-1,"dup":0.1}]}`},
		{name: "every kind of fault",
			in: `{"links":[{"src":0,"dst":1,"drop":0.6,"dup":0.2,"jitter_ns":3000}],"pauses":[{"node":2,"at_ns":100,"for_ns":50}],"crashes":[{"node":3,"at_ns":1500000,"restart_after_ns":400000}]}`,
			want: Plan{
				Links:   []LinkFault{{Src: 0, Dst: 1, Drop: 0.6, Dup: 0.2, Jitter: 3 * sim.Microsecond}},
				Pauses:  []NodePause{{Node: 2, At: 100, For: 50}},
				Crashes: []NodeCrash{{Node: 3, At: 1500 * sim.Microsecond, RestartAfter: 400 * sim.Microsecond}},
			}},
		{name: "unknown key in a link rule", in: `{"links":[{"jitter":5}]}`, err: `unknown field "jitter"`},
	} {
		var p Plan
		err := json.Unmarshal([]byte(tc.in), &p)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(p, tc.want) {
			t.Errorf("%s: decoded %+v (err %v), want %+v", tc.name, p, err, tc.want)
		}
		out, err := json.Marshal(p)
		if want := cmp.Or(tc.out, tc.in); err != nil || string(out) != want {
			t.Errorf("%s: marshals to %s (err %v), want %s", tc.name, out, err, want)
		}
		var back Plan
		if err := json.Unmarshal(out, &back); err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("%s: Plan -> JSON -> Plan gave %+v (err %v), want %+v", tc.name, back, err, p)
		}
	}
}

// FuzzLinkFaultJSON feeds arbitrary bytes to a link rule's decoder: it never
// panics, a rule it accepts survives a marshal and a second decode unchanged,
// and Plan.Validate judges any such rule without panicking.
func FuzzLinkFaultJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"drop":0.5}`))
	f.Add([]byte(`{"src":0,"dst":1,"drop":0.6,"dup":0.2,"jitter_ns":3000}`))
	f.Add([]byte(`{"src":9,"dst":-7,"drop":1,"dup":-0,"jitter_ns":-1}`))
	f.Add([]byte(`{"jitter":5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lf LinkFault
		if json.Unmarshal(data, &lf) != nil {
			return
		}
		out, err := json.Marshal(lf)
		if err != nil {
			t.Fatalf("%+v does not marshal: %v", lf, err)
		}
		var back LinkFault
		if err := json.Unmarshal(out, &back); err != nil || back != lf {
			t.Fatalf("%s -> %+v -> %s -> %+v (err %v)", data, lf, out, back, err)
		}
		_ = Plan{Links: []LinkFault{lf}}.Validate(4)
	})
}
