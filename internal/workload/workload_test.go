package workload

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/apps/nqueens"
)

// tiny holds, for every registered app, the smallest spec that still sends
// enough remote messages for a 10% drop rate to bite.
var tiny = map[string]Spec{
	"nqueens":   {N: 5, Nodes: 4},
	"forkjoin":  {Depth: 5, Nodes: 4},
	"diffusion": {Grid: 4, GridIters: 3, Nodes: 4},
	"hotkey":    {Clients: 4, Ops: 6, Nodes: 4},
	"orderbook": {Clients: 4, Ops: 6, Nodes: 4},
}

// TestEverySettingReachesEveryApp runs each registered app through the one
// dispatcher and asserts that a fault plan, the profiler and the scheduling
// policy each leave their mark on the run — whichever app it is.
func TestEverySettingReachesEveryApp(t *testing.T) {
	for name := range apps {
		sp, ok := tiny[name]
		if !ok {
			t.Errorf("app %q has no entry in the test table", name)
			continue
		}
		sp.Workload = name
		t.Run(name, func(t *testing.T) {
			clean, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Answer == "" || clean.Elapsed <= 0 {
				t.Errorf("clean run: answer %q, elapsed %v", clean.Answer, clean.Elapsed)
			}
			if clean.Report.Profile != nil {
				t.Error("unprofiled run carries a profile")
			}

			lossy := sp
			drop := abcl.UniformFaults(0.1, 0, 0)
			lossy.Faults = &drop
			out, err := Run(lossy)
			if err != nil {
				t.Fatal(err)
			}
			c := out.Report.Sched.Counters
			if c.LinkDrops == 0 || c.Retransmits == 0 {
				t.Errorf("drop=0.1 never bit: drops=%d retransmits=%d", c.LinkDrops, c.Retransmits)
			}
			if c.LostMessages() != 0 || c.RelAbandoned != 0 {
				t.Errorf("lost=%d abandoned=%d under drop=0.1", c.LostMessages(), c.RelAbandoned)
			}
			if out.Invariant != clean.Invariant {
				t.Errorf("fault-invariant answer moved: %q, clean %q", out.Invariant, clean.Invariant)
			}

			profiled := sp
			profiled.ProfileWindowNs = 50_000
			if out, err = Run(profiled); err != nil {
				t.Fatal(err)
			}
			if out.Report.Profile == nil {
				t.Error("profile_window_ns attached no profiler")
			}
			if out.Report.Sched.Counters != clean.Report.Sched.Counters {
				t.Error("the profiler changed the run's counters")
			}

			naive := sp
			naive.Policy = "naive"
			if out, err = Run(naive); err != nil {
				t.Fatal(err)
			}
			if out.Report.Sched.Counters == clean.Report.Sched.Counters {
				t.Error("policy=naive left every counter as under stack scheduling")
			}
			if out.Invariant != clean.Invariant {
				t.Errorf("policy changed the answer: %q, stack %q", out.Invariant, clean.Invariant)
			}
		})
	}
}

// TestExtraOptionsComeLast pins Run's ordering contract: extra options
// follow the spec's, so a front end's override wins.
func TestExtraOptionsComeLast(t *testing.T) {
	out, err := Run(Spec{Workload: "forkjoin", Depth: 3, Nodes: 4}, abcl.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Report.Sched.Nodes; got != 2 {
		t.Errorf("ran on %d nodes, want the extra option's 2", got)
	}
}

// TestSpecRejections pins that unknown names are errors — all of them at
// once, from Validate and from Run alike — and name what is accepted.
func TestSpecRejections(t *testing.T) {
	bad := Spec{Workload: "hotkey", Nodes: 1, Coverage: "most", Policy: "naiv", Placement: "rand"}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want errors")
	}
	for _, want := range []string{
		`unknown policy "naiv" (want naive | stack)`,
		`unknown placement "rand"`,
		">= 2 nodes",
		`"most"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error lacks %q:\n%v", want, err)
		}
	}
	for _, sp := range []Spec{
		{Workload: "quicksort"},
		{Workload: "nqueens", Policy: "naiv"},
		{Workload: "nqueens", Placement: "rand"},
		{Workload: "nqueens", BatchWindowNs: -5},
		{Workload: "forkjoin", Nodes: 4, BatchBytes: 64},                      // no window: batched nothing
		{Workload: "forkjoin", Nodes: 4, ProfileWindowNs: -5},                 // ran without the profiler
		{Workload: "forkjoin", Nodes: 4, BatchWindowNs: 1000, BatchBytes: -3}, // ran with the 512-B default
		{Workload: "forkjoin", Depth: -1},                                     // would fork without end
		{Workload: "nqueens", N: 128},                                         // used to spin in validColumns forever
		{Workload: "nqueens", N: 6, Nodes: 4, Stock: -5},                      // ran with the stock disabled
	} {
		if _, err := Run(sp); err == nil {
			t.Errorf("Run(%+v) accepted the spec", sp)
		}
	}
	if err := (Spec{Workload: "forkjoin", BatchBytes: 64}).Validate(); err == nil || !strings.Contains(err.Error(), "batch_bytes requires batch_window_ns") {
		t.Errorf("Validate accepted a byte budget without a batch window: %v", err)
	}
	if err := (Spec{Workload: "forkjoin", Depth: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "depth must be >= 0") {
		t.Errorf("Validate accepted a negative fork-join depth: %v", err)
	}
	if err := (Spec{Workload: "nqueens", N: nqueens.MaxN + 1}).Validate(); err == nil || !strings.Contains(err.Error(), "N must be in 1..") {
		t.Errorf("Validate accepted a board above nqueens.MaxN: %v", err)
	}
	// There is one executor: a spec naming the retired executor keys is
	// refused by name, not run as if they selected something.
	for key, doc := range map[string]string{
		"executor": `{"workload":"nqueens","executor":"conservative"}`,
		"workers":  `{"workload":"nqueens","workers":2}`,
	} {
		var sp Spec
		if err := DecodeStrict([]byte(doc), &sp); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("DecodeStrict(%s) = %v, want the %q key refused", doc, err, key)
		}
	}
}

// TestValidateAgreesWithRun holds Validate to what a run does. The fixed
// cases are specs Validate once passed while a run refused them or quietly
// changed them; each must now be refused by both, in the same words. Then,
// over a seeded sample of specs across every app, each key drawn from {zero,
// a small valid value, one invalid value}: a spec Validate accepts must run
// without error, and one it rejects must be rejected by Run with the same
// text. A fleet or app size draws a second small value in place of zero,
// which would select the full default size.
func TestValidateAgreesWithRun(t *testing.T) {
	agree := func(sp Spec) error {
		t.Helper()
		verr := sp.Validate()
		_, rerr := Run(sp)
		switch {
		case verr == nil && rerr != nil:
			t.Errorf("%+v: Validate accepted it, Run failed: %v", sp, rerr)
		case verr != nil && (rerr == nil || rerr.Error() != verr.Error()):
			t.Errorf("%+v: Validate says %q, Run says %v", sp, verr, rerr)
		}
		return verr
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "forkjoin", Nodes: 4, BatchWindowNs: -5}, "WithBatching(-5ns, 0): window must be positive"},
		{Spec{Workload: "forkjoin", Nodes: 4, ProfileWindowNs: -5}, "WithProfiler: window must be non-negative"},
		{Spec{Workload: "forkjoin", Nodes: 4, AckDelayNs: -7}, "WithDelayedAcks(-7ns): delay must be positive"},
		{Spec{Workload: "forkjoin", Nodes: 4, CkptIntervalNs: -7}, "WithCheckpoint(-7ns): interval must be positive"},
		{Spec{Workload: "diffusion", Nodes: 4, Grid: 1}, "diffusion: grid 1x1 invalid"},
		{Spec{Workload: "diffusion", Nodes: 4, GridIters: -2}, "diffusion: iterations must be >= 1"},
		{Spec{Workload: "hotkey", Nodes: 4, WritePct: 150}, "write percentage 150 out of range"},
		{Spec{Workload: "hotkey", Nodes: 4, Clients: -1}, "clients and ops must be >= 1"},
		{Spec{Workload: "orderbook", Nodes: 1}, "orderbook: need >= 2 nodes, got 1"},
		{Spec{Workload: "nqueens", N: 6, Nodes: 4, Stock: -5}, "WithChunkStock(-5): depth must be positive"},
		{Spec{Workload: "pingpong", Nodes: 4, BatchWindowNs: -5}, `unknown workload "pingpong"`},
	} {
		if err := agree(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate says %v, want %q", tc.spec, err, tc.want)
		}
	}

	names := make([]string, 0, len(apps))
	for name := range apps {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	lossy, lossless := abcl.UniformFaults(0.05, 0, 0), abcl.UniformFaults(1, 0, 0)
	ran, rejected := 0, 0
	for i := 0; i < 400; i++ {
		sp := Spec{
			Workload:        draw(rng, names[rng.Intn(len(names))], names[rng.Intn(len(names))], "quicksort"),
			Nodes:           draw(rng, 3, 4, -2),
			Seed:            draw[int64](rng, 0, 7, -7),
			Policy:          draw(rng, "", "naive", "fifo"),
			Placement:       draw(rng, "", "rr", "hash"),
			Stock:           draw(rng, 0, 1, -1),
			N:               draw(rng, 4, 5, 99),
			Depth:           draw(rng, 3, 4, -1),
			Grid:            draw(rng, 2, 3, 1),
			GridIters:       draw(rng, 1, 2, -2),
			Scatter:         rng.Intn(2) == 0,
			Clients:         draw(rng, 2, 3, -1),
			Ops:             draw(rng, 3, 4, -1),
			WritePct:        draw(rng, 0, 50, 150),
			Coverage:        draw(rng, "", "none", "most"),
			Ungrouped:       rng.Intn(2) == 0,
			Reorder:         draw(rng, 0, 2, -1),
			Faults:          draw[*abcl.FaultPlan](rng, nil, &lossy, &lossless),
			BatchWindowNs:   draw[int64](rng, 0, 5_000, -5),
			BatchBytes:      draw(rng, 0, 256, -3),
			AckDelayNs:      draw[int64](rng, 0, 20_000, -7),
			Reliable:        rng.Intn(2) == 0,
			NoLocCache:      rng.Intn(2) == 0,
			CkptIntervalNs:  draw[int64](rng, 0, 100_000, -7),
			ProfileWindowNs: draw[int64](rng, 0, 50_000, -5),
		}
		if agree(sp) == nil {
			ran++
		} else {
			rejected++
		}
	}
	// Both halves of the property must be exercised, not one of them.
	t.Logf("%d specs ran, %d were rejected", ran, rejected)
	if ran < 50 || rejected < 50 {
		t.Errorf("%d specs ran and %d were rejected; want at least 50 of each", ran, rejected)
	}
}

// draw picks a spec key's value: its zero value, a small valid one, or,
// less often, an invalid one.
func draw[T any](rng *rand.Rand, zero, valid, invalid T) T {
	switch r := rng.Intn(20); {
	case r < 8:
		return zero
	case r < 19:
		return valid
	}
	return invalid
}

// FuzzSpecValidate feeds arbitrary bytes to the spec decoder and Validate:
// neither may panic, whatever the document holds — a hostile size, a fault
// rule naming a node the fleet lacks, a key of the wrong type.
func FuzzSpecValidate(f *testing.F) {
	f.Add([]byte(`{"workload":"nqueens","n":8,"nodes":16,"placement":"random","stock":-5}`))
	f.Add([]byte(`{"workload":"hotkey","nodes":8,"clients":8,"ops":20,"checkpoint_interval_ns":100000,` +
		`"faults":{"crashes":[{"node":1,"at_ns":400000,"restart_after_ns":100000}]}}`))
	f.Add([]byte(`{"workload":"forkjoin","depth":8,"nodes":16,` +
		`"faults":{"links":[{"src":-1,"dst":-1,"drop":0.1}]},"batch_window_ns":2000,"ack_delay_ns":50000}`))
	f.Add([]byte(`{"workload":"diffusion","grid":1,"iters":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if DecodeStrict(data, &sp) == nil {
			_ = sp.Validate()
		}
	})
}
