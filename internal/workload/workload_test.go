package workload

import (
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/apps/nqueens"
)

// tiny holds, for every registered app, the smallest spec that still sends
// enough remote messages for a 10% drop rate to bite.
var tiny = map[string]struct {
	spec Spec
	// exempt skips the settings checks. Only pingpong may set it: it measures
	// five fixed one- and two-node machines it builds itself (the paper's
	// Table 1/3 setups), so a fleet size, a policy or a fault plan has nothing
	// to apply to — the app table marks it ownMachines for the same reason.
	exempt bool
}{
	"nqueens":   {spec: Spec{N: 5, Nodes: 4}},
	"forkjoin":  {spec: Spec{Depth: 5, Nodes: 4}},
	"diffusion": {spec: Spec{Grid: 4, GridIters: 3, Nodes: 4}},
	"hotkey":    {spec: Spec{Clients: 4, Ops: 6, Nodes: 4}},
	"orderbook": {spec: Spec{Clients: 4, Ops: 6, Nodes: 4}},
	"pingpong":  {spec: Spec{Iters: 20}, exempt: true},
}

// TestEverySettingReachesEveryApp runs each registered app through the one
// dispatcher and asserts that a fault plan, the profiler and the scheduling
// policy each leave their mark on the run — whichever app it is.
func TestEverySettingReachesEveryApp(t *testing.T) {
	for name, a := range apps {
		tc, ok := tiny[name]
		if !ok {
			t.Errorf("app %q has no entry in the test table", name)
			continue
		}
		if tc.exempt != a.ownMachines {
			t.Errorf("%s: exempt=%v but ownMachines=%v", name, tc.exempt, a.ownMachines)
		}
		sp := tc.spec
		sp.Workload = name
		t.Run(name, func(t *testing.T) {
			clean, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Answer == "" || clean.Elapsed <= 0 {
				t.Errorf("clean run: answer %q, elapsed %v", clean.Answer, clean.Elapsed)
			}
			if tc.exempt {
				if clean.Report != nil || clean.Invariant != "" {
					t.Error("an app on its own machines has no system report and no fault-invariant answer")
				}
				return
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
	bad := Spec{Workload: "hotkey", Nodes: 1, Coverage: "most", Policy: "naiv", Placement: "rand", Executor: "timewarp"}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want errors")
	}
	for _, want := range []string{
		`unknown policy "naiv" (want naive | stack)`,
		`unknown placement "rand"`,
		`unknown executor "timewarp"`,
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
		{Workload: "nqueens", Executor: "conservativ", Workers: 2},
		{Workload: "nqueens", Workers: 2},
		{Workload: "nqueens", BatchWindowNs: -5},
		{Workload: "forkjoin", Nodes: 4, BatchBytes: 64},                      // no window: batched nothing
		{Workload: "forkjoin", Nodes: 4, ProfileWindowNs: -5},                 // ran without the profiler
		{Workload: "forkjoin", Nodes: 4, BatchWindowNs: 1000, BatchBytes: -3}, // ran with the 512-B default
		{Workload: "forkjoin", Depth: -1},                                     // would fork without end
		{Workload: "nqueens", N: 128},                                         // used to spin in validColumns forever
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
}
