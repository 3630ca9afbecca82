package workload

import (
	"bytes"
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
// dispatcher and asserts that it renders its result lines and that a fault
// plan, the profile window and the scheduling policy each leave their mark
// on the run — whichever app it is.
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
			if p := clean.Report.Profile; p == nil || p.Window != 0 || p.Slices != nil {
				t.Errorf("run without a window: profile %+v, want one without slices", p)
			}
			// abclsim prints these lines for the app: an entry without them
			// would make the command call a nil func.
			if clean.Lines == nil {
				t.Error("clean run: no result lines")
			} else {
				var lines bytes.Buffer
				clean.Lines(&lines)
				if l := lines.String(); l == "" || !strings.HasSuffix(l, "\n") {
					t.Errorf("clean run: result lines %q, want whole lines", l)
				}
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
			if c.LostMessages() != 0 {
				t.Errorf("lost=%d under drop=0.1", c.LostMessages())
			}
			if out.Invariant != clean.Invariant {
				t.Errorf("fault-invariant answer moved: %q, clean %q", out.Invariant, clean.Invariant)
			}

			profiled := sp
			profiled.ProfileWindowNs = 50_000
			if out, err = Run(profiled); err != nil {
				t.Fatal(err)
			}
			if p := out.Report.Profile; p.Window != 50_000 || len(p.Slices) == 0 {
				t.Errorf("profile_window_ns 50000: window %v, %d slices", p.Window, len(p.Slices))
			}
			if out.Report.Sched.Counters != clean.Report.Sched.Counters {
				t.Error("the profile window changed the run's counters")
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
		{Workload: "forkjoin", Nodes: 4, ProfileWindowNs: -5}, // ran without time slices
		{Workload: "forkjoin", Depth: -1},                     // would fork without end
		{Workload: "nqueens", N: 128},                         // used to spin in validColumns forever
		{Workload: "nqueens", N: 6, Nodes: 4, Stock: -5},      // ran with the stock disabled
	} {
		if _, err := Run(sp); err == nil {
			t.Errorf("Run(%+v) accepted the spec", sp)
		}
	}
	if err := (Spec{Workload: "forkjoin", Depth: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "depth must be >= 0") {
		t.Errorf("Validate accepted a negative fork-join depth: %v", err)
	}
	if err := (Spec{Workload: "nqueens", N: nqueens.MaxN + 1}).Validate(); err == nil || !strings.Contains(err.Error(), "N must be in 1..") {
		t.Errorf("Validate accepted a board above nqueens.MaxN: %v", err)
	}
	// A spec naming a retired key — the executor's, the location cache's
	// that went with object migration, or the multiactive reorder bound's —
	// is refused by name, not run as if it selected something.
	for key, doc := range map[string]string{
		"executor":     `{"workload":"nqueens","executor":"conservative"}`,
		"workers":      `{"workload":"nqueens","workers":2}`,
		"no_loc_cache": `{"workload":"nqueens","no_loc_cache":true}`,
		"reorder":      `{"workload":"hotkey","reorder":2}`,
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
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "forkjoin", Nodes: 4, BatchWindowNs: -5}, "WithBatching(-5ns, 0): window must be positive"},
		{Spec{Workload: "forkjoin", Nodes: 4, ProfileWindowNs: -5}, "WithProfileWindow: window must be non-negative"},
		{Spec{Workload: "forkjoin", Nodes: 4, AckDelayNs: -7}, "WithDelayedAcks(-7ns): delay must be positive"},
		{Spec{Workload: "forkjoin", Nodes: 4, CkptIntervalNs: -7}, "WithCheckpoint(-7ns): interval must be positive"},
		{Spec{Workload: "diffusion", Nodes: 4, Grid: 1}, "diffusion: grid 1x1 invalid"},
		{Spec{Workload: "diffusion", Nodes: 4, GridIters: -2}, "diffusion: iterations must be >= 1"},
		{Spec{Workload: "hotkey", Nodes: 4, WritePct: 150}, "write percentage 150 out of range"},
		{Spec{Workload: "hotkey", Nodes: 4, Clients: -1}, "clients and ops must be >= 1"},
		{Spec{Workload: "orderbook", Nodes: 1}, "orderbook: need >= 2 nodes, got 1"},
		{Spec{Workload: "nqueens", N: 6, Nodes: 4, Stock: -5}, "WithChunkStock(-5): depth must not be negative"},
		{Spec{Workload: "pingpong", Nodes: 4, BatchWindowNs: -5}, `unknown workload "pingpong"`},
		// Windows whose end passes the last virtual time: the crash once
		// validated and counted as done an outage 9e18 ns away.
		{Spec{Workload: "forkjoin", Nodes: 4, Depth: 4, Faults: &abcl.FaultPlan{Crashes: []abcl.NodeCrash{{Node: 1, At: 9e18, RestartAfter: 9e18}}}},
			"fault: crash 0: outage [9000000000.000s, +9000000000.000s) ends past the last virtual time"},
		{Spec{Workload: "forkjoin", Nodes: 4, Depth: 4, Faults: &abcl.FaultPlan{Pauses: []abcl.NodePause{{Node: 1, At: 9e18, For: 9e18}}}},
			"fault: pause 0: window [9000000000.000s, +9000000000.000s) ends past the last virtual time"},
	} {
		if err := agreeWithRun(t, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate says %v, want %q", tc.spec, err, tc.want)
		}
	}

	names := make([]string, 0, len(apps))
	for name := range apps {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	lossless := abcl.UniformFaults(1, 0, 0)
	ran, rejected := 0, 0
	for i := 0; i < 400; i++ {
		sp := Spec{
			Workload:        draw(rng, names[rng.Intn(len(names))], names[rng.Intn(len(names))], "quicksort"),
			Nodes:           draw(rng, drawn.Nodes-1, drawn.Nodes, -2),
			Seed:            draw[int64](rng, 0, 7, -7),
			Policy:          draw(rng, "", "naive", "fifo"),
			Placement:       draw(rng, "", "rr", "hash"),
			Stock:           draw(rng, 0, 1, -1),
			N:               draw(rng, drawn.N-1, drawn.N, 99),
			Depth:           draw(rng, drawn.Depth-1, drawn.Depth, -1),
			Grid:            draw(rng, drawn.Grid-1, drawn.Grid, 1),
			GridIters:       draw(rng, drawn.GridIters-1, drawn.GridIters, -2),
			Scatter:         rng.Intn(2) == 0,
			Clients:         draw(rng, drawn.Clients-1, drawn.Clients, -1),
			Ops:             draw(rng, drawn.Ops-1, drawn.Ops, -1),
			WritePct:        draw(rng, 0, 50, 150),
			Coverage:        draw(rng, "", "none", "most"),
			Ungrouped:       rng.Intn(2) == 0,
			Faults:          draw(rng, nil, drawnFaults[rng.Intn(len(drawnFaults))], &lossless),
			BatchWindowNs:   draw[int64](rng, 0, 5_000, -5),
			AckDelayNs:      draw[int64](rng, 0, 20_000, -7),
			Reliable:        rng.Intn(2) == 0,
			CkptIntervalNs:  draw(rng, 0, drawn.CkptIntervalNs, -7),
			ProfileWindowNs: draw(rng, 0, drawn.ProfileWindowNs, -5),
		}
		if agreeWithRun(t, sp) == nil {
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

// drawn holds the valid value TestValidateAgreesWithRun draws for each key
// that bounds a run's cost. A fleet or app size draws it or one less, never
// zero, which would select the full default size; the profile window and
// checkpoint interval draw it or zero (off); the fault plan draws one of
// drawnFaults or none.
var drawn = Spec{
	Nodes: 4, N: 5, Depth: 4, Grid: 3, GridIters: 2, Clients: 3, Ops: 4,
	ProfileWindowNs: 50_000, CkptIntervalNs: 100_000,
}

// drawnFaults are the fault plans TestValidateAgreesWithRun draws: light
// loss, a loss storm, a pause window and a crash outage past any fixed retry
// budget (the 64 transmissions once allowed spanned about 120 ms).
var drawnFaults = []*abcl.FaultPlan{&lossy, &storm, &paused, &outage}

var (
	lossy  = abcl.UniformFaults(0.05, 0, 0)
	storm  = abcl.UniformFaults(0.95, 0, 0)
	paused = abcl.FaultPlan{Pauses: []abcl.NodePause{{Node: 1, At: 20_000, For: 500_000}}}
	outage = abcl.FaultPlan{Crashes: []abcl.NodeCrash{{Node: 1, At: 30_000, RestartAfter: 300 * abcl.Millisecond}}}
)

// maxOutage bounds the crash outages runnable admits by their host cost: a
// run retransmits each record toward the dead node every 2 ms of it.
const maxOutage = 10_000 * abcl.Millisecond

// agreeWithRun fails t unless Run accepts exactly what Validate accepts: a
// spec Validate passes runs without error, and one it refuses is refused by
// Run in the same words. It returns Validate's verdict.
func agreeWithRun(t testing.TB, sp Spec) error {
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

// runnable reports whether a spec is within what TestValidateAgreesWithRun
// draws: every size its workload reads nonzero and no larger than drawn's,
// no profile window or checkpoint interval finer than drawn's (they multiply
// a run's time slices and rounds), and no fault harsher than drawnFaults' —
// link rules dropping at most as often as the storm's, with no duplication
// or jitter; pause windows anywhere; crash outages of any length up to
// maxOutage. The reliable layer retransmits until acknowledged, so the
// length of an outage costs host time (one retransmission per 2 ms per
// record in flight toward the dead node), never the answer.
func runnable(sp Spec) bool {
	sizes := [][2]int{{sp.Nodes, drawn.Nodes}}
	switch sp.Workload {
	case "nqueens":
		sizes = append(sizes, [2]int{sp.N, drawn.N})
	case "forkjoin":
		sizes = append(sizes, [2]int{sp.Depth, drawn.Depth})
	case "diffusion":
		sizes = append(sizes, [2]int{sp.Grid, drawn.Grid}, [2]int{sp.GridIters, drawn.GridIters})
	case "hotkey", "orderbook":
		sizes = append(sizes, [2]int{sp.Clients, drawn.Clients}, [2]int{sp.Ops, drawn.Ops})
	}
	for _, s := range sizes {
		if s[0] == 0 || s[0] > s[1] {
			return false
		}
	}
	fp, limit := sp.FaultPlan(), storm.Links[0]
	for _, lf := range fp.Links {
		if lf.Drop > limit.Drop || lf.Dup > limit.Dup || lf.Jitter > limit.Jitter {
			return false
		}
	}
	for _, nc := range fp.Crashes {
		if nc.RestartAfter > maxOutage {
			return false
		}
	}
	return (sp.ProfileWindowNs <= 0 || sp.ProfileWindowNs >= drawn.ProfileWindowNs) &&
		(sp.CkptIntervalNs <= 0 || sp.CkptIntervalNs >= drawn.CkptIntervalNs)
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
// rule naming a node the fleet lacks, a key of the wrong type. A spec small
// enough to run (runnable) is also held to TestValidateAgreesWithRun's
// property: Run accepts exactly what Validate accepts, in the same words.
func FuzzSpecValidate(f *testing.F) {
	f.Add([]byte(`{"workload":"nqueens","n":8,"nodes":16,"placement":"random","stock":-5}`))
	f.Add([]byte(`{"workload":"hotkey","nodes":8,"clients":8,"ops":20,"checkpoint_interval_ns":100000,` +
		`"faults":{"crashes":[{"node":1,"at_ns":400000,"restart_after_ns":100000}]}}`))
	f.Add([]byte(`{"workload":"forkjoin","depth":8,"nodes":16,` +
		`"faults":{"links":[{"src":-1,"dst":-1,"drop":0.1}]},"batch_window_ns":2000,"ack_delay_ns":50000}`))
	f.Add([]byte(`{"workload":"diffusion","grid":1,"iters":3}`))
	// Runnable specs.
	f.Add([]byte(`{"workload":"nqueens","nodes":4,"n":5,"placement":"random","stock":1,` +
		`"faults":{"links":[{"drop":0.05}]},"batch_window_ns":5000,"ack_delay_ns":20000,"reliable":true}`))
	f.Add([]byte(`{"workload":"hotkey","nodes":4,"clients":3,"ops":4,"write_pct":50,"coverage":"none","checkpoint_interval_ns":100000}`))
	f.Add([]byte(`{"workload":"orderbook","nodes":4,"clients":3,"ops":4,"profile_window_ns":50000,"reliable":true}`))
	f.Add([]byte(`{"workload":"diffusion","nodes":3,"grid":3,"grid_iters":2,"scatter":true,"policy":"naive","batch_window_ns":5000}`))
	f.Add([]byte(`{"workload":"forkjoin","nodes":4,"depth":4,"stock":-1,"seed":7,"faults":{"links":[{"src":7,"drop":0.01}]}}`))
	// Plans past the 64-transmission budget the reliable layer once had, at
	// the drawn depth: a loss storm (with that budget the run stopped with
	// "fork-join did not complete") and a 300 ms crash outage.
	f.Add([]byte(`{"workload":"forkjoin","nodes":4,"depth":4,"faults":{"links":[{"drop":0.9}]}}`))
	f.Add([]byte(`{"workload":"forkjoin","nodes":4,"depth":4,"faults":{"crashes":[{"node":1,"at_ns":200000,"restart_after_ns":300000000}]}}`))
	// Windows whose end passes the last virtual time.
	f.Add([]byte(`{"workload":"forkjoin","nodes":4,"depth":4,"faults":{"crashes":[{"node":1,"at_ns":9000000000000000000,"restart_after_ns":9000000000000000000}]}}`))
	f.Add([]byte(`{"workload":"forkjoin","nodes":4,"depth":4,"faults":{"pauses":[{"node":1,"at_ns":9000000000000000000,"for_ns":9000000000000000000}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if DecodeStrict(data, &sp) != nil {
			return
		}
		if !runnable(sp) {
			_ = sp.Validate()
			return
		}
		agreeWithRun(t, sp)
	})
}
