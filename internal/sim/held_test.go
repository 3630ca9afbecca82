package sim

import (
	"strings"
	"testing"
)

// heldRig is two lanes, the host and a node, with a registered kind that
// logs every firing's lane and time. Lane 1 is closed behind a turn at turnAt
// that opens it again.
type heldRig struct {
	e      *Engine
	kind   Kind
	log    []Time // lane 1's firings, turn included
	turned int    // lane 1 firings before the turn
}

func newHeldRig(turnAt Time) *heldRig {
	r := &heldRig{e: NewEngine(), turned: -1}
	r.e.SetLanes(2)
	r.kind = r.e.Register(func(l int, at Time, _ any) {
		if l == 1 {
			r.log = append(r.log, at)
		}
	})
	r.e.SetLaneClosed(1, true)
	r.e.ScheduleFuncOn(1, 1, turnAt, func() {
		r.turned = len(r.log)
		r.log = append(r.log, r.e.Now())
		r.e.SetLaneClosed(1, false)
	})
	return r
}

// A held queue deep enough to spill drains in order before its lane's turn,
// and through the tournament once the turn opens the lane, and hands its
// radix state back to the pool.
func TestHeldQueueSpillsAndDrains(t *testing.T) {
	const n, turnAt = 4 * spillDepth, 6000
	r := newHeldRig(turnAt)
	rng := pqLane{rng: 3}
	before := 0
	for i := 0; i < n; i++ {
		at := Time(rng.rand(12000))
		if at < turnAt {
			before++
		}
		r.e.ScheduleHeldOn(0, 1, at, r.kind, nil)
	}
	// The host looks in at 3000: every held event before it has fired.
	seen := -1
	r.e.ScheduleFuncOn(0, 0, 3000, func() { seen = len(r.log) })
	if r.e.held[1].deep == nil {
		t.Fatalf("%d held events did not spill", n)
	}
	if _, err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.log) != n+1 || r.e.Fired() != n+2 {
		t.Fatalf("lane 1 fired %d of %d events, %d in all", len(r.log), n+1, r.e.Fired())
	}
	for i := 1; i < len(r.log); i++ {
		if r.log[i] < r.log[i-1] {
			t.Fatalf("lane 1 fired %v after %v", r.log[i], r.log[i-1])
		}
	}
	if r.turned != before {
		t.Fatalf("the turn found %d held events fired, want the %d before it", r.turned, before)
	}
	early := 0
	for _, at := range r.log[:r.turned] {
		if at <= 3000 {
			early++
		}
	}
	if seen != early {
		t.Fatalf("the host event at 3000 saw %d lane-1 firings, want %d", seen, early)
	}
	if h := &r.e.held[1]; h.deep != nil || len(h.heap) != 0 || r.e.Pending() != 0 {
		t.Fatalf("after the run: held queue deep %v, %d held, %d pending", h.deep != nil, len(h.heap), r.e.Pending())
	}
}

// A held event fired off the tournament must schedule nothing: the engine
// refuses one that does.
func TestHeldEventThatSchedulesPanics(t *testing.T) {
	r := newHeldRig(100)
	r.e.ScheduleHeldOn(0, 1, 50, r.e.Register(func(l int, at Time, _ any) {
		r.e.ScheduleFuncOn(l, l, at+1, func() {})
	}), nil)
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "held event") {
			t.Fatalf("recovered %q, want the held-event panic", p)
		}
	}()
	r.e.Run()
	t.Fatal("a held event that scheduled did not panic")
}

// RunUntil(d) fires every held event at or before d before it returns, though
// the closed lane's turn lies beyond d.
func TestRunUntilFiresHeldEvents(t *testing.T) {
	r := newHeldRig(1000)
	for _, at := range []Time{10, 20, 30, 2000} {
		r.e.ScheduleHeldOn(0, 1, at, r.kind, nil)
	}
	if n, err := r.e.RunUntil(25); err != nil || n != 2 || len(r.log) != 2 || r.e.Pending() != 3 {
		t.Fatalf("RunUntil(25): fired %d, logged %v, %d pending, err %v; want 2, [10 20], 3", n, r.log, r.e.Pending(), err)
	}
	if n, err := r.e.RunUntil(1500); err != nil || n != 2 || r.turned != 3 || r.e.Pending() != 1 {
		t.Fatalf("RunUntil(1500): fired %d, logged %v, %d pending, err %v; want 2, the turn after 30, 1", n, r.log, r.e.Pending(), err)
	}
	if n, err := r.e.Run(); err != nil || n != 1 || len(r.log) != 5 || r.log[4] != 2000 {
		t.Fatalf("Run: fired %d, logged %v, err %v; want 1 and 2000 last", n, r.log, err)
	}
}

// A held event fires early, while another lane's event posts to its lane,
// only if nothing can still come before it: not its lane's next event at the
// same instant, nor a post made at the current instant with no delay.
func TestHeldEventWaitsForWhatCanStillPrecede(t *testing.T) {
	e := NewEngine()
	e.SetLanes(4)
	var got []string
	note := e.Register(func(_ int, _ Time, arg any) { got = append(got, arg.(string)) })
	e.SetLaneClosed(1, true)
	e.ScheduleOn(1, 1, 1000, note, "turn")
	// At 100 lane 1 queues X and then holds h, both at 100; lane 2's post
	// into lane 1 must leave h behind X.
	e.ScheduleFuncOn(1, 1, 100, func() {
		e.ScheduleOn(1, 1, 100, note, "X")
		e.ScheduleHeldOn(1, 1, 100, note, "h")
	})
	e.ScheduleFuncOn(2, 2, 100, func() { e.ScheduleHeldOn(2, 1, 500, note, "h500") })
	// At 200 lane 2's post into lane 1 must leave h201 held: lane 3 then
	// posts Z into lane 1 at 200 itself.
	e.ScheduleHeldOn(0, 1, 201, note, "h201")
	e.ScheduleFuncOn(2, 2, 200, func() { e.ScheduleHeldOn(2, 1, 600, note, "h600") })
	e.ScheduleFuncOn(3, 3, 200, func() { e.ScheduleOn(3, 1, 200, note, "Z") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "X h Z h201 h500 h600 turn"; strings.Join(got, " ") != want {
		t.Fatalf("lane 1 fired %q, want %q", strings.Join(got, " "), want)
	}
}
