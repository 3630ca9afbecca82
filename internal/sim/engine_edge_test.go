package sim

import (
	"reflect"
	"testing"
)

// TestRunUntilDeadlineOnEventTimestamp pins the boundary semantics: events
// stamped exactly at the deadline fire, later ones stay queued, and the
// clock parks on the deadline.
func TestRunUntilDeadlineOnEventTimestamp(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{99, 100, 100, 101} {
		at := at
		e.ScheduleFuncOn(0, at, func() { got = append(got, at) })
	}
	n, err := e.RunUntil(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d events up to deadline, want 3", n)
	}
	if want := []Time{99, 100, 100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 100 {
		t.Fatalf("clock parked at %v, want deadline 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want 1", e.Pending())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{99, 100, 100, 101}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after resume fired %v, want %v", got, want)
	}
}

// TestSchedulePastDuringFiring checks the causality clamp from inside an
// event callback: a schedule into the past lands at the current instant and
// still fires within the same run, after the current event.
func TestSchedulePastDuringFiring(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.ScheduleFuncOn(0, 100, func() {
		e.ScheduleFuncOn(0, 50, func() { got = append(got, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped event fired at %v, want %v", got, want)
	}
}

// TestEventsMergeAcrossLanes drives typed events across lanes and checks
// that they fire in one (time, seq) order, plus the clock they leave behind.
func TestEventsMergeAcrossLanes(t *testing.T) {
	e := NewEngine()
	e.SetLanes(4)
	type rec struct {
		lane int
		at   Time
	}
	var got []rec
	kind := e.RegisterHandler(func(at Time, arg any) {
		got = append(got, rec{arg.(int), at})
	})
	e.ScheduleOn(0, 2, 30, kind, 2)
	e.ScheduleOn(0, 1, 10, kind, 1)
	e.ScheduleOn(1, 3, 20, kind, 3)
	e.ScheduleOn(2, 1, 20, kind, 1) // same time as lane 3's: scheduled later, fires later
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, 10}, {3, 20}, {1, 20}, {2, 30}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}
