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
		e.ScheduleFuncOn(0, 0, at, func() { got = append(got, at) })
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
	e.ScheduleFuncOn(0, 0, 100, func() {
		e.ScheduleFuncOn(0, 0, 50, func() { got = append(got, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped event fired at %v, want %v", got, want)
	}
}

// TestLaneSchedulingAndLaneNow drives typed events across lanes and checks
// the global merge order plus each lane's local clock.
func TestLaneSchedulingAndLaneNow(t *testing.T) {
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
	// Outside a parallel window LaneNow is the global clock.
	if e.LaneNow(1) != e.Now() || e.Now() != 30 {
		t.Fatalf("LaneNow/Now = %v/%v, want 30/30", e.LaneNow(1), e.Now())
	}
}

// parallelWorkload loads e with a deterministic multi-lane cascade whose
// cross-lane children always land at least lookahead ahead of the
// scheduling lane's clock (the conservative-parallelism contract). Each
// lane appends its firings to its own log slice, so callbacks stay
// lane-local under RunParallel.
func parallelWorkload(e *Engine, lanes int, lookahead Time, logs [][]Time) {
	var spawn func(lane, depth, v int)
	spawn = func(lane, depth, v int) {
		e.ScheduleFuncOn(lane, lane, e.LaneNow(lane)+Time(v%13), func() {
			logs[lane] = append(logs[lane], e.LaneNow(lane))
			if depth == 0 {
				return
			}
			// Same-lane child inside the window, cross-lane child at the
			// minimum legal distance.
			spawn(lane, depth-1, v*7+1)
			dst := (lane + v) % lanes
			e.ScheduleFuncOn(lane, dst, e.LaneNow(lane)+lookahead+Time(v%29), func() {
				logs[dst] = append(logs[dst], e.LaneNow(dst))
			})
		})
	}
	for l := 0; l < lanes; l++ {
		spawn(l, 6, l+3)
	}
}

// TestRunParallelMatchesRun runs the same cascade sequentially and under
// the windowed parallel executor and requires identical per-lane firing
// logs, total event counts, and final clocks.
func TestRunParallelMatchesRun(t *testing.T) {
	const lanes = 8
	const lookahead = Time(50)

	runOne := func(par bool) ([][]Time, uint64, Time) {
		e := NewEngine()
		e.SetLanes(lanes)
		logs := make([][]Time, lanes)
		parallelWorkload(e, lanes, lookahead, logs)
		var n uint64
		var err error
		if par {
			n, err = e.RunParallel(4, lookahead)
		} else {
			n, err = e.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		last := Time(0)
		for l := 0; l < lanes; l++ {
			if ln := e.LaneNow(l); ln > last {
				last = ln
			}
		}
		return logs, n, last
	}

	seqLogs, seqN, seqLast := runOne(false)
	parLogs, parN, parLast := runOne(true)
	if seqN != parN {
		t.Fatalf("event counts differ: sequential %d, parallel %d", seqN, parN)
	}
	if seqLast != parLast {
		t.Fatalf("final clocks differ: sequential %v, parallel %v", seqLast, parLast)
	}
	if !reflect.DeepEqual(seqLogs, parLogs) {
		t.Fatalf("per-lane firing logs differ:\nsequential %v\nparallel   %v", seqLogs, parLogs)
	}
}
