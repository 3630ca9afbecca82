package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	n, err := e.Run()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if n != 0 {
		t.Fatalf("fired %d events on empty engine", n)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced on empty engine: %v", e.Now())
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.ScheduleFuncOn(0, at, func() { got = append(got, at) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleFuncOn(0, 100, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineNowDuringEvent(t *testing.T) {
	e := NewEngine()
	var seen Time
	e.ScheduleFuncOn(0, 42, func() { seen = e.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Fatalf("Now() inside event = %v, want 42", seen)
	}
}

func TestEngineSchedulingInPastClamps(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.ScheduleFuncOn(0, 100, func() {
		e.ScheduleFuncOn(0, 5, func() { fired = append(fired, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleFuncOn(0, Time(i*10), func() { count++ })
	}
	if _, err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("fired %d events by t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

// RunUntil with a deadline behind the clock fires nothing and leaves the
// clock where it is, rather than moving it back to the deadline.
func TestRunUntilNeverLowersNow(t *testing.T) {
	e := NewEngine()
	for _, at := range []Time{10, 100} {
		e.ScheduleFuncOn(0, at, func() {})
	}
	if _, err := e.RunUntil(50); err != nil || e.Now() != 50 {
		t.Fatalf("RunUntil(50): Now = %v, err %v, want 50", e.Now(), err)
	}
	if n, err := e.RunUntil(20); err != nil || n != 0 || e.Now() != 50 {
		t.Fatalf("RunUntil(20) after RunUntil(50): fired %d, Now = %v, err %v, want 0 and 50", n, e.Now(), err)
	}
	if n, err := e.Run(); err != nil || n != 1 || e.Now() != 100 {
		t.Fatalf("Run: fired %d, Now = %v, err %v, want 1 and 100", n, e.Now(), err)
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling further events must preserve global time order.
	e := NewEngine()
	var order []Time
	record := func() { order = append(order, e.Now()) }
	e.ScheduleFuncOn(0, 10, func() {
		record()
		e.ScheduleFuncOn(0, 15, record)
		e.ScheduleFuncOn(0, 25, record)
	})
	e.ScheduleFuncOn(0, 20, record)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 15, 20, 25}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		var spawn func(depth, id int)
		spawn = func(depth, id int) {
			got = append(got, id)
			if depth < 4 {
				k := rng.Intn(3) + 1
				for i := 0; i < k; i++ {
					child := id*10 + i
					e.ScheduleFuncOn(0, e.Now()+Time(rng.Intn(100)), func() { spawn(depth+1, child) })
				}
			}
		}
		e.ScheduleFuncOn(0, 0, func() { spawn(0, 1) })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run(7)
	b := run(7)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: regardless of insertion order, events fire sorted by time.
func TestEngineSortedFiringProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.ScheduleFuncOn(0, at, func() { fired = append(fired, at) })
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2300, "2.300µs"},
		{8900, "8.900µs"},
		{84 * Millisecond, "84.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Error("Millis conversion wrong")
	}
	if (9 * Microsecond).Micros() != 9.0 {
		t.Error("Micros conversion wrong")
	}
}

// A timer can not be put before the clock: later events have fired already,
// so the timer would fire in its past.
func TestStartTimerAtBeforeLaneClockPanics(t *testing.T) {
	e := NewEngine()
	k := e.Register(func(int, Time, any) {})
	var tm Timer
	fired := false
	e.ScheduleFuncOn(0, 100, func() {
		fired = true
		defer func() {
			if recover() == nil {
				t.Error("StartTimerAt(99) at t=100 did not panic")
			}
		}()
		e.StartTimerAt(0, &tm, 99, 0, k, nil)
	})
	if _, err := e.Run(); err != nil || !fired {
		t.Fatalf("run: %v, fired %v", err, fired)
	}
	if tm.Pending() || e.Pending() != 0 {
		t.Fatal("the refused timer was queued")
	}
}

// freeBlocks counts the bucket blocks in the engine's slab.
func freeBlocks(e *Engine) int {
	n := 0
	for b := e.q.blocks.free; b != nil && n < 1<<20; b = b.next {
		if n++; b.next == b {
			break
		}
	}
	return n
}

// A warmed engine queues and drains 10^5 events without allocating: the
// bucket blocks go back to the engine's slab, and the heap keeps its array.
func TestWarmQueueDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	e.SetLanes(2)
	k := e.Register(func(int, Time, any) {})
	burst := func() {
		// Every burst starts on a 2^20 boundary, so each lays out its
		// buckets, and peaks in blocks, exactly as the first did.
		start := (e.Now()>>20 + 1) << 20
		for i := 0; i < 100_000; i++ {
			e.ScheduleOn(0, i%2, start+Time(i*7919%(1<<16)), k, nil)
		}
		if e.q.n < 90_000 {
			t.Fatalf("the burst put %d events in buckets", e.q.n)
		}
		if n, err := e.Run(); err != nil || n != 100_000 {
			t.Fatalf("fired %d: %v", n, err)
		}
	}
	burst()
	blocks := freeBlocks(e)
	if n := testing.AllocsPerRun(5, burst); n != 0 {
		t.Fatalf("%v allocations per burst, want 0", n)
	}
	if b := freeBlocks(e); b != blocks || blocks == 0 {
		t.Fatalf("the slab holds %d blocks after the bursts, %d after the first", b, blocks)
	}
}

// SetLanes refuses more lanes than an event's key has room for.
func TestSetLanesBound(t *testing.T) {
	e := NewEngine()
	e.SetLanes(MaxLanes)
	var got []int
	k := e.Register(func(l int, _ Time, _ any) { got = append(got, l) })
	e.ScheduleOn(0, MaxLanes-1, 5, k, nil)
	e.ScheduleOn(0, 0, 5, k, nil)
	if _, err := e.Run(); err != nil || len(got) != 2 || got[0] != MaxLanes-1 || got[1] != 0 {
		t.Fatalf("fired on lanes %v (%v), want [%d 0]", got, err, MaxLanes-1)
	}
	for _, n := range []int{0, MaxLanes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLanes(%d) did not panic", n)
				}
			}()
			e.SetLanes(n)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("an event for lane MaxLanes did not panic")
		}
	}()
	e.ScheduleOn(0, MaxLanes, 5, k, nil)
}

// The engine panics rather than let sequence numbers run out of the key.
func TestSequenceExhaustionPanics(t *testing.T) {
	for name, draw := range map[string]func(e *Engine){
		"post":       func(e *Engine) { e.ScheduleFuncOn(0, 1, func() {}) },
		"ReserveSeq": func(e *Engine) { var s uint64; e.ReserveSeq(&s) },
	} {
		e := NewEngine()
		e.seq = maxSeq - 2
		draw(e) // the last number there is
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past sequence number 2^40 did not panic", name)
				}
			}()
			draw(e)
		}()
	}
}
