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
		e.ScheduleFuncOn(0, 0, at, func() { got = append(got, at) })
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
		e.ScheduleFuncOn(0, 0, 100, func() { got = append(got, i) })
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
	e.ScheduleFuncOn(0, 0, 42, func() { seen = e.Now() })
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
	e.ScheduleFuncOn(0, 0, 100, func() {
		e.ScheduleFuncOn(0, 0, 5, func() { fired = append(fired, e.Now()) })
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
		e.ScheduleFuncOn(0, 0, Time(i*10), func() { count++ })
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
		e.ScheduleFuncOn(0, 0, at, func() {})
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
	e.ScheduleFuncOn(0, 0, 10, func() {
		record()
		e.ScheduleFuncOn(0, 0, 15, record)
		e.ScheduleFuncOn(0, 0, 25, record)
	})
	e.ScheduleFuncOn(0, 0, 20, record)
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
					e.ScheduleFuncOn(0, 0, e.Now()+Time(rng.Intn(100)), func() { spawn(depth+1, child) })
				}
			}
		}
		e.ScheduleFuncOn(0, 0, 0, func() { spawn(0, 1) })
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
			e.ScheduleFuncOn(0, 0, at, func() { fired = append(fired, at) })
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
	e.ScheduleFuncOn(0, 0, 100, func() {
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

// A warmed engine spills a lane and drains it again without allocating: the
// bucket blocks and the radix state go back to the engine's pools, and the
// heap keeps its array.
func TestDeepLaneReusesItsStorage(t *testing.T) {
	e := NewEngine()
	e.SetLanes(2)
	k := e.Register(func(int, Time, any) {})
	idle := func() (blocks, deeps int) {
		for b := e.blocks.free; b != nil && blocks < 1<<20; b = b.next {
			if blocks++; b.next == b {
				break
			}
		}
		for d := e.deeps.free; d != nil && deeps < 1<<20; d = d.free {
			if deeps++; d.free == d {
				break
			}
		}
		return blocks, deeps
	}
	burst := func() {
		// Every burst starts on a 2^20 boundary, so each lays out its
		// buckets, and peaks in blocks, exactly as the first did.
		start := (e.Now()>>20 + 1) << 20
		for i := 0; i < 8*spillDepth; i++ {
			e.ScheduleOn(0, 1, start+Time(i*7919%5000), k, nil)
		}
		if e.lanes[1].deep == nil {
			t.Fatal("the burst did not spill its lane")
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.lanes[1].deep != nil {
			t.Fatal("the drained lane is still deep")
		}
	}
	burst()
	blocks, deeps := idle()
	if n := testing.AllocsPerRun(5, burst); n != 0 {
		t.Fatalf("%v allocations per spill and drain, want 0", n)
	}
	if b, d := idle(); b != blocks || d != deeps || blocks == 0 || deeps == 0 {
		t.Fatalf("pools hold %d blocks and %d radix states after the bursts, %d and %d after the first", b, d, blocks, deeps)
	}
}
