package sim

import (
	"reflect"
	"slices"
	"testing"
)

// TestStartTimerAtMovesSlot pins the positioning contract: putting a queued
// timer elsewhere moves its one slot — later or earlier — and arming it after
// a Stop queues it afresh.
func TestStartTimerAtMovesSlot(t *testing.T) {
	e := NewEngine()
	var fired []Time
	k := e.RegisterHandler(func(at Time, _ any) { fired = append(fired, at) })
	var seqs [4]uint64
	for i := range seqs {
		e.ScheduleFuncOn(0, 0, Time(10*(i+1)), func() {}) // other traffic to sift through
		e.ReserveSeq(0, &seqs[i])
	}
	var tm Timer
	e.StartTimerAt(0, &tm, 25, seqs[1], k, &tm)
	e.StartTimerAt(0, &tm, 35, seqs[3], k, &tm)
	e.StartTimerAt(0, &tm, 5, seqs[0], k, &tm)
	if p := e.Pending(); p != 5 {
		t.Fatalf("pending = %d after three positionings, want 5", p)
	}
	tm.Stop()
	e.StartTimerAt(0, &tm, 15, seqs[2], k, &tm)
	if p := e.Pending(); p != 5 || !tm.Pending() {
		t.Fatalf("pending = %d, timer queued %v after re-arming, want 5, true", p, tm.Pending())
	}
	n, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []Time{15}) || n != 5 {
		t.Fatalf("fired at %v over %d events, want [15] over 5", fired, n)
	}
	if tm.Pending() || e.Pending() != 0 {
		t.Fatalf("after run: timer queued %v, %d events pending", tm.Pending(), e.Pending())
	}
}

// TestStopTakesSlotOut pins the way out: Stop removes the slot at once — the
// timer and the engine stop counting it, and it never fires or counts in
// Fired — whether it sits mid-heap, at a lane's head under Run (the
// tournament must follow), alone on its lane, or inside a RunParallel window.
func TestStopTakesSlotOut(t *testing.T) {
	e := NewEngine()
	e.SetLanes(4)
	var got []int
	k := e.Register(func(_ int, _ Time, arg any) { got = append(got, arg.(int)) })
	arm := func(l int, tm *Timer, at Time, id int) {
		seq := new(uint64)
		e.ReserveSeq(l, seq)
		e.StartTimerAt(l, tm, at, *seq, k, id)
	}
	var head, alone, mid Timer
	arm(1, &head, 20, -1)
	e.ScheduleOn(1, 1, 30, k, 30)
	e.ScheduleOn(2, 2, 25, k, 25)
	arm(2, &mid, 27, -2)
	arm(3, &alone, 22, -3)
	e.ScheduleFuncOn(0, 0, 10, func() { head.Stop(); alone.Stop() })
	before := e.Pending()
	if mid.Stop(); mid.Pending() || e.Pending() != before-1 {
		t.Fatalf("after Stop: timer queued %v, %d events pending, want false, %d", mid.Pending(), e.Pending(), before-1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{25, 30}) || e.Fired() != 3 || head.Pending() || alone.Pending() {
		t.Fatalf("Run fired %v, %d events in all; want [25 30], 3", got, e.Fired())
	}

	e, got = NewEngine(), nil
	e.SetLanes(2)
	k = e.Register(func(_ int, _ Time, arg any) { got = append(got, arg.(int)) })
	var near, far Timer
	e.ScheduleFuncOn(0, 0, 1, func() { arm(0, &near, 5, -1); arm(0, &far, 500, -2) })
	e.ScheduleFuncOn(0, 0, 2, func() {
		if near.Stop(); near.Pending() {
			t.Error("in-window Stop left the timer queued")
		}
	})
	e.ScheduleFuncOn(0, 0, 3, far.Stop)
	e.ScheduleOn(1, 1, 1, k, 1)
	if _, err := e.RunParallel(2, 100); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1}) || e.Fired() != 4 || e.Pending() != 0 {
		t.Fatalf("RunParallel fired %v, %d events in all, %d left; want [1], 4, 0", got, e.Fired(), e.Pending())
	}
}

// The deadline workload: every lane keeps a set of cancellable deadlines, set
// with delays that are not monotone, most of them cancelled before they fire,
// some re-set when they do — the shape of a retransmission buffer. Times are
// small, so deadlines tie with each other and with the cross-lane pokes all
// the time; the global firing log shows every tie-break.

type dlRec struct {
	id   int
	lane int
	due  Time
	seq  uint64 // shared variant: the reserved tie-break position
}

type dlLane struct {
	rng   uint64
	steps int
	next  int
	pend  []*dlRec
	log   []dlFire
	// Shared variant: one timer for the lane, standing at the earliest of
	// pend (armed), stopped when there is none.
	timer Timer
	armed *dlRec
}

type dlFire struct {
	at Time
	id int // < 0: a poke from the neighbouring lane
}

type dlWorld struct {
	e      *Engine
	shared bool // one timer per lane (ReserveSeq + StartTimerAt) or one event per deadline
	look   Time
	lanes  []dlLane
	global []dlFire // firing order across lanes, kept for sequential runs (nil: off)
	wakeK  Kind     // shared variant's timer callback; arg: the lane index
	// expireK is the per-deadline variant's event; arg: the *dlRec.
	expireK Kind
}

func (l *dlLane) rand(n int) int {
	l.rng = l.rng*6364136223846793005 + 1442695040888963407
	return int((l.rng >> 33) % uint64(n))
}

func (w *dlWorld) fired(l int, f dlFire) {
	w.lanes[l].log = append(w.lanes[l].log, f)
	if w.global != nil {
		w.global = append(w.global, f)
	}
}

func (w *dlWorld) set(l int, d *dlRec, delay Time) {
	ln := &w.lanes[l]
	d.lane, d.due = l, w.e.LaneNow(l)+delay
	ln.pend = append(ln.pend, d)
	if !w.shared {
		w.e.ScheduleOn(l, l, d.due, w.expireK, d)
		return
	}
	w.e.ReserveSeq(l, &d.seq)
	w.schedule(l)
}

// schedule keeps the shared timer at the earliest deadline pending.
func (w *dlWorld) schedule(l int) {
	ln := &w.lanes[l]
	var min *dlRec
	for _, d := range ln.pend {
		if min == nil || d.due < min.due || (d.due == min.due && d.seq < min.seq) {
			min = d
		}
	}
	if min == ln.armed {
		return
	}
	if ln.armed = min; min == nil {
		ln.timer.Stop()
		return
	}
	w.e.StartTimerAt(l, &ln.timer, min.due, min.seq, w.wakeK, l)
}

func (w *dlWorld) drop(l int, d *dlRec) {
	ln := &w.lanes[l]
	ln.pend = slices.DeleteFunc(ln.pend, func(p *dlRec) bool { return p == d })
	if w.shared {
		w.schedule(l)
	}
}

// wake is the shared timer's callback: the deadline it stands at expires, and
// the timer moves on to the earliest one left.
func (w *dlWorld) wake(l int) {
	ln := &w.lanes[l]
	d := ln.armed
	ln.armed = nil
	w.expire(l, d)
	w.schedule(l)
}

// expire lets d fall due; the per-deadline variant's event of a dropped
// deadline finds it gone and does nothing.
func (w *dlWorld) expire(l int, d *dlRec) {
	ln := &w.lanes[l]
	i := slices.Index(ln.pend, d)
	if i < 0 {
		return
	}
	ln.pend = slices.Delete(ln.pend, i, i+1)
	w.fired(l, dlFire{w.e.LaneNow(l), d.id})
	if ln.rand(3) == 0 {
		w.set(l, &dlRec{id: d.id + 1000}, Time(6+ln.rand(60)))
	}
}

func (w *dlWorld) step(l int) {
	ln := &w.lanes[l]
	ln.steps--
	switch r := ln.rand(10); {
	case r < 5:
		ln.next++
		w.set(l, &dlRec{id: l*100000 + ln.next}, Time(6+ln.rand(40)))
	case r < 9:
		if n := len(ln.pend); n > 0 {
			w.drop(l, ln.pend[ln.rand(n)])
		}
	default:
		dst := (l + 1) % len(w.lanes)
		w.e.ScheduleFuncOn(l, dst, w.e.LaneNow(l)+w.look, func() {
			w.fired(dst, dlFire{w.e.LaneNow(dst), -1 - l})
		})
	}
	if ln.steps > 0 {
		w.e.ScheduleFuncOn(l, l, w.e.LaneNow(l)+Time(1+ln.rand(5)), func() { w.step(l) })
	}
}

func newDLWorld(shared bool, lanes, steps int, look Time) *dlWorld {
	w := &dlWorld{e: NewEngine(), shared: shared, look: look, lanes: make([]dlLane, lanes)}
	w.e.SetLanes(lanes)
	w.wakeK = w.e.RegisterHandler(func(_ Time, arg any) { w.wake(arg.(int)) })
	w.expireK = w.e.RegisterHandler(func(_ Time, arg any) { w.expire(arg.(*dlRec).lane, arg.(*dlRec)) })
	for l := range w.lanes {
		l := l
		w.lanes[l].rng = uint64(l)*977 + 13
		w.lanes[l].steps = steps
		w.e.ScheduleFuncOn(l, l, Time(1+l), func() { w.step(l) })
	}
	return w
}

func (w *dlWorld) laneLogs() [][]dlFire {
	out := make([][]dlFire, len(w.lanes))
	for l := range w.lanes {
		out[l] = w.lanes[l].log
	}
	return out
}

// TestReservedDeadlineEquivalence is the contract of ReserveSeq and
// StartTimerAt: one timer per lane, armed at reserved positions, fires every
// deadline at the instant and in the global order that a plain event per
// deadline does — and keeps doing so inside conservative windows, where
// reserved numbers are provisional until the barrier.
func TestReservedDeadlineEquivalence(t *testing.T) {
	const lanes, steps = 5, 600
	const look = Time(12)

	ref := newDLWorld(false, lanes, steps, look)
	ref.global = []dlFire{}
	if _, err := ref.e.Run(); err != nil {
		t.Fatal(err)
	}
	seq := newDLWorld(true, lanes, steps, look)
	seq.global = []dlFire{}
	seqN, err := seq.e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.global) < steps || !reflect.DeepEqual(ref.global, seq.global) {
		t.Fatalf("shared timer diverged from one event per deadline: %d vs %d firings", len(seq.global), len(ref.global))
	}
	ties := 0
	for i := 1; i < len(ref.global); i++ {
		if ref.global[i].at == ref.global[i-1].at {
			ties++
		}
	}
	if ties < 50 {
		t.Fatalf("only %d equal-time firings: the workload does not test tie-breaks", ties)
	}
	if seq.e.Pending() != 0 {
		t.Fatalf("%d events left", seq.e.Pending())
	}
	if seqN >= ref.e.Fired() {
		t.Errorf("shared timer fired %d events, one per deadline %d: nothing saved", seqN, ref.e.Fired())
	}

	par := newDLWorld(true, lanes, steps, look)
	parN, err := par.e.RunParallel(3, look)
	if err != nil {
		t.Fatal(err)
	}
	if parN != seqN || !reflect.DeepEqual(par.laneLogs(), seq.laneLogs()) {
		t.Fatalf("RunParallel diverged (%d events vs %d sequential)", parN, seqN)
	}
}
