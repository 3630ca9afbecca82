// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains per-lane priority queues of events ordered by virtual
// time with a monotonically increasing sequence number as a tie-breaker, so
// two runs over the same inputs produce identical event orderings. Virtual
// time is expressed in nanoseconds (Time).
//
// Events live by value inside per-lane binary heaps (no container/heap, no
// interface boxing), and a small top-level tournament — an index heap over
// the non-empty lanes keyed by their head event's (time, seq) — selects the
// globally next event in O(log lanes). A lane conventionally corresponds to
// one simulated node, which is what makes the conservative parallel runner
// in parallel.go possible.
package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Kind identifies how an event is dispatched when it fires. Kind 0 is a
// plain captured closure; kind 1 is a cancelable Timer slot; kinds obtained
// from RegisterHandler dispatch through a registered handler function with a
// payload, avoiding a closure allocation per event.
type Kind uint8

const (
	kindClosure Kind = iota
	kindTimer
	kindReserve // a birth that holds a reserved sequence number, never an event
	kindHandlerBase
)

// event is a scheduled callback, stored by value in a lane heap — 40 bytes,
// so heap sifts and regrowth move as little as possible. A closure event
// carries its func() in arg (a func value is pointer-shaped: boxing it
// allocates nothing).
type event struct {
	at   Time
	seq  uint64
	kind Kind
	arg  any
}

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// birth records one event scheduled during a parallel window, on the lane
// that scheduled it. Final sequence numbers are assigned at the barrier.
type birth struct {
	at       Time
	seq      uint64
	dst      int32
	kind     Kind
	consumed bool // already fired inside the window (same-lane, in-window)
	arg      any
}

// firedRec logs one fired event that scheduled children, so the barrier can
// replay the window's global firing order and assign sequence numbers
// exactly as the sequential engine would have.
type firedRec struct {
	at       Time
	seq      uint64 // valid when bref < 0 (event existed before the window)
	bref     int32  // birth index when the event was born inside the window
	kidStart int32
	kidEnd   int32
}

// lane is one independent event queue plus its parallel-window scratch
// state. The heap is a standard array binary heap over (at, seq).
type lane struct {
	heap     []event
	dead     int // stopped-timer slots still occupying heap entries
	now      Time
	births   []birth
	log      []firedRec
	winFired uint64
	reserved bool // ReserveSeq ran in this window: the barrier must settle it
}

func (ln *lane) push(ev event) {
	ln.heap = append(ln.heap, ev)
	ln.up(len(ln.heap) - 1)
}

func (ln *lane) pop() event {
	h := ln.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	ln.heap = h[:n]
	ln.down(0)
	return ev
}

func (ln *lane) heapify() {
	for i := len(ln.heap)/2 - 1; i >= 0; i-- {
		ln.down(i)
	}
}

// up sifts entry i towards the root; it reports where the entry ended up.
func (ln *lane) up(i int) int {
	h := ln.heap
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return i
}

// down sifts entry i towards the leaves.
func (ln *lane) down(i int) {
	h := ln.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			m = r
		}
		if !evLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine (or,
// under RunParallel, on the worker that owns the callback's lane for the
// current window).
type Engine struct {
	lanes    []lane
	order    []int32 // index heap over non-empty lanes, keyed by head (at, seq)
	pos      []int32 // lane -> position in order, -1 when absent
	handlers []func(at Time, arg any)
	seq      uint64
	now      Time
	fired    uint64
	limit    uint64 // optional safety limit on fired events; 0 = unlimited
	inPar    bool   // inside a parallel window: post() records births
	provBase uint64 // e.seq at window start; provisional seqs are > provBase
	winEnd   Time
	limitHit atomic.Bool // set by a worker that tripped the event limit
	parWins  uint64      // windows (barriers) of the last RunParallel drive
	heads    []int       // barrier scratch: per-active-lane log cursor
}

// ParWindows reports how many conservative windows — one barrier each —
// the last RunParallel drive executed. Deterministic: the window schedule
// depends only on virtual time and the lookahead, never on the workers.
func (e *Engine) ParWindows() uint64 { return e.parWins }

// NewEngine returns an empty engine at time zero with a single lane.
func NewEngine() *Engine {
	e := &Engine{}
	e.SetLanes(1)
	return e
}

// SetLanes reconfigures the engine to n independent event lanes (n >= 1).
// Lane 0 is the default lane; a machine typically maps node i to lane i+1.
// It panics if events are pending.
func (e *Engine) SetLanes(n int) {
	if n < 1 {
		panic("sim: SetLanes needs at least one lane")
	}
	if e.Pending() > 0 {
		panic("sim: SetLanes with events pending")
	}
	e.lanes = make([]lane, n)
	e.order = e.order[:0]
	e.pos = make([]int32, n)
	for i := range e.pos {
		e.pos[i] = -1
	}
}

// RegisterHandler registers a typed event handler and returns its Kind.
// Events scheduled with that kind dispatch through the handler with their
// payload and fire time — no closure allocation per event.
func (e *Engine) RegisterHandler(h func(at Time, arg any)) Kind {
	e.handlers = append(e.handlers, h)
	k := kindHandlerBase + Kind(len(e.handlers)-1)
	if k < kindHandlerBase {
		panic("sim: too many registered handlers")
	}
	return k
}

// Now returns the current virtual time: the timestamp of the event being
// fired, or of the last fired event when called between Run calls. During
// RunParallel windows, use LaneNow from event callbacks instead.
func (e *Engine) Now() Time { return e.now }

// LaneNow returns the current virtual time as observed by code running on
// the given lane: the lane-local clock inside a parallel window, the global
// clock otherwise.
func (e *Engine) LaneNow(l int) Time {
	if e.inPar {
		return e.lanes[l].now
	}
	return e.now
}

// Fired reports the number of events fired so far. Stopped timer slots that
// are popped (rather than swept) count as fired no-ops.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events currently scheduled across all
// lanes, including not-yet-swept stopped timer slots.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i].heap)
	}
	return n
}

// LivePending is Pending minus stopped-timer slots still occupying heap
// entries: the number of events that will actually do work. A periodic
// activity that should end with the simulation (e.g. checkpoint ticks) keys
// off this — dead retry-timer slots linger for their original deadline and
// would otherwise read as pending work.
func (e *Engine) LivePending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i].heap) - e.lanes[i].dead
	}
	return n
}

// SetEventLimit installs a safety limit: Run returns an error after firing
// n events. Zero disables the limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// post is the single scheduling entry point. src is the lane on whose
// behalf the event is scheduled (the lane of the currently firing event);
// dst is the lane the event should fire on. Outside parallel windows the
// event receives its final sequence number immediately; inside a window it
// is recorded as a birth on src and sequenced at the barrier.
func (e *Engine) post(src, dst int, at Time, kind Kind, arg any) {
	if e.inPar {
		sl := &e.lanes[src]
		if at < sl.now {
			at = sl.now
		}
		idx := len(sl.births)
		sl.births = append(sl.births, birth{at: at, dst: int32(dst), kind: kind, arg: arg})
		if dst == src && at < e.winEnd {
			// Same-lane and inside the window: insert immediately with a
			// provisional sequence number that encodes the birth index and
			// preserves lane-local order (see parallel.go).
			sl.push(event{at: at, seq: e.provBase + 1 + uint64(idx), kind: kind, arg: arg})
		}
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.insert(dst, event{at: at, seq: e.seq, kind: kind, arg: arg})
}

// insert queues ev on lane dst outside a parallel window and keeps the
// tournament current.
func (e *Engine) insert(dst int, ev event) {
	ln := &e.lanes[dst]
	wasEmpty := len(ln.heap) == 0
	ln.push(ev)
	if wasEmpty {
		e.orderAdd(dst)
	} else if ln.heap[0].seq == ev.seq {
		// New head: the lane got earlier, fix its tournament position.
		e.orderUp(int(e.pos[dst]))
	}
}

// ReserveSeq draws the sequence number an event scheduled now from lane src
// would receive and stores it in *into, without queueing anything. With
// StartTimerAt it lets one timer stand in for many deadlines: each deadline
// reserves its tie-break position when it is set, and the timer stands at
// whichever (time, position) is earliest — firing exactly where a timer
// armed per deadline would have. Inside a parallel window *into holds a
// provisional number, ordered correctly against everything on the lane, that
// the barrier replaces with the final one; a target rewritten by then (its
// record was reused) is left alone.
func (e *Engine) ReserveSeq(src int, into *uint64) {
	if e.inPar {
		sl := &e.lanes[src]
		sl.reserved = true
		*into = e.provBase + 1 + uint64(len(sl.births))
		sl.births = append(sl.births, birth{kind: kindReserve, consumed: true, arg: into})
		return
	}
	e.seq++
	*into = e.seq
}

// ScheduleOn enqueues a typed event with payload arg to fire on lane dst at
// virtual time at, scheduled on behalf of lane src. Scheduling in the past
// (at < Now) is clamped to Now, preserving causality.
func (e *Engine) ScheduleOn(src, dst int, at Time, kind Kind, arg any) {
	e.post(src, dst, at, kind, arg)
}

// ScheduleFuncOn enqueues a closure event to fire on lane dst at virtual
// time at, scheduled on behalf of lane src.
func (e *Engine) ScheduleFuncOn(src, dst int, at Time, fire func()) {
	e.post(src, dst, at, kindClosure, fire)
}

// fire dispatches one popped event from lane l.
func (e *Engine) fire(l int, ev *event) {
	switch ev.kind {
	case kindTimer:
		t := ev.arg.(*Timer)
		t.pending = false
		if t.stopped {
			// A stopped slot that escaped the sweep: fires as a no-op.
			if ln := &e.lanes[l]; ln.dead > 0 {
				ln.dead--
			}
			return
		}
		t.fired = true
		e.dispatch(t.kind, ev.at, t.arg)
	default:
		e.dispatch(ev.kind, ev.at, ev.arg)
	}
}

// dispatch runs a closure or a registered handler.
func (e *Engine) dispatch(kind Kind, at Time, arg any) {
	if kind == kindClosure {
		arg.(func())()
		return
	}
	e.handlers[kind-kindHandlerBase](at, arg)
}

// Run fires events in (time, seq) order until the queue is empty or the
// event limit is exceeded. It returns the number of events
// fired during this call and an error if the limit tripped.
func (e *Engine) Run() (uint64, error) {
	return e.RunUntil(-1)
}

// RunUntil is Run bounded by virtual time: events with timestamp > deadline
// stay queued (events exactly at the deadline fire). A negative deadline
// means no bound.
func (e *Engine) RunUntil(deadline Time) (uint64, error) {
	var n uint64
	for {
		if len(e.order) == 0 {
			return n, nil
		}
		l := int(e.order[0])
		ln := &e.lanes[l]
		if deadline >= 0 && ln.heap[0].at > deadline {
			e.now = deadline
			return n, nil
		}
		ev := ln.pop()
		if len(ln.heap) == 0 {
			e.orderRemoveAt(0)
		} else {
			e.orderDown(0)
		}
		e.now = ev.at
		ln.now = ev.at
		e.fire(l, &ev)
		n++
		e.fired++
		if e.limit != 0 && e.fired > e.limit {
			return n, errEventLimit(e.limit, e.now)
		}
	}
}

// Tournament (index heap over non-empty lanes) maintenance. order holds
// lane indices; pos maps a lane to its slot in order (-1 when absent).

func (e *Engine) orderLess(i, j int) bool {
	a, b := e.order[i], e.order[j]
	return evLess(&e.lanes[a].heap[0], &e.lanes[b].heap[0])
}

func (e *Engine) orderSwap(i, j int) {
	e.order[i], e.order[j] = e.order[j], e.order[i]
	e.pos[e.order[i]] = int32(i)
	e.pos[e.order[j]] = int32(j)
}

func (e *Engine) orderUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.orderLess(i, p) {
			break
		}
		e.orderSwap(i, p)
		i = p
	}
}

// orderDown sifts slot i down; it reports whether the slot moved.
func (e *Engine) orderDown(i int) bool {
	start := i
	n := len(e.order)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.orderLess(r, l) {
			m = r
		}
		if !e.orderLess(m, i) {
			break
		}
		e.orderSwap(i, m)
		i = m
	}
	return i > start
}

func (e *Engine) orderAdd(l int) {
	e.pos[l] = int32(len(e.order))
	e.order = append(e.order, int32(l))
	e.orderUp(len(e.order) - 1)
}

func (e *Engine) orderRemoveAt(p int) {
	n := len(e.order) - 1
	l := e.order[p]
	e.orderSwap(p, n)
	e.order = e.order[:n]
	e.pos[l] = -1
	if p < n {
		if !e.orderDown(p) {
			e.orderUp(p)
		}
	}
}

// orderFixLane repositions lane l in the tournament after its head changed
// arbitrarily (sweep), appeared, or disappeared.
func (e *Engine) orderFixLane(l int) {
	p := e.pos[l]
	if len(e.lanes[l].heap) == 0 {
		if p >= 0 {
			e.orderRemoveAt(int(p))
		}
		return
	}
	if p < 0 {
		e.orderAdd(l)
		return
	}
	if !e.orderDown(int(p)) {
		e.orderUp(int(p))
	}
}

// orderRebuild reconstructs the tournament from scratch (used at parallel
// window barriers).
func (e *Engine) orderRebuild() {
	e.order = e.order[:0]
	for i := range e.lanes {
		if len(e.lanes[i].heap) > 0 {
			e.pos[i] = int32(len(e.order))
			e.order = append(e.order, int32(i))
		} else {
			e.pos[i] = -1
		}
	}
	for i := len(e.order)/2 - 1; i >= 0; i-- {
		e.orderDown(i)
	}
}

// Timer is a cancelable, re-armable scheduled callback, used for timeouts
// that are usually canceled before they fire (e.g. retransmission timers).
// Stopping a timer does not immediately remove its slot from the lane heap,
// but the callback is guaranteed not to run, and lanes lazily sweep their
// dead slots once they outnumber live events. The zero value can be armed
// with StartTimerKind or StartTimerAt.
type Timer struct {
	eng     *Engine
	arg     any // the callback: a func() or the payload of a registered kind
	kind    Kind
	lane    int32
	stopped bool
	fired   bool
	pending bool
}

// Stop cancels the timer. Safe to call more than once and after firing.
func (t *Timer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.pending && t.eng != nil {
		t.eng.noteDead(int(t.lane))
	}
}

// Stopped reports whether Stop was called since the timer was last armed.
func (t *Timer) Stopped() bool { return t.stopped }

// Fired reports whether the callback ran since the timer was last armed.
func (t *Timer) Fired() bool { return t.fired }

// Pending reports whether the timer's slot is still in an event queue.
func (t *Timer) Pending() bool { return t.pending }

// StartTimerKind arms (or re-arms) t to fire the registered kind's handler
// with arg on the given lane d nanoseconds from now, scheduled on behalf of
// lane src, so a timer embedded in a record needs no closure bound to it. A
// nil arg reuses the timer's previous kind and payload. Re-arming a timer
// whose slot is still queued panics: stop it and wait for the slot to be
// swept or popped first (Pending reports this).
func (e *Engine) StartTimerKind(src, lane int, t *Timer, d Time, kind Kind, arg any) {
	if t.pending {
		panic("sim: StartTimer on a timer whose slot is still queued")
	}
	e.arm(lane, t, kind, arg)
	now := e.now
	if e.inPar {
		now = e.lanes[src].now
	}
	e.post(src, lane, now+d, kindTimer, t)
}

func (e *Engine) arm(lane int, t *Timer, kind Kind, arg any) {
	t.eng = e
	t.lane = int32(lane)
	t.stopped = false
	t.fired = false
	t.pending = true
	if arg != nil {
		t.kind, t.arg = kind, arg
	}
}

// StartTimerAt puts t at an explicit queue position: virtual time at,
// tie-broken by a sequence number drawn earlier with ReserveSeq on the same
// lane. It consumes no sequence number of its own, and a slot still queued —
// live or stopped — is moved rather than left behind, so a timer that follows
// the earliest of many deadlines leaves no dead slots in its wake (finding
// the slot is a linear scan of the lane's queue). Must
// be called from the lane itself, with at no earlier than the lane's clock,
// on a timer only ever armed this way.
func (e *Engine) StartTimerAt(lane int, t *Timer, at Time, seq uint64, kind Kind, arg any) {
	ln := &e.lanes[lane]
	if t.pending {
		if t.stopped && ln.dead > 0 {
			ln.dead--
		}
		e.arm(lane, t, kind, arg)
		i := slices.IndexFunc(ln.heap, func(ev event) bool { return ev.kind == kindTimer && ev.arg == any(t) })
		ln.heap[i].at, ln.heap[i].seq = at, seq
		ln.down(ln.up(i))
		if !e.inPar {
			e.orderFixLane(lane)
		}
		return
	}
	e.arm(lane, t, kind, arg)
	ev := event{at: at, seq: seq, kind: kindTimer, arg: t}
	if e.inPar {
		// The lane's heap is this worker's for the window, and an event keyed
		// by an existing number needs no birth: in-window it fires in place,
		// beyond the window it is already where the barrier would put it (a
		// provisional key is settled there, see settleReserved).
		ln.push(ev)
		return
	}
	e.insert(lane, ev)
}

// noteDead records one newly stopped pending timer slot on lane l and
// sweeps the lane once dead slots exceed half its queue.
func (e *Engine) noteDead(l int) {
	ln := &e.lanes[l]
	ln.dead++
	if ln.dead*2 > len(ln.heap) {
		e.sweepLane(l)
	}
}

// sweepLane removes stopped timer slots from lane l's heap and re-heapifies.
func (e *Engine) sweepLane(l int) {
	ln := &e.lanes[l]
	kept := ln.heap[:0]
	for i := range ln.heap {
		ev := ln.heap[i]
		if ev.kind == kindTimer {
			if t := ev.arg.(*Timer); t.stopped {
				t.pending = false
				continue
			}
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(ln.heap); i++ {
		ln.heap[i] = event{}
	}
	ln.heap = kept
	ln.dead = 0
	ln.heapify()
	if !e.inPar {
		e.orderFixLane(l)
	}
}
