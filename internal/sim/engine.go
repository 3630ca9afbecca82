// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains per-lane priority queues of events ordered by virtual
// time with a monotonically increasing sequence number as a tie-breaker, so
// two runs over the same inputs produce identical event orderings. Virtual
// time is expressed in nanoseconds (Time).
//
// Events live by value in per-lane queues (no container/heap, no interface
// boxing): a 4-ary heap while the lane is shallow, and past spillDepth events
// a monotone radix queue over pooled event blocks that hands the lane back to
// the heap when it drains (deep.go). A small top-level tournament — a binary
// heap over the non-empty lanes that carries each lane's head (time, seq)
// beside the lane index — selects the globally next event in O(log lanes). A
// lane conventionally corresponds to one simulated node, which is what makes
// the conservative parallel runner in parallel.go possible.
package sim

import "fmt"

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
// plain captured closure; kind 1 is a movable Timer slot; kinds obtained
// from Register dispatch through a registered Handler with a payload,
// avoiding a closure allocation per event.
type Kind uint8

const (
	kindClosure Kind = iota
	kindTimer
	kindReserve // a birth that holds a reserved sequence number, never an event
	kindHandlerBase
)

// Handler is a registered event kind's callback: the lane the event fires
// on, its virtual time, and its payload. The lane is what lets a handler
// find its node without reading the payload.
type Handler func(lane int, at Time, arg any)

// event is a scheduled callback, stored by value in a lane's heap or bucket
// blocks — 32 bytes, so sifts and re-bucketing move as little as possible.
// key packs the sequence number above the kind's byte: sequence numbers are
// unique, so keys order exactly as they do. A closure event carries its
// func() in arg (a func value is pointer-shaped: boxing it allocates nothing).
type event struct {
	at  Time
	key uint64 // seq<<8 | kind
	arg any
}

func evKey(seq uint64, kind Kind) uint64 { return seq<<8 | uint64(kind) }

func (ev *event) seq() uint64 { return ev.key >> 8 }
func (ev *event) kind() Kind  { return Kind(ev.key) }

// before is the queue order: time, then sequence number.
func before(at Time, key uint64, bAt Time, bKey uint64) bool {
	return at < bAt || at == bAt && key < bKey
}

func evLess(a, b *event) bool { return before(a.at, a.key, b.at, b.key) }

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
// state. The heap is a 4-ary array heap over (at, seq): half the levels of a
// binary one, and a node's four children span two cache lines. Sifts move a
// hole rather than swapping. The array starts at laneMinCap events and a lane
// that fills it spills: it keeps only its earliest events there and the rest
// in a radix queue (deep.go); either way heap[0] is the lane's head.
type lane struct {
	heap     []event
	deep     *deepQ // the radix buckets while the lane is deep, else nil
	now      Time
	births   []birth
	log      []firedRec
	winFired uint64
	reserved bool  // ReserveSeq ran in this window: the barrier must settle it
	worker   int32 // the worker slot running the lane in the current window
}

const laneMinCap = 128

// depth is the number of events queued on the lane.
func (ln *lane) depth() int {
	if ln.deep != nil {
		return len(ln.heap) + ln.deep.n
	}
	return len(ln.heap)
}

// push queues ev in the heap, whatever the lane's depth (Engine.enqueue
// decides between heap and buckets).
func (ln *lane) push(ev event) {
	if len(ln.heap) == cap(ln.heap) {
		ln.grow()
	}
	h := ln.heap
	ln.heap = h[:len(h)+1]
	ln.place(len(h), ev)
}

func (ln *lane) grow() {
	g := make([]event, len(ln.heap), max(2*cap(ln.heap), laneMinCap))
	copy(g, ln.heap)
	ln.heap = g
}

// remove takes heap entry i out; the last entry fills the hole.
// Engine.take refills a deep lane's heap after it.
func (ln *lane) remove(i int) {
	h := ln.heap
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	ln.heap = h[:n]
	if i < n {
		ln.settle(i, last)
	}
}

// settle puts ev into the hole at i: above it if ev is earlier than the
// hole's parent, otherwise at or below it.
func (ln *lane) settle(i int, ev event) {
	if i > 0 && evLess(&ev, &ln.heap[(i-1)/4]) {
		ln.place(i, ev)
		return
	}
	ln.sink(i, ev)
}

// place settles ev, bound for the hole at i, at or above it.
func (ln *lane) place(i int, ev event) int {
	h := ln.heap
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	return i
}

// sink settles ev, bound for the hole at i, at or below it.
func (ln *lane) sink(i int, ev event) {
	h := ln.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// entry is one non-empty lane in the tournament: its head's key beside its
// index, so a comparison reads neither lane.
type entry struct {
	at   Time
	key  uint64
	lane int32
}

func (a *entry) less(b *entry) bool { return before(a.at, a.key, b.at, b.key) }

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine (or,
// under RunParallel, on the worker that owns the callback's lane for the
// current window).
type Engine struct {
	lanes    []lane
	order    []entry // binary heap over the non-empty lanes' heads
	pos      []int32 // lane -> position in order, -1 when absent
	handlers []Handler
	seq      uint64
	now      Time
	fired    uint64
	inPar    bool   // inside a parallel window: post() records births
	provBase uint64 // e.seq at window start; provisional seqs are > provBase
	winEnd   Time
	parWins  uint64                   // windows (barriers) of the last RunParallel drive
	heads    []int                    // barrier scratch: per-active-lane log cursor
	pools    []pool                   // every Pool built on the engine, sized to slots
	slots    int                      // worker slots the pools hold a slab for
	blocks   *Pool[evBlock, *evBlock] // deep lanes' bucket blocks
	deeps    *Pool[deepQ, *deepQ]     // deep lanes' radix states
}

// Worker reports which worker runs lane l: its slot inside a parallel window,
// 0 outside one and for a window's lone active lane, which runs on the
// caller's goroutine. Code firing on lane l may touch what belongs to that
// worker alone — which is what makes a Pool safe without locks.
func (e *Engine) Worker(l int) int {
	if !e.inPar {
		return 0
	}
	return int(e.lanes[l].worker)
}

// growPools gives every pool a slab for each of n worker slots. It runs
// before a parallel drive starts, while no worker is running.
func (e *Engine) growPools(n int) {
	if n <= e.slots {
		return
	}
	e.slots = n
	for _, p := range e.pools {
		p.grow(n)
	}
}

// ParWindows reports how many conservative windows — one barrier each —
// the last RunParallel drive executed. Deterministic: the window schedule
// depends only on virtual time and the lookahead, never on the workers.
func (e *Engine) ParWindows() uint64 { return e.parWins }

// NewEngine returns an empty engine at time zero with a single lane.
func NewEngine() *Engine {
	e := &Engine{slots: 1}
	e.blocks = NewPool[evBlock](e)
	e.deeps = NewPool[deepQ](e)
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

// Register registers a typed event handler and returns its Kind. Events
// scheduled with that kind dispatch through the handler with their lane,
// fire time and payload — no closure allocation per event.
func (e *Engine) Register(h Handler) Kind {
	e.handlers = append(e.handlers, h)
	k := kindHandlerBase + Kind(len(e.handlers)-1)
	if k < kindHandlerBase {
		panic("sim: too many registered handlers")
	}
	return k
}

// RegisterHandler is Register for a handler that ignores the lane. It stays
// for the benchmark harness's isolated driver, which is built against it.
func (e *Engine) RegisterHandler(h func(at Time, arg any)) Kind {
	return e.Register(func(_ int, at Time, arg any) { h(at, arg) })
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

// Fired reports the number of events fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events currently scheduled across all
// lanes: a stopped timer has left its queue.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.lanes {
		n += e.lanes[i].depth()
	}
	return n
}

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
			e.enqueue(src, event{at: at, key: evKey(e.provBase+1+uint64(idx), kind), arg: arg})
		}
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.insert(dst, event{at: at, key: evKey(e.seq, kind), arg: arg})
}

// insert queues ev on lane dst outside a parallel window and keeps the
// tournament current.
func (e *Engine) insert(dst int, ev event) {
	if !e.enqueue(dst, ev) {
		return
	}
	if p := e.pos[dst]; p < 0 {
		e.orderAdd(dst)
	} else {
		// New head: the lane got earlier, fix its tournament position.
		e.order[p].at, e.order[p].key = ev.at, ev.key
		e.orderUp(int(p))
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
	kind, arg := ev.kind(), ev.arg
	if kind == kindTimer {
		t := arg.(*Timer)
		t.pending = false
		kind, arg = t.kind, t.arg
	}
	if kind == kindClosure {
		arg.(func())()
		return
	}
	e.handlers[kind-kindHandlerBase](l, ev.at, arg)
}

// Run fires events in (time, seq) order until the queue is empty. It returns
// the number of events fired during this call; the error is always nil.
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
		top := &e.order[0]
		if deadline >= 0 && top.at > deadline {
			e.now = deadline
			return n, nil
		}
		l := int(top.lane)
		ln := &e.lanes[l]
		ev := e.dequeue(l)
		if len(ln.heap) == 0 {
			e.orderRemoveAt(0)
		} else {
			top.at, top.key = ln.heap[0].at, ln.heap[0].key
			e.orderDown(0)
		}
		e.now = ev.at
		ln.now = ev.at
		e.fire(l, &ev)
		n++
		e.fired++
	}
}

// Tournament maintenance. order is a binary heap of entries; pos maps a
// lane to its slot in order (-1 when absent). An entry's key is its lane's
// head: whoever changes the head rewrites the entry before sifting it.

// orderUp sifts slot i towards the root.
func (e *Engine) orderUp(i int) {
	o := e.order
	x := o[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&o[p]) {
			break
		}
		o[i] = o[p]
		e.pos[o[i].lane] = int32(i)
		i = p
	}
	o[i] = x
	e.pos[x.lane] = int32(i)
}

// orderDown sifts slot i down; it reports whether the slot moved.
func (e *Engine) orderDown(i int) bool {
	o := e.order
	n := len(o)
	x := o[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && o[r].less(&o[c]) {
			c = r
		}
		if !o[c].less(&x) {
			break
		}
		o[i] = o[c]
		e.pos[o[i].lane] = int32(i)
		i = c
	}
	o[i] = x
	e.pos[x.lane] = int32(i)
	return i > start
}

func (e *Engine) orderAdd(l int) {
	h := &e.lanes[l].heap[0]
	e.order = append(e.order, entry{at: h.at, key: h.key, lane: int32(l)})
	e.orderUp(len(e.order) - 1)
}

func (e *Engine) orderRemoveAt(p int) {
	n := len(e.order) - 1
	e.pos[e.order[p].lane] = -1
	last := e.order[n]
	e.order = e.order[:n]
	if p < n {
		e.order[p] = last
		if !e.orderDown(p) {
			e.orderUp(p)
		}
	}
}

// orderFixLane repositions lane l in the tournament after its head changed
// arbitrarily (a timer moved or stopped), appeared, or disappeared.
func (e *Engine) orderFixLane(l int) {
	p := e.pos[l]
	h := e.lanes[l].heap
	if len(h) == 0 {
		if p >= 0 {
			e.orderRemoveAt(int(p))
		}
		return
	}
	if p < 0 {
		e.orderAdd(l)
		return
	}
	e.order[p].at, e.order[p].key = h[0].at, h[0].key
	if !e.orderDown(int(p)) {
		e.orderUp(int(p))
	}
}

// orderRebuild reconstructs the tournament from scratch (used at parallel
// window barriers).
func (e *Engine) orderRebuild() {
	e.order = e.order[:0]
	for i := range e.lanes {
		e.pos[i] = -1
		if h := e.lanes[i].heap; len(h) > 0 {
			e.order = append(e.order, entry{at: h[0].at, key: h[0].key, lane: int32(i)})
		}
	}
	for i := range e.order {
		e.pos[e.order[i].lane] = int32(i)
	}
	for i := len(e.order)/2 - 1; i >= 0; i-- {
		e.orderDown(i)
	}
}

// Timer is a movable queue slot: StartTimerAt puts it at a (time, reserved
// sequence number) position, or moves it there if it is already queued, and
// Stop takes it out. One timer can so stand in for many deadlines, following
// the earliest. The zero value is ready to be armed.
type Timer struct {
	eng     *Engine
	arg     any // the callback: a func() or the payload of a registered kind
	kind    Kind
	pending bool
	lane    int32
}

// Stop takes the timer's slot out of its lane's queue at once. Safe to call
// more than once and after firing. Inside a parallel window it must run on the
// timer's lane.
func (t *Timer) Stop() {
	if !t.pending {
		return
	}
	t.pending = false
	e, l := t.eng, int(t.lane)
	b, i := e.lanes[l].find(t)
	e.take(l, b, i)
	if !e.inPar {
		e.orderFixLane(l)
	}
}

// Pending reports whether the timer's slot is in an event queue.
func (t *Timer) Pending() bool { return t.pending }

// StartTimerAt puts t at an explicit queue position: virtual time at,
// tie-broken by a sequence number drawn earlier with ReserveSeq on the same
// lane, to fire the registered kind's handler with arg there. It consumes no
// sequence number of its own, and a slot still queued is moved rather than
// queued twice. Must be called from the lane itself, with at no earlier than
// the lane's clock (LaneNow): an earlier time panics.
func (e *Engine) StartTimerAt(lane int, t *Timer, at Time, seq uint64, kind Kind, arg any) {
	if now := e.LaneNow(lane); at < now {
		panic(fmt.Sprintf("sim: StartTimerAt(%v) on lane %d before its clock %v", at, lane, now))
	}
	t.kind, t.arg = kind, arg
	ev := event{at: at, key: evKey(seq, kindTimer), arg: t}
	if t.pending {
		b, i := e.lanes[lane].find(t)
		e.move(lane, b, i, ev)
		if !e.inPar {
			e.orderFixLane(lane)
		}
		return
	}
	t.eng, t.lane, t.pending = e, int32(lane), true
	if e.inPar {
		// The lane's queue is this worker's for the window, and an event keyed
		// by an existing number needs no birth: in-window it fires in place,
		// beyond the window it is already where the barrier would put it (a
		// provisional key is settled there, see settleReserved).
		e.enqueue(lane, ev)
		return
	}
	e.insert(lane, ev)
}
