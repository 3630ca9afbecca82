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
// beside the lane index — selects the globally next event in O(log lanes).
// Events a closed lane may hold (ScheduleHeldOn) wait beside it, off the
// tournament. A lane conventionally corresponds to one simulated node.
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

// queue is one event queue: a 4-ary array heap over (at, seq) — half the
// levels of a binary one, and a node's four children span two cache lines —
// that spills into a radix queue when it fills (deep.go); either way heap[0]
// is the queue's head. Sifts move a hole rather than swapping.
type queue struct {
	heap []event
	deep *deepQ // the radix buckets while the queue is deep, else nil
}

// lane is one independent event queue. Beside it, out of line, the engine
// keeps the lane's held queue (see ScheduleHeldOn); closed keeps that queue
// off the tournament.
type lane struct {
	queue
	closed bool // the held queue waits off the tournament (SetLaneClosed)
}

// laneMinCap is a lane's first heap capacity, carved for every lane from one
// array: a node's lane holds turns, timers and hooked arrivals, a few events,
// while its packet arrivals wait in the held queue.
const laneMinCap = 16

// depth is the number of events queued.
func (q *queue) depth() int {
	if q.deep != nil {
		return len(q.heap) + q.deep.n
	}
	return len(q.heap)
}

// push queues ev in the heap, whatever the queue's depth (Engine.enqueue
// decides between heap and buckets).
func (q *queue) push(ev event) {
	if len(q.heap) == cap(q.heap) {
		q.grow()
	}
	h := q.heap
	q.heap = h[:len(h)+1]
	q.place(len(h), ev)
}

func (q *queue) grow() {
	g := make([]event, len(q.heap), max(2*cap(q.heap), spillDepth))
	copy(g, q.heap)
	q.heap = g
}

// remove takes heap entry i out; the last entry fills the hole.
// Engine.take refills a deep queue's heap after it.
func (q *queue) remove(i int) {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	q.heap = h[:n]
	if i < n {
		q.settle(i, last)
	}
}

// settle puts ev into the hole at i: above it if ev is earlier than the
// hole's parent, otherwise at or below it.
func (q *queue) settle(i int, ev event) {
	if i > 0 && evLess(&ev, &q.heap[(i-1)/4]) {
		q.place(i, ev)
		return
	}
	q.sink(i, ev)
}

// place settles ev, bound for the hole at i, at or above it.
func (q *queue) place(i int, ev event) int {
	h := q.heap
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
func (q *queue) sink(i int, ev event) {
	h := q.heap
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
// concurrent use; all event callbacks run on the caller's goroutine.
type Engine struct {
	lanes    []lane
	held     []queue // per lane: events that may wait off the tournament
	nheld    int     // events in all held queues
	order    []entry // binary heap over the lanes' fronts (see front)
	pos      []int32 // lane -> position in order, -1 when absent
	firing   int     // the lane whose event fires; its entry is fixed after it
	handlers []Handler
	seq      uint64
	now      Time
	fired    uint64
	blocks   Slab[evBlock, *evBlock] // deep lanes' bucket blocks
	deeps    Slab[deepQ, *deepQ]     // deep lanes' radix states
}

// maxTime is the largest representable virtual time.
const maxTime = Time(1<<63 - 1)

// NewEngine returns an empty engine at time zero with a single lane.
func NewEngine() *Engine {
	e := &Engine{firing: -1}
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
	heaps := make([]event, n*laneMinCap)
	for i := range e.lanes {
		e.lanes[i].heap = heaps[i*laneMinCap : i*laneMinCap : (i+1)*laneMinCap]
	}
	e.held = make([]queue, n)
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
// fired, or of the last fired event when called between Run calls.
func (e *Engine) Now() Time { return e.now }

// Fired reports the number of events fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events currently scheduled across all
// lanes, held ones included: a stopped timer has left its queue.
func (e *Engine) Pending() int {
	n := e.nheld
	for i := range e.lanes {
		n += e.lanes[i].depth()
	}
	return n
}

// post is the single scheduling entry point: the event fires on lane dst
// and receives the next sequence number.
func (e *Engine) post(dst int, at Time, kind Kind, arg any) {
	e.seq++
	e.insert(dst, event{at: max(at, e.now), key: evKey(e.seq, kind), arg: arg})
}

// insert queues ev on lane dst and keeps the tournament current.
func (e *Engine) insert(dst int, ev event) {
	if e.enqueue(&e.lanes[dst].queue, ev) {
		e.orderFixLane(dst)
	}
}

// ReserveSeq draws the sequence number an event scheduled now from lane src
// would receive and stores it in *into, without queueing anything. With
// StartTimerAt it lets one timer stand in for many deadlines: each deadline
// reserves its tie-break position when it is set, and the timer stands at
// whichever (time, position) is earliest — firing exactly where a timer
// armed per deadline would have.
func (e *Engine) ReserveSeq(src int, into *uint64) {
	e.seq++
	*into = e.seq
}

// ScheduleOn enqueues a typed event with payload arg to fire on lane dst at
// virtual time at, scheduled on behalf of lane src (which the engine does not
// read). Scheduling in the past (at < Now) is clamped to Now, preserving
// causality.
func (e *Engine) ScheduleOn(src, dst int, at Time, kind Kind, arg any) {
	e.post(dst, at, kind, arg)
}

// ScheduleFuncOn enqueues a closure event to fire on lane dst at virtual
// time at, scheduled on behalf of lane src.
func (e *Engine) ScheduleFuncOn(src, dst int, at Time, fire func()) {
	e.post(dst, at, kindClosure, fire)
}

// ScheduleHeldOn is ScheduleOn for an event that may be held: it waits in
// lane dst's held queue, whose head competes in the tournament while the lane
// is open. While the lane is closed (SetLaneClosed) the held queue stays off
// the tournament, and each held event fires, in (time, seq) order with its
// own time, immediately before the next other event of its lane that comes
// after it, before any later event of lane 0 (the host lane), before RunUntil
// returns if it falls at or before the deadline, and sooner, when an event
// posts into the closed lane, if it lies before the clock.
// Every lane so fires the same events in the same order with the same
// sequence numbers as if nothing were held; only their interleaving with
// other lanes' events moves. That is exact for events that, while their lane
// is closed, touch only their lane's state and schedule nothing: the engine
// panics if one fired off the tournament schedules.
func (e *Engine) ScheduleHeldOn(src, dst int, at Time, kind Kind, arg any) {
	e.seq++
	ev := event{at: max(at, e.now), key: evKey(e.seq, kind), arg: arg}
	hq := &e.held[dst]
	if h := hq.heap; len(h) > 0 && h[0].at < e.now {
		// Held events before the clock come before everything yet to fire:
		// firing them now, not at the lane's next event, keeps the held
		// queue as short as what is still in flight to the lane.
		e.drain(dst, e.now, 0)
	}
	e.nheld++
	if e.enqueue(hq, ev) && !e.lanes[dst].closed {
		e.orderFixLane(dst)
	}
}

// SetLaneClosed closes or opens lane l (see ScheduleHeldOn).
func (e *Engine) SetLaneClosed(l int, closed bool) {
	if ln := &e.lanes[l]; ln.closed != closed {
		ln.closed = closed
		if len(e.held[l].heap) > 0 {
			e.orderFixLane(l)
		}
	}
}

// unhold pops lane l's held head.
func (e *Engine) unhold(l int) event {
	e.nheld--
	return e.dequeue(&e.held[l])
}

// drain fires lane l's held events that come before (at, key), off the
// tournament.
func (e *Engine) drain(l int, at Time, key uint64) {
	for h := &e.held[l].heap; len(*h) > 0 && before((*h)[0].at, (*h)[0].key, at, key); {
		ev := e.unhold(l)
		seq := e.seq
		e.now = max(e.now, ev.at)
		e.fire(l, &ev)
		if e.seq != seq {
			panic(fmt.Sprintf("sim: a held event fired off the tournament on lane %d scheduled", l))
		}
		e.fired++
	}
}

// drainAll drains every lane's held events that come before (at, key).
func (e *Engine) drainAll(at Time, key uint64) {
	for l := 0; l < len(e.held) && e.nheld > 0; l++ {
		e.drain(l, at, key)
	}
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
// stay queued (events exactly at the deadline fire), and the clock moves up
// to the deadline if it was behind it. A negative deadline means no bound.
func (e *Engine) RunUntil(deadline Time) (uint64, error) {
	start := e.fired
	for len(e.order) > 0 {
		top := &e.order[0]
		if deadline >= 0 && top.at > deadline {
			e.now = max(e.now, deadline)
			break
		}
		l := int(top.lane)
		ln := &e.lanes[l]
		if l == 0 && e.nheld > 0 {
			e.drainAll(top.at, top.key)
		}
		q := &ln.queue
		if h := e.held[l].heap; len(h) > 0 {
			if ln.closed {
				e.drain(l, top.at, top.key)
			} else if len(ln.heap) == 0 || evLess(&h[0], &ln.heap[0]) {
				q = nil
			}
		}
		var ev event
		if q != nil {
			ev = e.dequeue(q)
		} else {
			ev = e.unhold(l)
		}
		e.now = ev.at
		// The fired lane's entry is fixed once, after the event: what the
		// event queues on its own lane, and its gate, leave the entry alone.
		e.firing = l
		e.fire(l, &ev)
		e.firing = -1
		e.orderFixLane(l)
		e.fired++
	}
	if e.nheld > 0 {
		limit := deadline
		if limit < 0 {
			limit = maxTime
		}
		e.drainAll(limit, ^uint64(0))
	}
	return e.fired - start, nil
}

// Tournament maintenance. order is a binary heap of entries; pos maps a
// lane to its slot in order (-1 when absent). An entry's key is its lane's
// front: whoever changes the front rewrites the entry before sifting it,
// and RunUntil does so for the firing lane after its event.

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

// front is lane l's event in the tournament: its queue's head, or its held
// queue's if the lane is open and that is earlier; nil when there is neither.
func (e *Engine) front(l int) *event {
	var f *event
	if h := e.lanes[l].heap; len(h) > 0 {
		f = &h[0]
	}
	if h := e.held[l].heap; len(h) > 0 && !e.lanes[l].closed && (f == nil || evLess(&h[0], f)) {
		f = &h[0]
	}
	return f
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

// orderFixLane repositions lane l in the tournament after its front changed
// arbitrarily (an event fired, a timer moved or stopped, the gate turned),
// appeared, or disappeared. The firing lane waits for RunUntil to fix it.
func (e *Engine) orderFixLane(l int) {
	if l == e.firing {
		return
	}
	p := e.pos[l]
	f := e.front(l)
	if f == nil {
		if p >= 0 {
			e.orderRemoveAt(int(p))
		}
		return
	}
	if p < 0 {
		p = int32(len(e.order))
		e.order = append(e.order, entry{lane: int32(l)})
	}
	e.order[p].at, e.order[p].key = f.at, f.key
	if !e.orderDown(int(p)) {
		e.orderUp(int(p))
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
// more than once and after firing.
func (t *Timer) Stop() {
	if !t.pending {
		return
	}
	t.pending = false
	e, l := t.eng, int(t.lane)
	b, i := e.lanes[l].find(t)
	e.take(l, b, i)
	e.orderFixLane(l)
}

// Pending reports whether the timer's slot is in an event queue.
func (t *Timer) Pending() bool { return t.pending }

// StartTimerAt puts t at an explicit queue position: virtual time at,
// tie-broken by a sequence number drawn earlier with ReserveSeq on the same
// lane, to fire the registered kind's handler with arg there. It consumes no
// sequence number of its own, and a slot still queued is moved rather than
// queued twice. at must be no earlier than the clock (Now): an earlier time
// panics.
func (e *Engine) StartTimerAt(lane int, t *Timer, at Time, seq uint64, kind Kind, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: StartTimerAt(%v) on lane %d before the clock %v", at, lane, e.now))
	}
	t.kind, t.arg = kind, arg
	ev := event{at: at, key: evKey(seq, kindTimer), arg: t}
	if t.pending {
		b, i := e.lanes[lane].find(t)
		e.move(lane, b, i, ev)
		e.orderFixLane(lane)
		return
	}
	t.eng, t.lane, t.pending = e, int32(lane), true
	e.insert(lane, ev)
}

// RunParallel is Run. It stays for the benchmark harness's isolated driver
// (bench/), which is built against it.
func (e *Engine) RunParallel(workers int, lookahead Time) (uint64, error) { return e.Run() }
