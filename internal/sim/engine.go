// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps one queue of events ordered by virtual time with a
// monotonically increasing sequence number as a tie-breaker, so two runs over
// the same inputs produce identical event orderings. Virtual time is
// expressed in nanoseconds (Time).
//
// Events live by value in a monotone radix queue over pooled event blocks
// (queue.go; no container/heap, no interface boxing). Each event names the
// lane it fires on, which its handler receives: a lane conventionally
// corresponds to one simulated node.
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

// event is a scheduled callback, stored by value in the queue's heap or
// bucket blocks — 32 bytes, so sifts and re-bucketing move as little as
// possible. key packs the sequence number above the lane and the kind's byte:
// sequence numbers are unique, so keys order exactly as they do. A closure
// event carries its func() in arg (a func value is pointer-shaped: boxing it
// allocates nothing).
type event struct {
	at  Time
	key uint64 // seq<<24 | lane<<8 | kind
	arg any
}

const (
	// MaxLanes is the number of lanes an event's key has room for.
	MaxLanes = 1 << 16
	// maxSeq bounds the sequence numbers the key has room for.
	maxSeq = 1 << 40
)

func (ev *event) lane() int  { return int(ev.key >> 8 & (MaxLanes - 1)) }
func (ev *event) kind() Kind { return Kind(ev.key) }

// evLess is the queue order: time, then sequence number.
func evLess(a, b *event) bool { return a.at < b.at || a.at == b.at && a.key < b.key }

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine.
type Engine struct {
	q        queue
	handlers []Handler
	lanes    int
	seq      uint64
	now      Time
	fired    uint64
	stale    int // queued timer slots that will not fire (see Timer)
}

// NewEngine returns an empty engine at time zero with a single lane.
func NewEngine() *Engine {
	e := &Engine{}
	e.SetLanes(1)
	return e
}

// SetLanes sets the number of lanes events may fire on, 1 to MaxLanes. Lane
// 0 is the default lane; a machine typically maps node i to lane i+1.
func (e *Engine) SetLanes(n int) {
	if n < 1 || n > MaxLanes {
		panic(fmt.Sprintf("sim: SetLanes(%d) outside 1..%d", n, MaxLanes))
	}
	e.lanes = n
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

// Pending reports the number of events currently scheduled: a stopped or
// moved timer's old slot is not counted.
func (e *Engine) Pending() int { return e.q.len() - e.stale }

// nextSeq draws the next sequence number.
func (e *Engine) nextSeq() uint64 {
	if e.seq++; e.seq >= maxSeq {
		panic("sim: sequence numbers exhausted")
	}
	return e.seq
}

// key is the queue key of an event with sequence number seq that fires on
// lane with kind.
func (e *Engine) key(seq uint64, lane int, kind Kind) uint64 {
	if uint(lane) >= uint(e.lanes) {
		panic(fmt.Sprintf("sim: event for lane %d of %d", lane, e.lanes))
	}
	return seq<<24 | uint64(lane)<<8 | uint64(kind)
}

// post is the single scheduling entry point: the event fires on lane dst
// and receives the next sequence number.
func (e *Engine) post(dst int, at Time, kind Kind, arg any) {
	e.q.push(event{at: max(at, e.now), key: e.key(e.nextSeq(), dst, kind), arg: arg})
}

// ReserveSeq draws the sequence number an event scheduled now would receive
// and stores it in *into, without queueing anything. With StartTimerAt it
// lets one timer stand in for many deadlines: each deadline reserves its
// tie-break position when it is set, and the timer stands at whichever
// (time, position) is earliest — firing exactly where a timer armed per
// deadline would have.
func (e *Engine) ReserveSeq(into *uint64) { *into = e.nextSeq() }

// ScheduleOn enqueues a typed event with payload arg to fire on lane dst at
// virtual time at. Scheduling in the past (at < Now) is clamped to Now,
// preserving causality. src is not read: it stays for the benchmark
// harness's isolated driver, which is built against it.
func (e *Engine) ScheduleOn(src, dst int, at Time, kind Kind, arg any) {
	e.post(dst, at, kind, arg)
}

// ScheduleFuncOn enqueues a closure event to fire on lane dst at virtual
// time at.
func (e *Engine) ScheduleFuncOn(dst int, at Time, fire func()) {
	e.post(dst, at, kindClosure, fire)
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
	q := &e.q
	for len(q.heap) > 0 {
		top := &q.heap[0]
		kind, arg := top.kind(), top.arg
		var t *Timer
		if kind == kindTimer {
			if t = arg.(*Timer); !t.holds(top) {
				q.pop()
				e.stale--
				continue
			}
			if top.at != t.at || top.key != t.key {
				// Moved later since the slot was queued: the slot moves on to
				// the position the timer stands at, without firing.
				q.pop()
				t.slotAt, t.slotKey = t.at, t.key
				q.push(event{at: t.at, key: t.key, arg: t})
				continue
			}
			kind, arg = t.kind, t.arg
		}
		if deadline >= 0 && top.at > deadline {
			e.now = max(e.now, deadline)
			break
		}
		ev := q.pop()
		if t != nil {
			t.pending = false
		}
		e.now = ev.at
		if kind == kindClosure {
			arg.(func())()
		} else {
			e.handlers[kind-kindHandlerBase](ev.lane(), ev.at, arg)
		}
		e.fired++
	}
	return e.fired - start, nil
}

// Timer is a movable queue slot: StartTimerAt puts it at a (time, reserved
// sequence number) position, and Stop disarms it. One timer can so stand
// in for many deadlines, following the earliest. A move later keeps the
// queued slot, which moves on to the new position when it surfaces, without
// firing; a move earlier queues a new slot. A slot left behind by Stop or a
// move earlier stays queued, counted stale, until it surfaces and is
// discarded without firing. The zero value is ready to be armed.
type Timer struct {
	eng     *Engine
	arg     any // the callback: a func() or the payload of a registered kind
	at      Time
	key     uint64 // the position the timer fires at, while pending
	slotAt  Time
	slotKey uint64 // the live slot's position: at or before the timer's
	kind    Kind
	pending bool
}

// holds reports whether ev is t's live slot.
func (t *Timer) holds(ev *event) bool { return t.pending && ev.at == t.slotAt && ev.key == t.slotKey }

// Stop disarms the timer: it will not fire, and no longer counts in Pending.
// Its slot stays queued, stale, until it surfaces. Safe to call more than
// once and after firing.
func (t *Timer) Stop() {
	if t.pending {
		t.pending = false
		t.eng.stale++
	}
}

// Pending reports whether the timer is queued to fire.
func (t *Timer) Pending() bool { return t.pending }

// StartTimerAt puts t at an explicit queue position: virtual time at,
// tie-broken by a sequence number drawn earlier with ReserveSeq, to fire the
// registered kind's handler on lane with arg there. It consumes no sequence
// number of its own, and a timer still queued moves rather than fires twice:
// to a later position without queueing anything, since its slot surfaces
// first. at must be no earlier than the clock (Now): an earlier time panics.
func (e *Engine) StartTimerAt(lane int, t *Timer, at Time, seq uint64, kind Kind, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: StartTimerAt(%v) on lane %d before the clock %v", at, lane, e.now))
	}
	t.kind, t.arg = kind, arg
	key := e.key(seq, lane, kindTimer)
	t.eng, t.at, t.key = e, at, key
	if t.pending {
		if at > t.slotAt || at == t.slotAt && key >= t.slotKey {
			return
		}
		e.stale++
	}
	t.pending, t.slotAt, t.slotKey = true, at, key
	e.q.push(event{at: at, key: key, arg: t})
}

// RunParallel is Run. It stays for the benchmark harness's isolated driver
// (bench/), which is built against it.
func (e *Engine) RunParallel(workers int, lookahead Time) (uint64, error) { return e.Run() }
