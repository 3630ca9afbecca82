// Package trace defines the runtime's event-observation layer: a Sink
// interface every subsystem emits events into, plus the bundled
// implementations — the bounded Ring buffer (debugging, golden tests) and
// the streaming JSONL sink (machine-readable export, checked against its
// schema by CheckJSONL). Tracing is optional and off the hot path: callers hold a Sink and
// emit events explicitly, guarded by a nil check.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kind labels a traced event.
type Kind uint8

// Event kinds.
const (
	EvSend Kind = iota
	EvBuffer
	EvSchedule
	EvDispatch
	// Fault-injection and reliable-delivery events.
	EvLinkDrop  // a packet was dropped by the fault injector
	EvLinkDup   // an extra copy of a packet was injected
	EvNodePause // a node deferred execution for a fault window
	EvRetry     // the reliable layer retransmitted an unacknowledged message
	EvAck       // an acknowledgment was sent or processed
	EvDupMsg    // a duplicate message was suppressed at the receiver
	EvHold      // an out-of-order message was held for in-order delivery
	// Wire-path optimisation events.
	EvBatch       // a multi-message hardware packet was flushed onto a link
	EvAckCoalesce // a cumulative ack replaced several per-packet acks
	// Checkpoint and crash-recovery events.
	EvCkptSave  // a node wrote its snapshot to simulated stable store
	EvCkptRound // the coordinator completed a snapshot round
	EvCrash     // a node crash fault hit
	EvRestore   // a global restore rolled the machine back to a checkpoint
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(EvRestore) + 1

var kindNames = [NumKinds]string{
	EvSend:        "send",
	EvBuffer:      "buffer",
	EvSchedule:    "schedule",
	EvDispatch:    "dispatch",
	EvLinkDrop:    "link-drop",
	EvLinkDup:     "link-dup",
	EvNodePause:   "node-pause",
	EvRetry:       "retry",
	EvAck:         "ack",
	EvDupMsg:      "dup-msg",
	EvHold:        "hold",
	EvBatch:       "batch",
	EvAckCoalesce: "ack-coalesce",
	EvCkptSave:    "ckpt-save",
	EvCkptRound:   "ckpt-round",
	EvCrash:       "crash",
	EvRestore:     "restore",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At   sim.Time
	Node int
	Kind Kind
	What string
}

// Sink consumes runtime events. The contract every implementation (and every
// emitter) relies on:
//
//   - Synchronous: Event is called inline from the simulation goroutine; the
//     sink must not hand the event to another goroutine that races the run,
//     and must not call back into the system being observed.
//   - Deterministic order: events arrive in engine order, which is the same
//     for every same-seed run. Per-event timestamps are *not* globally
//     monotonic — a node's clock runs ahead of its event lane inside a
//     method body — so sinks must not assume sorted At values.
//   - No retention of event memory: the Event value is the sink's to copy,
//     but the strings it carries may be formatted into shared buffers in
//     future emitters — a sink that keeps events beyond the call must store
//     its own copy of the value (Ring does; JSONL serializes immediately).
//
// Sinks observe and never perturb: a run with any combination of sinks
// attached executes the identical virtual-time schedule as a run with none.
type Sink interface {
	Event(e Event)
}

// Tee fans events out to several sinks in argument order. Nil sinks are
// dropped; a single survivor is returned undecorated.
func Tee(sinks ...Sink) Sink {
	out := make(tee, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type tee []Sink

func (t tee) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}

// Ring is a fixed-capacity event buffer; when full, the oldest events are
// overwritten. The zero Ring is unusable; use NewRing.
type Ring struct {
	buf   []Event
	next  int
	count uint64
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Event implements Sink.
func (r *Ring) Event(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.count++
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Total returns the number of events ever recorded (including overwritten).
func (r *Ring) Total() uint64 { return r.count }

// Events returns retained events in chronological record order.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// String formats the event as one Dump-style line (without the newline).
func (e Event) String() string {
	return fmt.Sprintf("%12v n%-4d %-12s %s", e.At, e.Node, e.Kind, e.What)
}

// Dump writes the retained events, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}
