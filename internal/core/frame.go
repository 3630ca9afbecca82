package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/machine"
)

// Frame holds one message: its pattern, arguments, and (for now-type sends)
// the mail address of the reply destination object. In the paper a frame is
// allocated on the stack when a dormant object is invoked directly and on
// the heap when a message is buffered (Section 4.3); in Go the distinction
// is accounted by the cost model rather than by the allocator, but the
// lifecycle (stack invocation vs queued frame vs saved-context frame) is
// mirrored exactly.
//
// A message to another node travels as its frame, which is also the wire
// record: one record from the runtime's one frame pool, run or queued as it
// is at the receiver (package remote).
type Frame struct {
	// Wire is the header a remote hop travels under; its Payload points back
	// at the frame. Unused by a local send.
	Wire machine.Packet

	Pattern PatternID // a remote creation names its class here, by id
	nargs   uint16    // length of the argument list
	hints   SendHint  // compile-time optimization hints of the send site
	pooled  bool      // obtained from the frame pool; recycled at method end

	// The argument list is argBuf[:nargs] when it fits, otherwise nargs
	// values from spill: SetArgs copies, so a send's variadic slice never
	// outlives the call and can live on the sender's stack.
	spill   *Value
	ReplyTo Address // reply destination for now-type messages; nil for past-type
	argBuf  [2]Value

	next *Frame // message-queue link, reused as the free-list link

	// A remote hop's object, homed on Wire.Dst (a message's receiver or a
	// creation's stocked chunk), and the saved context of the creation a
	// stock miss blocked: its request and reply carry the record back to the
	// requester, which resumes it with the created address.
	Obj     *Object
	Creator *SavedContext
}

// SetArgs copies args into the frame — into the inline buffer when they
// fit, a fresh array otherwise. The copy is unconditional so the caller's
// slice provably does not escape through this call.
func (f *Frame) SetArgs(args []Value) {
	if len(args) > math.MaxUint16 {
		panic(fmt.Sprintf("core: %d arguments overflow a frame", len(args)))
	}
	f.nargs = uint16(len(args))
	if len(args) <= len(f.argBuf) {
		copy(f.argBuf[:], args)
		return
	}
	f.spill = &slices.Clone(args)[0]
}

// Args returns the argument list.
func (f *Frame) Args() []Value {
	if f.spill != nil {
		return unsafe.Slice(f.spill, f.nargs)
	}
	return f.argBuf[:f.nargs:f.nargs]
}

// Arg returns the i'th argument, or Nil if out of range.
func (f *Frame) Arg(i int) Value {
	if i < 0 || i >= int(f.nargs) {
		return Nil
	}
	return f.Args()[i]
}

// frameQueue is the per-object message queue: a FIFO of buffered frames
// (Figure 2's "message queue" component).
type frameQueue struct {
	head, tail *Frame
	n          int
}

func (q *frameQueue) empty() bool { return q.head == nil }
func (q *frameQueue) len() int    { return q.n }

func (q *frameQueue) push(f *Frame) {
	f.next = nil
	if q.tail == nil {
		q.head, q.tail = f, f
	} else {
		q.tail.next = f
		q.tail = f
	}
	q.n++
}

func (q *frameQueue) pop() *Frame {
	f := q.head
	if f == nil {
		return nil
	}
	q.head = f.next
	if q.head == nil {
		q.tail = nil
	}
	f.next = nil
	q.n--
	return f
}

// popMatchingPats removes and returns the first frame whose pattern is one
// of pats, or nil if none is. Used by selective reception's initial queue
// scan and by the waiting-object path of the scheduler.
func (q *frameQueue) popMatchingPats(pats []PatternID) *Frame {
	var prev *Frame
	for f := q.head; f != nil; prev, f = f, f.next {
		for _, p := range pats {
			if f.Pattern != p {
				continue
			}
			if prev == nil {
				q.head = f.next
			} else {
				prev.next = f.next
			}
			if q.tail == f {
				q.tail = prev
			}
			f.next = nil
			q.n--
			return f
		}
	}
	return nil
}

// schedItem is one entry of the node-wide scheduling queue: "a pointer to
// the object which will be scheduled and a continuation address from which
// the object will restart execution" (Section 4.3). The continuation kinds
// are: dispatch the first buffered message, or resume a saved context.
type schedQueue struct {
	items []*Object
	head  int
}

// schedSlots is the length a node's scheduling queue reaches before it
// allocates: an n-queens N10 run on 256 nodes queues at most 14.
const schedSlots = 16

func (s *schedQueue) empty() bool { return s.head >= len(s.items) }
func (s *schedQueue) len() int    { return len(s.items) - s.head }

func (s *schedQueue) push(o *Object) { s.items = append(s.items, o) }

func (s *schedQueue) pop() *Object {
	if s.empty() {
		return nil
	}
	o := s.items[s.head]
	s.items[s.head] = nil
	s.head++
	if s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
	} else if s.head > 64 && s.head*2 >= len(s.items) {
		n := copy(s.items, s.items[s.head:])
		for i := n; i < len(s.items); i++ {
			s.items[i] = nil
		}
		s.items = s.items[:n]
		s.head = 0
	}
	return o
}
