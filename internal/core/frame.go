package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/machine"
)

// Frame holds one message: its pattern, arguments, and (for now-type sends)
// the reply destination object. In the paper a frame is allocated on the
// stack when a dormant object is invoked directly and on the heap when a
// message is buffered (Section 4.3); in Go the distinction is accounted by
// the cost model rather than by the allocator, but the lifecycle (stack
// invocation vs queued frame vs saved-context frame) is mirrored exactly.
//
// A message to another node travels as its frame, which is also the wire
// record: one record from the runtime's one frame pool, run or queued as it
// is at the receiver (package remote). Its 160 bytes on amd64 are most of
// the simulator's bytes per message, so nothing is held twice: the header's
// own link (Packet.Next), free while the frame is out of any batch, is the
// message-queue and free-list link, and the reply destination is held by
// its object alone, whose node is its address's.
type Frame struct {
	// Wire is the header a remote hop travels under; its Payload points back
	// at the frame. Unused by a local send but for its link.
	Wire machine.Packet

	Pattern PatternID // a remote creation names its class here, by id
	nargs   uint16    // length of the argument list
	hints   SendHint  // compile-time optimization hints of the send site
	pooled  bool      // obtained from the frame pool; recycled at method end

	replyTo *Object // reply destination for now-type messages; nil for past-type

	// The argument list is argBuf[:nargs] when it fits; a longer one is a
	// separate array whose first element argBuf[0] points at. SetArgs
	// copies, so a send's variadic slice never outlives the call and can
	// live on the sender's stack.
	argBuf [2]Value

	// A remote hop's object, homed on Wire.Dst (a message's receiver or a
	// creation's stocked chunk), and the saved context of the creation a
	// stock miss blocked: its request and reply carry the record back to the
	// requester, which resumes it with the created address.
	Obj     *Object
	Creator *SavedContext
}

// The header is the frame's first field, so a link to a header is a link to
// its frame (frameOf).
const _ uintptr = -unsafe.Offsetof(Frame{}.Wire)

// frameOf returns the frame whose header p is, or nil.
func frameOf(p *machine.Packet) *Frame { return (*Frame)(unsafe.Pointer(p)) }

// link returns the frame chained after f in a queue or the free list.
func (f *Frame) link() *Frame { return frameOf(f.Wire.Next()) }

// setLink chains g (nil: none) after f.
func (f *Frame) setLink(g *Frame) {
	if g == nil {
		f.Wire.SetNext(nil)
		return
	}
	f.Wire.SetNext(&g.Wire)
}

// ReplyTo returns the reply destination (nil address for past-type
// messages).
func (f *Frame) ReplyTo() Address {
	if f.replyTo == nil {
		return NilAddress
	}
	return f.replyTo.Addr()
}

// SetReplyTo sets the reply destination: a mail address names its node
// and its object, and the frame keeps the object, whose node is the other
// half.
func (f *Frame) SetReplyTo(a Address) { f.replyTo = a.Obj }

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
	f.argBuf[0] = Value{ref: &slices.Clone(args)[0]}
}

// Args returns the argument list.
func (f *Frame) Args() []Value {
	if int(f.nargs) > len(f.argBuf) {
		return unsafe.Slice(f.argBuf[0].ref.(*Value), f.nargs)
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
// (Figure 2's "message queue" component), kept as a ring through the
// frames' links, so it holds its tail alone: the head is the tail's link.
type frameQueue struct {
	tail *Frame
	n    uint32
}

func (q *frameQueue) empty() bool { return q.tail == nil }
func (q *frameQueue) len() int    { return int(q.n) }

func (q *frameQueue) push(f *Frame) {
	if q.tail == nil {
		f.setLink(f)
	} else {
		f.setLink(q.tail.link())
		q.tail.setLink(f)
	}
	q.tail = f
	q.n++
}

func (q *frameQueue) pop() *Frame {
	if q.tail == nil {
		return nil
	}
	return q.unlink(q.tail)
}

// unlink removes and returns the frame after prev.
func (q *frameQueue) unlink(prev *Frame) *Frame {
	f := prev.link()
	if f == prev {
		q.tail = nil
	} else {
		prev.setLink(f.link())
		if q.tail == f {
			q.tail = prev
		}
	}
	f.setLink(nil)
	q.n--
	return f
}

// frames returns the queued frames, oldest first. It panics when the ring
// does not close after the queue's own length: a frame recycled while still
// linked.
func (q *frameQueue) frames() []*Frame {
	var out []*Frame
	if q.tail == nil {
		return out
	}
	f := q.tail
	for range q.n {
		f = f.link()
		out = append(out, f)
	}
	if f != q.tail {
		panic("core: message queue longer than its length")
	}
	return out
}

// popMatchingPats removes and returns the first frame whose pattern is one
// of pats, or nil if none is. Used by selective reception's initial queue
// scan and by the waiting-object path of the scheduler.
func (q *frameQueue) popMatchingPats(pats []PatternID) *Frame {
	prev := q.tail
	for range q.n {
		f := prev.link()
		if slices.Contains(pats, f.Pattern) {
			return q.unlink(prev)
		}
		prev = f
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
