package core

// Frame holds one message: its pattern, arguments, and (for now-type sends)
// the mail address of the reply destination object. In the paper a frame is
// allocated on the stack when a dormant object is invoked directly and on
// the heap when a message is buffered (Section 4.3); in Go the distinction
// is accounted by the cost model rather than by the allocator, but the
// lifecycle (stack invocation vs queued frame vs saved-context frame) is
// mirrored exactly.
type Frame struct {
	Pattern PatternID
	Args    []Value
	ReplyTo Address // reply destination for now-type messages; nil for past-type

	// argBuf is the inline argument store: setArgs copies small argument
	// lists here so a send's variadic slice never outlives the call and can
	// live on the sender's stack.
	argBuf [2]Value

	hints  SendHint // compile-time optimization hints of the send site
	next   *Frame   // message-queue link, reused as the free-list link
	pooled bool     // obtained from a NodeRT frame pool; recycled at method end
}

// setArgs copies args into the frame — into the inline buffer when they
// fit, a fresh slice otherwise. The copy is unconditional so the caller's
// slice provably does not escape through this call.
func (f *Frame) setArgs(args []Value) {
	switch {
	case len(args) == 0:
		f.Args = nil
	case len(args) <= len(f.argBuf):
		nc := copy(f.argBuf[:], args)
		f.Args = f.argBuf[:nc:nc]
	default:
		f.Args = append([]Value(nil), args...)
	}
}

// Arg returns the i'th argument, or Nil if out of range.
func (f *Frame) Arg(i int) Value {
	if i < 0 || i >= len(f.Args) {
		return Nil
	}
	return f.Args[i]
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
