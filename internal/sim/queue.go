package sim

import "math/bits"

// The event queue.
//
// One monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990)
// with 64-way digits holds every scheduled event. A 4-ary heap keeps only
// the events at or before a base time. Every later event sits unordered in
// bucket (p, d): p is the position of the highest 6-bit digit in which its
// time differs from the base, d its own digit there. Buckets order their
// events by position, then digit. Queueing a later event is an append to its
// bucket. When the heap runs dry, the lowest non-empty bucket is emptied. A
// bucket of one block goes to the heap whole and its latest time becomes
// the base. A larger one's earliest possible time becomes the base: its
// events at that time go to the heap, the rest fall into buckets of lower
// positions, since they agree with the new base on every digit from p up.
// Either way the other buckets keep their places, since the new base agrees
// with the old one on every digit above p and sits at digit d at p. An event
// so moves down at most ten times in its life, and a pop touches one bucket
// at a time until the heap holds an event.
//
// Binary digits (one bucket per bit position) would move an event once per
// halving of its distance from the base. The all-to-all keeps about half a
// million arrivals queued, so that is 6.6 moves per event there; 64-way
// digits make it 2.8.
//
// The heap is empty only when the whole queue is, so heap[0] is always the
// queue's head. Times never fall below the clock (post clamps them,
// StartTimerAt checks), but correctness does not lean on it: an event at or
// before the base goes to the heap, which orders anything by (time, key).
//
// Buckets are chains of fixed evBlocks taken from and returned to a slab, as
// the layers above do with packets, so a warmed queue never allocates.

const (
	// blockEvents is the number of events in one bucket block: 1 KiB.
	blockEvents = 32
	// digitBits is a radix digit's width, and positions the digits a time has.
	digitBits = 6
	positions = 64/digitBits + 1
)

// evBlock is one link of a bucket's chain. A bucket appends to its newest
// block, which is the only one not full.
type evBlock struct {
	evs  [blockEvents]event
	n    int
	next *evBlock // the next older block of the bucket; the pool link while idle
}

// PoolLink names the intrusive link for Slab; a block leaves its chain before
// it goes back.
func (b *evBlock) PoolLink() **evBlock { return &b.next }

// queue is the engine's event queue, held by value. Heap sifts move a hole
// rather than swapping; a node's four children span two cache lines.
type queue struct {
	heap    []event
	base    Time              // the heap holds no event later, the buckets none earlier or equal
	used    uint16            // bit p is set while position p has a bucket with events
	mask    [positions]uint64 // bit d of mask[p] is set while bucket (p, d) holds events
	n       int               // events in the buckets
	buckets [positions][64]*evBlock
	blocks  Slab[evBlock, *evBlock]
}

// len is the number of events queued.
func (q *queue) len() int { return len(q.heap) + q.n }

// push queues ev. An event into an empty queue sets the base.
func (q *queue) push(ev event) {
	if len(q.heap) == 0 {
		q.base = ev.at
	} else if ev.at > q.base {
		q.bucket(ev)
		return
	}
	q.heap = append(q.heap, ev)
	q.up(len(q.heap)-1, ev)
}

// pop takes the head out.
func (q *queue) pop() event {
	h := q.heap
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	q.heap = h[:n]
	if n > 0 {
		q.down(0, last)
	} else if q.n > 0 {
		q.rebucket()
	}
	return ev
}

// up settles ev, bound for the hole at i, at or above it.
func (q *queue) up(i int, ev event) {
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
}

// down settles ev, bound for the hole at i, at or below it.
func (q *queue) down(i int, ev event) {
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

// bucket appends ev, later than the base, to its bucket.
func (q *queue) bucket(ev event) {
	p := (bits.Len64(uint64(ev.at^q.base)) - 1) / digitBits
	d := (uint64(ev.at) >> (p * digitBits)) % 64
	b := q.buckets[p][d]
	if b == nil || b.n == blockEvents {
		nb := q.blocks.Get()
		nb.next = b
		q.buckets[p][d] = nb
		q.mask[p] |= 1 << d
		q.used |= 1 << p
		b = nb
	}
	b.evs[b.n] = ev
	b.n++
	q.n++
}

// rebucket empties the lowest non-empty buckets into the heap and buckets of
// lower positions until the heap holds an event (see the top of this file).
func (q *queue) rebucket() {
	for len(q.heap) == 0 {
		p := bits.TrailingZeros16(q.used)
		d := bits.TrailingZeros64(q.mask[p])
		chain := q.buckets[p][d]
		q.buckets[p][d] = nil
		if q.mask[p] &^= 1 << d; q.mask[p] == 0 {
			q.used &^= 1 << p
		}
		if chain.next == nil {
			q.base = 0
			for i := range chain.evs[:chain.n] {
				q.base = max(q.base, chain.evs[i].at)
			}
		} else {
			shift := p * digitBits
			q.base = q.base>>(shift+digitBits)<<(shift+digitBits) | Time(d)<<shift
		}
		for b := chain; b != nil; {
			q.n -= b.n
			for _, ev := range b.evs[:b.n] {
				if ev.at <= q.base {
					q.heap = append(q.heap, ev)
					q.up(len(q.heap)-1, ev)
				} else {
					q.bucket(ev)
				}
			}
			next := b.next
			b.next = nil
			q.blocks.Put(b)
			b = next
		}
	}
}
