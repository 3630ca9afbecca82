package sim

import "math/bits"

// Deep lanes.
//
// A 4-ary heap is the right queue for a lane of a few dozen events, and the
// wrong one for a lane of thousands: every pop sifts through levels that no
// longer share cache lines. A lane that would grow its heap past spillDepth
// events therefore spills into a monotone radix queue (Ahuja, Mehlhorn, Orlin
// and Tarjan, JACM 1990). The heap keeps only the events at or before a base
// time; every later event sits unordered in bucket k = bits.Len64(at ^ base),
// the bit position above the highest one in which its time differs from the
// base. Queueing a later event is an append to its bucket. When the heap runs
// dry, the lowest non-empty bucket is re-bucketed. A bucket of one block goes
// to the heap whole and its latest time becomes the base. A larger one splits
// at its earliest time, which becomes the base: the events at that time go to
// the heap, the rest fall into lower buckets, since they agree with the new
// base on every bit from the old bucket's up. Either way the higher buckets
// keep their indices. An event so moves down at most 63 times in its life,
// and a pop touches one bucket. When the buckets are empty the lane is a heap
// lane again.
//
// Times on a lane never fall below its clock (post clamps them, StartTimerAt
// checks), but correctness does not lean on it: an event at or before the
// base goes to the heap, which orders anything by (time, seq). The heap's
// head is the queue's head in both representations, which is what the
// tournament and the window runner read. A lane's held queue (engine.go) is
// the same queue.
//
// Buckets are chains of fixed evBlocks and the bucket heads one deepQ, both
// from engine pools: taken from and returned to the slab of
// Engine.Worker(lane), as the layers above do with packets, and the barrier's
// pushes use slab 0. A shallow lane pays one nil pointer for all this, and no
// deep lane's storage is ever regrown by copying.

const (
	// spillDepth is the heap size at which a queue spills rather than grow
	// its heap. BenchmarkLaneQueueSteady finds the two representations level
	// at this depth and the radix queue ahead from a few hundred on. A heap
	// grows to it in one step (from laneMinCap or empty), so past it a heap
	// regrows only when all its events share one time.
	spillDepth = 128
	// blockEvents is the number of events in one bucket block: 1 KiB.
	blockEvents = 32
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

// deepQ is a deep lane's radix state, borrowed from the engine while the lane
// is deep.
type deepQ struct {
	base    Time         // the heap holds no event later, the buckets none earlier or equal
	mask    uint64       // bit k is set while bucket k holds events
	n       int          // events in the buckets
	buckets [64]*evBlock // newest block of each bucket; 0 stays empty (the heap)
	free    *deepQ
}

func (d *deepQ) PoolLink() **deepQ { return &d.free }

// bucketOf is the bucket of an event at time at, later than the base.
func (d *deepQ) bucketOf(at Time) int { return bits.Len64(uint64(at ^ d.base)) }

// enqueue queues ev on q, a queue of lane l, and reports whether it is q's
// new head. A shallow queue with room in its heap takes the heap push
// inline. Lane l only chooses the pool slab that blocks come from.
func (e *Engine) enqueue(l int, q *queue, ev event) bool {
	if (q.deep != nil || len(q.heap) == cap(q.heap)) && e.bucketed(l, q, ev) {
		return false
	}
	h := q.heap
	q.heap = h[:len(h)+1]
	return q.place(len(h), ev) == 0
}

// bucketed is enqueue's path for a deep queue or a full heap: it queues ev in
// a bucket and reports true, or makes room for it in the heap — spilling the
// queue, or growing the heap when it cannot spill — and reports false.
func (e *Engine) bucketed(l int, q *queue, ev event) bool {
	d := q.deep
	if d == nil && len(q.heap) >= spillDepth {
		d = e.spill(l, q)
	}
	if d != nil && ev.at > d.base {
		e.bucket(l, d, ev)
		return true
	}
	if len(q.heap) == cap(q.heap) {
		q.grow()
	}
	return false
}

// dequeue pops q's head; q is a queue of lane l.
func (e *Engine) dequeue(l int, q *queue) event {
	h := q.heap
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	q.heap = h[:n]
	if n > 0 {
		q.sink(0, last)
	} else if q.deep != nil {
		e.refill(l, q)
	}
	return ev
}

// move replaces the event at heap slot i (b nil) or at slot i of bucket
// block b (see find) with ev, rewriting the slot when ev stays in the heap or
// in the same bucket, which is unordered.
func (e *Engine) move(l int, b *evBlock, i int, ev event) {
	q := &e.lanes[l].queue
	d := q.deep
	switch {
	case b == nil && (d == nil || ev.at <= d.base):
		q.settle(i, ev)
	case b != nil && ev.at > d.base && d.bucketOf(ev.at) == d.bucketOf(b.evs[i].at):
		b.evs[i] = ev
	default:
		e.take(l, b, i)
		e.enqueue(l, q, ev)
	}
}

// take removes the event at heap slot i (b nil) or at slot i of bucket block
// b (see find).
func (e *Engine) take(l int, b *evBlock, i int) {
	q := &e.lanes[l].queue
	if b != nil {
		e.unbucket(l, q.deep, b, i)
		return
	}
	q.remove(i)
	if q.deep != nil && len(q.heap) == 0 {
		e.refill(l, q)
	}
}

// find locates timer t's event on the lane: heap slot i (b nil), or slot i of
// bucket block b. It is a linear scan, as short as the lane.
func (q *queue) find(t *Timer) (b *evBlock, i int) {
	for i := range q.heap {
		if q.heap[i].holds(t) {
			return nil, i
		}
	}
	if d := q.deep; d != nil {
		for m := d.mask; m != 0; m &= m - 1 {
			for b := d.buckets[bits.TrailingZeros64(m)]; b != nil; b = b.next {
				for i := range b.evs[:b.n] {
					if b.evs[i].holds(t) {
						return b, i
					}
				}
			}
		}
	}
	panic("sim: a pending timer is not queued on its lane")
}

func (ev *event) holds(t *Timer) bool { return ev.kind() == kindTimer && ev.arg == any(t) }

// spill makes q, a queue of lane l, deep: the events later than its head
// leave the heap for buckets. It returns the radix state, or nil when every
// queued event shares one time and the heap must grow instead.
func (e *Engine) spill(l int, q *queue) *deepQ {
	h := q.heap
	d := e.deeps.Get(l)
	d.base = h[0].at
	k := 0
	for _, ev := range h {
		if ev.at > d.base {
			e.bucket(l, d, ev)
		} else {
			h[k] = ev
			k++
		}
	}
	if d.n == 0 {
		e.deeps.Put(l, d)
		return nil
	}
	clear(h[k:])
	q.heap = h[:k]
	for i := (k - 2) / 4; i >= 0; i-- {
		q.sink(i, h[i])
	}
	q.deep = d
	return d
}

// bucket appends ev, later than the base, to its bucket.
func (e *Engine) bucket(l int, d *deepQ, ev event) {
	k := d.bucketOf(ev.at)
	b := d.buckets[k]
	if b == nil || b.n == blockEvents {
		nb := e.blocks.Get(l)
		nb.next = b
		d.buckets[k] = nb
		d.mask |= 1 << k
		b = nb
	}
	b.evs[b.n] = ev
	b.n++
	d.n++
}

// unbucket removes slot i of block b; the newest event of its bucket fills
// the hole.
func (e *Engine) unbucket(l int, d *deepQ, b *evBlock, i int) {
	k := d.bucketOf(b.evs[i].at)
	h := d.buckets[k]
	h.n--
	b.evs[i] = h.evs[h.n]
	h.evs[h.n] = event{}
	d.n--
	if h.n == 0 {
		d.buckets[k] = h.next
		h.next = nil
		e.blocks.Put(l, h)
		if d.buckets[k] == nil {
			d.mask &^= 1 << k
		}
	}
}

// refill runs when a deep queue's heap has emptied: it re-buckets into the
// heap, so that the heap is empty only when the whole queue is, and hands the
// queue back to the heap once its buckets are empty.
func (e *Engine) refill(l int, q *queue) {
	d := q.deep
	if d.n > 0 {
		e.rebucket(l, q, d)
	}
	if d.n == 0 {
		q.deep = nil
		e.deeps.Put(l, d)
	}
}

// rebucket empties the lowest non-empty bucket into the heap and lower
// buckets (see the top of this file).
func (e *Engine) rebucket(l int, q *queue, d *deepQ) {
	k := bits.TrailingZeros64(d.mask)
	chain := d.buckets[k]
	d.buckets[k] = nil
	d.mask &^= 1 << k
	lo, hi := maxTime, Time(0)
	for b := chain; b != nil; b = b.next {
		for i := range b.evs[:b.n] {
			lo, hi = min(lo, b.evs[i].at), max(hi, b.evs[i].at)
		}
	}
	// A bucket of one block goes to the heap whole, its latest time the new
	// base: every higher bucket keeps its index, since the base still agrees
	// with the old one on every bit from k up.
	d.base = lo
	if chain.next == nil {
		d.base = hi
	}
	for b := chain; b != nil; {
		d.n -= b.n
		for _, ev := range b.evs[:b.n] {
			if ev.at <= d.base {
				q.push(ev)
			} else {
				e.bucket(l, d, ev)
			}
		}
		next := b.next
		b.next = nil
		e.blocks.Put(l, b)
		b = next
	}
}

// rekey applies f to every queued event's key in place. f must preserve the
// order of keys: a bucket depends on time alone, and the heap stays a heap.
func (q *queue) rekey(f func(key uint64) uint64) {
	for i := range q.heap {
		q.heap[i].key = f(q.heap[i].key)
	}
	if d := q.deep; d != nil {
		for m := d.mask; m != 0; m &= m - 1 {
			for b := d.buckets[bits.TrailingZeros64(m)]; b != nil; b = b.next {
				for i := range b.evs[:b.n] {
					b.evs[i].key = f(b.evs[i].key)
				}
			}
		}
	}
}
