package sim

import "unsafe"

// Slab is a free list of T records carved out of block allocations, for the
// per-hop records of the layers above (machine packets, wire records). A
// burst that finds the free list empty costs one allocation per block rather
// than one per record, and the collector sees one pointer-bearing object per
// block rather than hundreds.
//
// Blocks grow geometrically from slabMinBlock to slabMaxBlock records, so a
// lightly loaded owner (one of 256 nodes that sends a dozen messages) holds
// a few records while a heavily loaded one amortizes quickly. Free records
// are chained through a link field inside T — T's pointer type names it with
// a PoolLink method — so the list itself never allocates or regrows. The
// link is nil exactly while the record is out (the last free record links to
// itself), which is how Put catches a record released twice; a record's
// owner must leave the field alone.
//
// A Slab is owned by one engine worker (see Pool). Records may migrate: a
// record acquired from one slab can be released into another of the same
// type. The zero value is ready to use.
//
// PoolLink is a call through a type parameter, which Go compiles to an
// indirect call: a Get/Put pair measures 6.9 ns against 2.6 ns for a
// hand-written list. That is noise on a remote hop and a quarter of a local
// send, which is why core's frames and contexts keep their own free lists.
type Slab[T any, P linked[T]] struct {
	free  *T
	block []T // uncarved tail of the newest block
	grown int // size of the newest block
}

// linked is the pointer type of a pooled record: it names the record's
// intrusive free-list link.
type linked[T any] interface {
	*T
	PoolLink() **T
}

const (
	slabMinBlock = 8
	slabMaxBlock = 256
)

// Get returns a zeroed record: the most recently released one if any,
// otherwise the next record of the current block.
func (s *Slab[T, P]) Get() *T {
	if r := s.free; r != nil {
		link := P(r).PoolLink()
		if s.free = *link; s.free == r {
			s.free = nil
		}
		*link = nil
		return r
	}
	if len(s.block) == 0 {
		s.grown = min(max(2*s.grown, slabMinBlock), slabMaxBlock)
		s.block = make([]T, s.grown)
	}
	r := &s.block[0]
	s.block = s.block[1:]
	return r
}

// Put zeroes r, dropping every pointer it held, and makes it the next
// record Get returns. The caller must hold the only live reference; a record
// that is already free panics.
func (s *Slab[T, P]) Put(r *T) {
	link := P(r).PoolLink()
	if *link != nil {
		panic("sim: Slab.Put of a record that is already free")
	}
	var zero T
	*r = zero
	if *link = s.free; s.free == nil {
		*link = r
	}
	s.free = r
}

// Pool is one Slab per engine worker: code firing on a lane takes records
// from and releases them into the slab of the worker running that lane
// (Engine.Worker). A sequential run so holds one slab per record type, and
// the records one node's lane releases are the next another node's lane
// takes, rather than idle beside a slab that carves afresh. Under
// RunParallel(n) each of the n workers has its own slab, and a record
// crosses between them only through an event, which the window barrier
// orders.
type Pool[T any, P linked[T]] struct {
	eng   *Engine
	slabs []workerSlab[T, P]
}

// workerSlab pads a worker's slab to two cache lines, so two workers taking
// and releasing records never write the same line.
type workerSlab[T any, P linked[T]] struct {
	Slab[T, P]
	_ [128 - unsafe.Sizeof(Slab[T, P]{})]byte
}

// pool is what the engine sees of a Pool: something to give more slabs.
type pool interface{ grow(n int) }

// NewPool returns a pool on e, with a slab for every worker slot e has had.
func NewPool[T any, P linked[T]](e *Engine) *Pool[T, P] {
	p := &Pool[T, P]{eng: e}
	p.grow(e.slots)
	e.pools = append(e.pools, p)
	return p
}

func (p *Pool[T, P]) grow(n int) {
	if n > len(p.slabs) {
		p.slabs = append(p.slabs, make([]workerSlab[T, P], n-len(p.slabs))...)
	}
}

// Get returns a zeroed record from the slab of the worker running lane.
func (p *Pool[T, P]) Get(lane int) *T { return p.slabs[p.eng.Worker(lane)].Get() }

// Put releases r into the slab of the worker running lane (see Slab.Put).
func (p *Pool[T, P]) Put(lane int, r *T) { p.slabs[p.eng.Worker(lane)].Put(r) }
