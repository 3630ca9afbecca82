package sim

// Arena is a bump allocator of T records that are never released: objects
// and their state, chunk-stock slots, per-peer links, application records
// that live as long as the run. Like a Pool it holds a slot per engine
// worker, and code firing on a lane carves from the slot of the worker
// running that lane (Engine.Worker). A sequential run so ends on one
// part-used block per record type, however many nodes carve from it. A
// record is the carving worker's only while it is carved; after that any
// lane may use it.
type Arena[T any] struct{ workers[blocks[T]] }

// NewArena returns an arena on e, with a slot for every worker slot e has had.
func NewArena[T any](e *Engine) *Arena[T] {
	a := &Arena[T]{}
	a.attach(e)
	return a
}

// New returns a zeroed record carved by the worker running lane.
func (a *Arena[T]) New(lane int) *T { return &a.of(lane).carve(1)[0] }

// Slice returns n zeroed adjacent records carved by the worker running lane.
// The slice is capped at n, so an append through it reallocates rather than
// run into the next record.
func (a *Arena[T]) Slice(lane, n int) []T { return a.of(lane).carve(n) }

// blocks carves T records out of block allocations for an Arena or a Slab: a
// burst costs one allocation per block, not per record, and the collector
// sees one object per block. Blocks grow from minBlock to maxBlock records, so
// a worker that carves a dozen records holds a few while one that carves
// millions amortizes quickly. No other package sizes an arena or slab block.
type blocks[T any] struct {
	block []T // uncarved tail of the newest block
	grown int // size of the newest block
}

const (
	minBlock = 8
	maxBlock = 256
)

// carve returns the next n records, capped at n, starting the next block when
// the current one holds fewer. A block is at least n records long, so a
// request above maxBlock is a block of its own.
func (b *blocks[T]) carve(n int) []T {
	if n > len(b.block) {
		b.grown = min(max(2*b.grown, minBlock), maxBlock)
		b.block = make([]T, max(b.grown, n))
	}
	r := b.block[:n:n]
	b.block = b.block[n:]
	return r
}

// workers is one slot S per engine worker slot, for a Pool or an Arena. The
// slots sit two cache lines apart, so two workers never write the same line.
type workers[S any] struct {
	eng   *Engine
	slots []padded[S]
}

type padded[S any] struct {
	s S
	_ [128]byte
}

// pool is what the engine sees of a Pool or an Arena: something to give
// more worker slots.
type pool interface{ grow(n int) }

// attach gives w a slot for every worker slot e has had, and one more for
// each it gains (Engine.growPools).
func (w *workers[S]) attach(e *Engine) {
	w.eng = e
	w.grow(e.slots)
	e.pools = append(e.pools, w)
}

func (w *workers[S]) grow(n int) {
	if n > len(w.slots) {
		w.slots = append(w.slots, make([]padded[S], n-len(w.slots))...)
	}
}

// of returns the slot of the worker running lane.
func (w *workers[S]) of(lane int) *S { return &w.slots[w.eng.Worker(lane)].s }
