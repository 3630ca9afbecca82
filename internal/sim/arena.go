package sim

// Arena is a bump allocator of T records that are never released: objects
// and their state, chunk-stock slots, per-peer links, application records
// that live as long as the run. It carves them out of block allocations, as
// a Slab carves the records it has yet to recycle: a burst costs one
// allocation per block, not per record, and the collector sees one object per
// block. Blocks grow from minBlock to maxBlock records, so an arena that
// carves a dozen records holds a few while one that carves millions amortizes
// quickly. No other package sizes an arena or slab block. The zero value is
// ready to use.
type Arena[T any] struct {
	block []T // uncarved tail of the newest block
	grown int // size of the newest block
}

const (
	minBlock = 8
	maxBlock = 256
)

// New returns a zeroed record.
func (a *Arena[T]) New() *T { return &a.Slice(1)[0] }

// Slice returns n zeroed adjacent records, capped at n, so an append through
// it reallocates rather than run into the next record. It starts the next
// block when the current one holds fewer; a block is at least n records long,
// so a request above maxBlock is a block of its own.
func (a *Arena[T]) Slice(n int) []T {
	if n > len(a.block) {
		a.grown = min(max(2*a.grown, minBlock), maxBlock)
		a.block = make([]T, max(a.grown, n))
	}
	r := a.block[:n:n]
	a.block = a.block[n:]
	return r
}
