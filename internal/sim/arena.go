package sim

import "unsafe"

// Arena is a bump allocator of T records that are never released: objects
// and their state, chunk-stock slots, per-peer links, application records
// that live as long as the run. It carves them out of block allocations, as
// a Slab carves the records it has yet to recycle: a burst costs one
// allocation per block, not per record, and the collector sees one object per
// block. Blocks double from minBlock records to maxBlock records or the
// records maxBlockBytes holds, whichever is more, so an arena that carves a
// dozen records holds a few while one that carves millions amortizes quickly,
// and a small record gets more records per block rather than more blocks. A
// block past the runtime's largest size class (32 KiB) is allocated in whole
// 8 KiB pages, so such a block holds as many records as its pages fit, not a
// fixed count: a 144-byte record then costs 144 bytes, not 160. No other
// package sizes an arena or slab block. The zero value is ready to use.
type Arena[T any] struct {
	block []T // uncarved tail of the newest block
	grown int // size of the newest block
}

const (
	minBlock      = 8
	maxBlock      = 256
	maxBlockBytes = 7 * pageBytes // a block of small records grows to this

	maxSmallBytes = 32 << 10 // the Go runtime's largest size class
	pageBytes     = 8 << 10  // the Go runtime's page, a large block's unit
)

// New returns a zeroed record.
func (a *Arena[T]) New() *T { return &a.Slice(1)[0] }

// Slice returns n zeroed adjacent records, capped at n, so an append through
// it reallocates rather than run into the next record. It starts the next
// block when the current one holds fewer; a block is at least n records long,
// so a request above the largest block is a block of its own.
func (a *Arena[T]) Slice(n int) []T {
	if n > len(a.block) {
		a.grown = min(max(2*a.grown, minBlock), blockCap[T]())
		a.block = make([]T, max(fillPages[T](a.grown), n))
	}
	r := a.block[:n:n]
	a.block = a.block[n:]
	return r
}

// blockCap returns how many T records a block grows to.
func blockCap[T any]() int {
	return max(maxBlock, maxBlockBytes/max(int(unsafe.Sizeof(*new(T))), 1))
}

// fillPages returns how many T records a block meant for n holds: n, or all
// that its whole pages fit once it is past the largest size class.
func fillPages[T any](n int) int {
	if size := int(unsafe.Sizeof(*new(T))); size > 0 && n*size > maxSmallBytes {
		return (n*size + pageBytes - 1) / pageBytes * pageBytes / size
	}
	return n
}
