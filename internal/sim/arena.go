package sim

// Arena is a bump allocator of T records that are never released: objects,
// chunk-stock slots, application records that live as long as the run. Like
// a Slab it carves records out of block allocations, but with no free list
// there is no link word to widen T. Blocks double from arenaMinBlock to the
// caller's cap; the cap stays small where every one of hundreds of owners
// ends the run on a partly used block and pays for its slack.
//
// An Arena is owned by the event lane that allocates from it — which need
// not be the lane the record is later used on. The zero value is ready to
// use and holds no block until the first New.
type Arena[T any] struct {
	block []T // the newest block: len records carved, cap its size
}

const arenaMinBlock = 2

// New returns the next zeroed record, starting a new block of at most
// maxBlock records when the current one is used up.
func (a *Arena[T]) New(maxBlock int) *T {
	n := len(a.block)
	if n == cap(a.block) {
		n = 0
		a.block = make([]T, 0, min(max(2*cap(a.block), arenaMinBlock), maxBlock))
	}
	a.block = a.block[:n+1]
	return &a.block[n]
}

// NewFrom is New for an owner that will want many records once it wants
// any: its first block holds minBlock of them, and blocks double from there.
func (a *Arena[T]) NewFrom(minBlock, maxBlock int) *T {
	if cap(a.block) == 0 {
		a.block = make([]T, 0, minBlock)
	}
	return a.New(maxBlock)
}
