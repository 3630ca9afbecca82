package sim

import (
	"slices"
	"testing"
	"unsafe"
)

type slabRec struct {
	id   int
	data *int
	next *slabRec
}

func (r *slabRec) PoolLink() **slabRec { return &r.next }

func TestQueueEntrySizes(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 32 {
		t.Errorf("event is %d bytes, want <= 32: the queue holds these by value", sz)
	}
}

// Records are carved from the Arena's blocks — for this small record 8, 16,
// ... 256, then 512 on the way to the byte cap — and consecutive carves inside
// a block are adjacent in memory. Blocks are read from the arena, not from
// addresses: the runtime may place a new block right after the last.
func TestSlabBlockGrowth(t *testing.T) {
	var s Slab[slabRec, *slabRec]
	var blocks []int
	var prev *slabRec
	for i := 0; i < 8+16+32+64+128+256+512; i++ {
		fresh := len(s.blocks.block) == 0
		r := s.Get()
		if fresh {
			blocks = append(blocks, len(s.blocks.block)+1)
		} else if unsafe.Pointer(r) != unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(*r)) {
			t.Fatalf("record %d is not adjacent to the one before it in its block", i)
		}
		prev = r
	}
	if want := []int{8, 16, 32, 64, 128, 256, 512}; !slices.Equal(blocks, want) {
		t.Fatalf("block sizes = %v, want %v", blocks, want)
	}
}

func TestSlabReuse(t *testing.T) {
	var a, b Slab[slabRec, *slabRec]
	x := 7
	out := make(map[*slabRec]bool)
	var recs []*slabRec
	for i := 0; i < 100; i++ {
		r := a.Get()
		if out[r] {
			t.Fatalf("record %p handed out twice", r)
		}
		if *r != (slabRec{}) {
			t.Fatalf("fresh record not zero: %+v", *r)
		}
		r.id, r.data = i+1, &x
		out[r] = true
		recs = append(recs, r)
	}

	// Release-then-acquire returns the same record, zeroed.
	last := recs[len(recs)-1]
	a.Put(last)
	if last.id != 0 || last.data != nil {
		t.Errorf("Put left the record dirty: %+v", *last)
	}
	if r := a.Get(); r != last || *r != (slabRec{}) {
		t.Errorf("Get after Put = %p %+v, want the zeroed %p back", r, *r, last)
	}

	// Records migrate: released into another slab, they come back out of it
	// most recent first, each exactly once, before it carves anything new.
	for _, r := range recs {
		b.Put(r)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := b.Get()
		if r != recs[i] || *r != (slabRec{}) {
			t.Fatalf("migrated Get #%d = %p %+v, want zeroed %p", len(recs)-1-i, r, *r, recs[i])
		}
	}
	if r := b.Get(); out[r] {
		t.Errorf("drained slab handed out %p again", r)
	}
}

// Four record types share the slab; releasing any of them twice would hand
// one record to two owners. Put catches it at the second release — also when
// the record is the only one on the free list.
func TestSlabPutTwicePanics(t *testing.T) {
	for _, others := range []int{0, 3} {
		var s Slab[slabRec, *slabRec]
		r := s.Get()
		for i := 0; i < others; i++ {
			s.Put(s.Get())
		}
		s.Put(r)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second Put with %d other free records did not panic", others)
				}
			}()
			s.Put(r)
		}()
		// The list is intact: the record comes back exactly once.
		if got := s.Get(); got != r {
			t.Errorf("Get after the rejected Put = %p, want %p", got, r)
		}
		if got := s.Get(); got == r {
			t.Errorf("record %p handed out twice", r)
		}
	}
}
