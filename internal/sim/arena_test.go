package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

// An Arena hands out distinct zeroed records whose addresses never move, on
// the slab's schedule — blocks of 8, 16, ... 256, 256 — and pays one
// allocation per block. A Slice is capped: an append through it reallocates
// instead of writing over the next record, and a Slice longer than the
// largest block is a block of its own.
func TestArenaCarvesDoublingBlocks(t *testing.T) {
	type rec struct {
		id  int
		pad [3]int
	}
	want := []int{8, 16, 32, 64, 128, 256, 256}
	n := 0
	for _, b := range want {
		n += b
	}
	a := NewArena[rec](NewEngine())
	recs := make([]*rec, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		recs[i] = a.New(0)
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != uint64(len(want)) {
		t.Errorf("%d records took %d allocations, want one per block: %d", n, allocs, len(want))
	}
	for i, r := range recs {
		if *r != (rec{}) {
			t.Fatalf("record %d is not zeroed: %+v", i, *r)
		}
		r.id = i + 1
	}
	i := 0
	for _, b := range want {
		for end := i + b - 1; i < end; i++ {
			if unsafe.Pointer(recs[i+1]) != unsafe.Add(unsafe.Pointer(recs[i]), unsafe.Sizeof(rec{})) {
				t.Fatalf("records %d and %d are not adjacent inside a block of %d", i, i+1, b)
			}
		}
		i++
	}
	for i, r := range recs {
		if r.id != i+1 {
			t.Fatalf("record %d reads %d: two records share a slot", i, r.id)
		}
	}

	s, next := a.Slice(0, 3), a.Slice(0, 2)
	if len(s) != 3 || cap(s) != 3 || &s[2] == &next[0] {
		t.Fatalf("Slice(3) has len %d, cap %d: want 3 and 3, apart from the next slice", len(s), cap(s))
	}
	next[0].id = 7
	if grown := append(s, rec{id: 9}); &grown[0] == &s[0] || next[0].id != 7 {
		t.Error("an append through a Slice did not reallocate")
	}
	if big := a.Slice(0, 300); len(big) != 300 || cap(big) != 300 {
		t.Errorf("Slice(300) has len %d, cap %d, want 300 and 300", len(big), cap(big))
	}
}
