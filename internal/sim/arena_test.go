package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// An Arena hands out distinct zeroed records whose addresses never move, in
// blocks that double from 8 up to the byte cap — for a 32-byte record 8, 16,
// ... 1024, then 1792, 1792 (a Slab's too) — and pays one allocation per
// block. A Slice is capped: an append through it reallocates instead of
// writing over the next record, and a Slice longer than the largest block is
// a block of its own.
//
// The allocations are counted by testing.AllocsPerRun, each run carving the
// records from a fresh arena: it averages over the runs, rounding down, so an
// allocation another goroutine makes meanwhile (the race detector's, a
// parallel test's) does not count against the arena.
func TestArenaCarvesDoublingBlocks(t *testing.T) {
	type rec struct {
		id  int64
		pad [3]int64
	}
	want := []int{8, 16, 32, 64, 128, 256, 512, 1024, 1792, 1792}
	n := 0
	for _, b := range want {
		n += b
	}
	if allocs := testing.AllocsPerRun(20, func() {
		var a Arena[rec]
		for range n {
			a.New()
		}
	}); allocs != float64(len(want)) {
		t.Errorf("%d records took %v allocations, want one per block: %d", n, allocs, len(want))
	}

	var a Arena[rec]
	recs := make([]*rec, n)
	for i := range recs {
		recs[i] = a.New()
	}
	for i, r := range recs {
		if *r != (rec{}) {
			t.Fatalf("record %d is not zeroed: %+v", i, *r)
		}
		r.id = int64(i + 1)
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
		if r.id != int64(i+1) {
			t.Fatalf("record %d reads %d: two records share a slot", i, r.id)
		}
	}

	s, next := a.Slice(3), a.Slice(2)
	if len(s) != 3 || cap(s) != 3 || &s[2] == &next[0] {
		t.Fatalf("Slice(3) has len %d, cap %d: want 3 and 3, apart from the next slice", len(s), cap(s))
	}
	next[0].id = 7
	if grown := append(s, rec{id: 9}); &grown[0] == &s[0] || next[0].id != 7 {
		t.Error("an append through a Slice did not reallocate")
	}
	if big := a.Slice(2000); len(big) != 2000 || cap(big) != 2000 {
		t.Errorf("Slice(2000) has len %d, cap %d, want 2000 and 2000", len(big), cap(big))
	}
}

// A block past 32 KiB is whole runtime pages, and holds every record they
// fit: 256 records of 200 bytes round up to seven 8 KiB pages, which hold
// 286; 256 of 144 bytes round up to five, which hold 284. Blocks up to
// 32 KiB keep their count. Blocks grow past 256 records up to seven pages'
// worth, so a record of 144 bytes ends in blocks of 398 and one of 24 bytes
// in blocks of 2 389, while a 1 KiB record, whose 256-record block is
// already larger, keeps blocks of 256.
func TestArenaBlocksFillTheirPages(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []int
		want []int
	}{
		{"200-byte", carvedBlocks[[25]int64](8 + 16 + 32 + 64 + 128 + 2*286), []int{8, 16, 32, 64, 128, 286, 286}},
		{"144-byte", carvedBlocks[[18]int64](8 + 16 + 32 + 64 + 128 + 284 + 2*398), []int{8, 16, 32, 64, 128, 284, 398, 398}},
		{"24-byte", carvedBlocks[[3]int64](8 + 16 + 32 + 64 + 128 + 256 + 512 + 1024 + 2048 + 2*2389),
			[]int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 2389, 2389}},
		{"1 KiB", carvedBlocks[[128]int64](8 + 16 + 32 + 64 + 128 + 2*256), []int{8, 16, 32, 64, 128, 256, 256}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s records: blocks of %v, want %v", c.name, c.got, c.want)
		}
	}
}

// carvedBlocks carves n records from a fresh Arena and returns the lengths
// of the blocks it carved them from. It reads the arena's blocks rather than
// the records' addresses: the runtime may place one block right after the
// last, which would read as one run of adjacent records.
func carvedBlocks[T any](n int) []int {
	var a Arena[T]
	var got []int
	for range n {
		fresh := len(a.block) == 0
		a.New()
		if fresh {
			got = append(got, len(a.block)+1)
		}
	}
	return got
}
