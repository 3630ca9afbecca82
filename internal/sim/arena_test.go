package sim

import "testing"

// An Arena hands out distinct zeroed records whose addresses never move, and
// pays one allocation per block: blocks of 2, 4, 8, then the cap.
func TestArenaCarvesDoublingBlocks(t *testing.T) {
	type rec struct {
		id  int
		pad [3]int
	}
	const n, maxBlock = 100, 8
	var a Arena[rec]
	var recs [n]*rec
	allocs := testing.AllocsPerRun(1, func() {
		a = Arena[rec]{}
		for i := range recs {
			r := a.New(maxBlock)
			if *r != (rec{}) {
				t.Fatalf("record %d is not zeroed: %+v", i, *r)
			}
			r.id = i + 1
			recs[i] = r
		}
	})
	for i, r := range recs {
		if r.id != i+1 {
			t.Fatalf("record %d reads %d: two records share a slot", i, r.id)
		}
	}
	// 2 + 4 + 8 = 14 records in the first three blocks, 86 more in 11 of 8.
	if want := 3.0 + 11; allocs != want {
		t.Errorf("%d records with a cap of %d took %.0f allocations, want %.0f", n, maxBlock, allocs, want)
	}
	// From a first block of 16 and a cap of 64: 16 + 32 + 64 = 112 records in
	// three blocks.
	allocs = testing.AllocsPerRun(1, func() {
		a = Arena[rec]{}
		for i := range recs {
			recs[i] = a.NewFrom(16, 64)
			recs[i].id = i + 1
		}
	})
	for i, r := range recs {
		if r.id != i+1 {
			t.Fatalf("NewFrom: record %d reads %d: two records share a slot", i, r.id)
		}
	}
	if allocs != 3 {
		t.Errorf("NewFrom: %d records from a first block of 16 took %.0f allocations, want 3", n, allocs)
	}
}
