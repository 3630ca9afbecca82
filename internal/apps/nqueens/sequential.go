package nqueens

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// SeqResult reports the sequential depth-first baseline (the C++ program of
// Table 4): the same search charged with the same per-node work but with no
// heap, no messages, and no termination detection — it uses the run-time
// stack only, as the paper describes.
type SeqResult struct {
	N         int
	Solutions int64
	TreeNodes int64 // valid placements visited (== parallel object count)
	Elapsed   sim.Time
}

// Sequential runs the baseline under the given machine configuration's
// clock/CPI (pass machine.DefaultConfig(1) for the paper's SPARCstation-
// class processor) and work factor (tenths; 0 = default).
func Sequential(n int, cfg machine.Config, workFactor int) SeqResult {
	nodes, sols := CountTree(n)
	instr := nodes * int64(WorkInstr(n, workFactor))
	return SeqResult{
		N:         n,
		Solutions: sols,
		TreeNodes: nodes,
		Elapsed:   cfg.InstrTime(instr),
	}
}

// CountTree performs the actual depth-first search, returning the number of
// valid partial placements (search-tree nodes, excluding the empty root)
// and the number of complete solutions. A size CheckN rejects panics: the
// occupancy masks below are 32 bits wide.
func CountTree(n int) (nodes, solutions int64) {
	if err := CheckN(n); err != nil {
		panic(err)
	}
	full := uint32(1)<<uint(n) - 1
	// cols/d1/d2 are column and diagonal occupancy bitmasks, shifted per row.
	var rec func(row int, cols, d1, d2 uint32)
	rec = func(row int, cols, d1, d2 uint32) {
		avail := full &^ (cols | d1 | d2)
		for avail != 0 {
			bit := avail & -avail
			avail &^= bit
			nodes++
			if row == n-1 {
				solutions++
				continue
			}
			rec(row+1, cols|bit, ((d1|bit)<<1)&full, (d2|bit)>>1)
		}
	}
	rec(0, 0, 0, 0)
	return nodes, solutions
}
