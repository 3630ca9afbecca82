package nqueens

import (
	"reflect"
	"testing"
	"testing/quick"

	abcl "repro"
	"repro/internal/machine"
)

// knownSolutions[n] is the number of n-queens solutions.
var knownSolutions = map[int]int64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
	9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712,
}

func TestCountTreeSolutions(t *testing.T) {
	for n := 1; n <= 11; n++ {
		_, sols := CountTree(n)
		if sols != knownSolutions[n] {
			t.Errorf("CountTree(%d) solutions = %d, want %d", n, sols, knownSolutions[n])
		}
	}
}

func TestCountTreeNodesMatchPaper(t *testing.T) {
	// Table 4: N=8 has 2,056 object creations — one per search-tree node.
	nodes, sols := CountTree(8)
	if nodes != 2056 {
		t.Errorf("8-queens tree nodes = %d, want 2056 (paper Table 4)", nodes)
	}
	if sols != 92 {
		t.Errorf("8-queens solutions = %d, want 92", sols)
	}
}

func TestSafe(t *testing.T) {
	// Queen at (0,0): attacks column 0 and both diagonals.
	b := boardOf(0)
	cases := []struct {
		row  int
		col  int8
		want bool
	}{
		{1, 0, false}, // same column
		{1, 1, false}, // diagonal
		{1, 2, true},
		{2, 2, false}, // diagonal two away
		{2, 1, true},
	}
	for _, c := range cases {
		if got := safe(b, c.row, c.col); got != c.want {
			t.Errorf("safe(%v, %d, %d) = %v, want %v", *b, c.row, c.col, got, c.want)
		}
	}
}

func TestValidColumnsAgainstBruteForce(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build an arbitrary (possibly invalid) partial board of size <= 5
		// on a 6x6 problem; validColumns must agree with safe.
		n := 6
		var cols []int8
		for _, r := range raw {
			if len(cols) >= 5 {
				break
			}
			cols = append(cols, int8(r%uint8(n)))
		}
		b := boardOf(cols...)
		var got [MaxN]int8
		ngot := validColumns(b, n, &got)
		j := 0
		for c := int8(0); int(c) < n; c++ {
			ok := safe(b, len(cols), c)
			if ok {
				if j >= ngot || got[j] != c {
					return false
				}
				j++
			}
		}
		return j == ngot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSequentialSmall(t *testing.T) {
	for n := 1; n <= 8; n++ {
		res, err := Run(Options{N: n}, abcl.WithNodes(4), abcl.WithSeed(3))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res.Solutions != knownSolutions[n] {
			t.Errorf("N=%d parallel solutions = %d, want %d", n, res.Solutions, knownSolutions[n])
		}
		wantNodes, _ := CountTree(n)
		if int64(res.Objects) != wantNodes {
			t.Errorf("N=%d objects = %d, want %d tree nodes", n, res.Objects, wantNodes)
		}
	}
}

func TestParallelTable4Counts(t *testing.T) {
	// Table 4's N=8 column: 92 solutions, 2,056 creations, ~4,104 messages.
	res, err := Run(Options{N: 8}, abcl.WithNodes(64), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 92 {
		t.Errorf("solutions = %d, want 92", res.Solutions)
	}
	if res.Objects != 2056 {
		t.Errorf("creations = %d, want 2056", res.Objects)
	}
	// Messages: one expand + one done per object, plus the root's report.
	if res.Messages < 2*2056 || res.Messages > 2*2056+16 {
		t.Errorf("messages = %d, want ~4112 (paper reports 4104)", res.Messages)
	}
}

func TestParallelSingleNode(t *testing.T) {
	res, err := Run(Options{N: 6}, abcl.WithNodes(1), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 4 {
		t.Errorf("solutions = %d, want 4", res.Solutions)
	}
	if res.Stats.RemoteSends != 0 {
		t.Errorf("single node run had %d remote sends", res.Stats.RemoteSends)
	}
}

func TestParallelDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(Options{N: 7}, abcl.WithNodes(8), abcl.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Messages != b.Messages || a.Objects != b.Objects {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestSpeedupImprovesWithNodes(t *testing.T) {
	// Figure 5's premise: more nodes, shorter makespan (for a problem with
	// enough parallelism).
	t1, err := Run(Options{N: 9}, abcl.WithNodes(1), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	t16, err := Run(Options{N: 9}, abcl.WithNodes(16), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if t16.Elapsed >= t1.Elapsed {
		t.Fatalf("16 nodes (%v) not faster than 1 node (%v)", t16.Elapsed, t1.Elapsed)
	}
	speedup := float64(t1.Elapsed) / float64(t16.Elapsed)
	if speedup < 4 {
		t.Errorf("speedup on 16 nodes = %.1f, want >= 4", speedup)
	}
}

func TestStackBeatsNaive(t *testing.T) {
	// Figure 6's premise: stack-based scheduling outperforms naive
	// always-queue scheduling on the same program.
	st, err := Run(Options{N: 8}, abcl.WithNodes(16), abcl.WithSeed(1), abcl.WithPolicy(abcl.StackBased))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Run(Options{N: 8}, abcl.WithNodes(16), abcl.WithSeed(1), abcl.WithPolicy(abcl.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if nv.Elapsed <= st.Elapsed {
		t.Fatalf("naive (%v) must be slower than stack-based (%v)", nv.Elapsed, st.Elapsed)
	}
}

func TestDormantFraction(t *testing.T) {
	// Section 6.3: "approximately 75% of local messages are sent to dormant
	// mode objects" in the N-queens programs.
	res, err := Run(Options{N: 9}, abcl.WithNodes(8), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Stats.DormantFraction()
	if f < 0.5 || f > 1.0 {
		t.Errorf("dormant fraction = %.2f, want in the vicinity of 0.75", f)
	}
}

func TestSequentialCalibration(t *testing.T) {
	// Table 4: the sequential N=8 program takes ~84ms on a SPARCstation 1+.
	seq := Sequential(8, machine.DefaultConfig(1), 0)
	ms := seq.Elapsed.Millis()
	if ms < 60 || ms > 110 {
		t.Errorf("sequential N=8 time = %.1fms, want ~84ms", ms)
	}
	if seq.Solutions != 92 {
		t.Errorf("sequential solutions = %d, want 92", seq.Solutions)
	}
}

func TestRunValidation(t *testing.T) {
	for _, n := range []int{0, -1, MaxN + 1, 128} {
		if _, err := Run(Options{N: n}); err == nil {
			t.Errorf("N=%d should be rejected", n)
		}
	}
	if err := CheckN(MaxN); err != nil {
		t.Errorf("N=MaxN rejected: %v", err)
	}
}

// boardOf builds the board with a queen in cols[r] on row r.
func boardOf(cols ...int8) *Board {
	b := &Board{rows: uint8(len(cols))}
	copy(b.cols[:], cols)
	return b
}

func TestBoardSizeBytes(t *testing.T) {
	b := boardOf(1, 2, 3)
	if b.SizeBytes() != 11 {
		t.Errorf("SizeBytes = %d, want 11", b.SizeBytes())
	}
}

func TestWorkInstr(t *testing.T) {
	if WorkInstr(8, 0) != 66*64/10 {
		t.Errorf("WorkInstr(8) = %d", WorkInstr(8, 0))
	}
	if WorkInstr(10, 100) != 1000 {
		t.Errorf("WorkInstr(10,100) = %d", WorkInstr(10, 100))
	}
}

func TestStockDisabledStillCorrect(t *testing.T) {
	res, err := Run(Options{N: 7}, abcl.WithNodes(8), abcl.WithSeed(1), abcl.WithChunkStock(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 40 {
		t.Errorf("solutions = %d, want 40", res.Solutions)
	}
	if res.Stats.StockMisses == 0 {
		t.Error("disabled stock must produce misses")
	}
	if res.Stats.StockHits != 0 {
		t.Error("disabled stock must not produce hits")
	}
}

func TestPlacementPoliciesAllCorrect(t *testing.T) {
	for _, p := range []abcl.Placement{
		abcl.PlaceRoundRobin, abcl.PlaceRandom, abcl.PlaceLocal,
		abcl.PlaceLoadBased, abcl.PlaceDepthLocal,
	} {
		res, err := Run(Options{N: 7}, abcl.WithNodes(8), abcl.WithSeed(2), abcl.WithPlacement(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Solutions != 40 {
			t.Errorf("%s: solutions = %d, want 40", p.Name(), res.Solutions)
		}
	}
}

// The creation loop's record carries no continuation: spawnNext is static
// and finds the record through the creating node's state, so expanding a
// board makes no closure. The record stands in the state slot that held the
// loop's integer cursor, and a snapshot must model it as that one word, or
// every checkpoint's stable-store bytes move.
func TestSpawnRecordHoldsNoFunc(t *testing.T) {
	rt := reflect.TypeOf(spawn{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("spawn.%s is a %v", f.Name, f.Type)
		}
	}
	if got, want := abcl.Any(&spawn{}).SizeBytes(), abcl.Int(0).SizeBytes(); got != want {
		t.Errorf("a spawn record in state is %d bytes, the cursor it replaced %d", got, want)
	}
	if MaxN > pendingMask {
		t.Errorf("MaxN %d does not fit stPending's count bits (mask %#x)", MaxN, pendingMask)
	}
}
