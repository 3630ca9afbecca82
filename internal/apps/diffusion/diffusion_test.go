package diffusion

import (
	"math"
	"testing"

	abcl "repro"
)

func TestMatchesSequentialJacobi(t *testing.T) {
	// The concurrent stencil must be numerically equivalent to the
	// sequential sweep (modulo floating summation order).
	for _, tc := range []struct {
		w, h, iters, nodes int
	}{
		{4, 4, 1, 1},
		{4, 4, 5, 1},
		{6, 5, 8, 4},
		{8, 8, 10, 16},
		{5, 9, 7, 3},
	} {
		res, err := Run(Options{W: tc.w, H: tc.h, Iters: tc.iters}, abcl.WithNodes(tc.nodes))
		if err != nil {
			t.Fatalf("%dx%d iters=%d nodes=%d: %v", tc.w, tc.h, tc.iters, tc.nodes, err)
		}
		want := SequentialResidual(tc.w, tc.h, tc.iters)
		if math.Abs(res.Residual-want) > 1e-9 {
			t.Errorf("%dx%d iters=%d nodes=%d: residual %g, want %g",
				tc.w, tc.h, tc.iters, tc.nodes, res.Residual, want)
		}
	}
}

func TestNaivePolicyEquivalent(t *testing.T) {
	st, err := Run(Options{W: 6, H: 6, Iters: 6}, abcl.WithNodes(4), abcl.WithPolicy(abcl.StackBased))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Run(Options{W: 6, H: 6, Iters: 6}, abcl.WithNodes(4), abcl.WithPolicy(abcl.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Residual-nv.Residual) > 1e-12 {
		t.Fatalf("policies disagree: %g vs %g", st.Residual, nv.Residual)
	}
	if nv.Elapsed <= st.Elapsed {
		t.Errorf("naive (%v) should be slower than stack (%v)", nv.Elapsed, st.Elapsed)
	}
}

func TestBlockPlacementReducesRemoteTraffic(t *testing.T) {
	scatter, err := Run(Options{W: 16, H: 16, Iters: 4}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	block, err := Run(Options{W: 16, H: 16, Iters: 4, BlockPlace: true}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if block.Stats.RemoteSends >= scatter.Stats.RemoteSends {
		t.Errorf("block placement remote sends %d >= scatter %d",
			block.Stats.RemoteSends, scatter.Stats.RemoteSends)
	}
	if math.Abs(block.Residual-scatter.Residual) > 1e-12 {
		t.Error("placement must not change numerics")
	}
}

func TestBlockPlacementFaster(t *testing.T) {
	scatter, err := Run(Options{W: 16, H: 16, Iters: 6}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	block, err := Run(Options{W: 16, H: 16, Iters: 6, BlockPlace: true}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if block.Elapsed >= scatter.Elapsed {
		t.Errorf("block placement (%v) should beat scatter (%v) on a neighbour workload",
			block.Elapsed, scatter.Elapsed)
	}
}

func TestDiffusionDeterminism(t *testing.T) {
	a, err := Run(Options{W: 6, H: 6, Iters: 5}, abcl.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{W: 6, H: 6, Iters: 5}, abcl.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Residual != b.Residual ||
		a.Stats.TotalMessages() != b.Stats.TotalMessages() {
		t.Fatal("nondeterministic diffusion runs")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Options{W: 0, H: 4, Iters: 1}); err == nil {
		t.Error("zero width must be rejected")
	}
	if _, err := Run(Options{W: 1, H: 1, Iters: 1}); err == nil {
		t.Error("single cell has no neighbours and must be rejected")
	}
	if _, err := Run(Options{W: 4, H: 4, Iters: 0}); err == nil {
		t.Error("zero iterations must be rejected")
	}
}

func TestWaitHeavyStats(t *testing.T) {
	// Every iteration is a selective-reception join: the waiting machinery
	// must dominate the statistics.
	res, err := Run(Options{W: 8, H: 8, Iters: 8}, abcl.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Stats
	if c.WaitBlocked+c.WaitFast == 0 {
		t.Fatal("no selective receptions recorded")
	}
	if c.LocalRestores == 0 {
		t.Fatal("no context restorations recorded")
	}
}

func TestSequentialResidualDecreases(t *testing.T) {
	r1 := SequentialResidual(8, 8, 1)
	r20 := SequentialResidual(8, 8, 20)
	if r20 >= r1 {
		t.Fatalf("residual must decrease: %g -> %g", r1, r20)
	}
}
