package remote

import (
	"testing"

	"repro/internal/core"
)

// placementSys builds a quiescent machine+layer for direct Pick calls.
func placementSys(t *testing.T, nodes int, lopt Options) (*core.Runtime, *Layer) {
	t.Helper()
	rt, l := buildSys(t, nodes, core.Options{}, lopt)
	return rt, l
}

func TestRoundRobinCycles(t *testing.T) {
	_, l := placementSys(t, 4, Options{Placement: RoundRobin{}})
	p := RoundRobin{}
	// Each node cycles over all nodes (self included), starting past itself's
	// initial cursor: node 0 yields 1,2,3,0,1,...
	want := []int{1, 2, 3, 0, 1, 2, 3, 0}
	for i, w := range want {
		if got := p.Pick(l, 0, nil); got != w {
			t.Fatalf("pick %d from node 0 = %d, want %d", i, got, w)
		}
	}
	// Per-node cursors are independent: node 2's cycle is unaffected by the
	// eight picks issued from node 0.
	for i, w := range []int{1, 2, 3, 0} {
		if got := p.Pick(l, 2, nil); got != w {
			t.Fatalf("pick %d from node 2 = %d, want %d", i, got, w)
		}
	}
}

func TestPlacementSingleNodeDegenerate(t *testing.T) {
	_, l := placementSys(t, 1, Options{Placement: RoundRobin{}})
	policies := []Placement{RoundRobin{}, Random{}, LocalOnly{}, LoadBased{}, DepthLocal{}}
	for _, p := range policies {
		for i := 0; i < 8; i++ {
			if got := p.Pick(l, 0, nil); got != 0 {
				t.Errorf("%s: pick on a 1-node machine = %d, want 0", p.Name(), got)
			}
		}
	}
}

func TestRoundRobinVersusLoadBased(t *testing.T) {
	// A skewed load picture: every remote node busy except node 3.
	// Round-robin ignores it and blindly cycles to node 1; load-based finds a
	// minimum-load node (the idle self or node 3). The layer runs load-based
	// placement: only that keeps the samples.
	_, l := placementSys(t, 4, Options{Placement: LoadBased{}, Seed: 1})
	ns := l.nodes[0]
	for i := 1; i < 4; i++ {
		ns.loads[i] = 5
	}
	ns.loads[3] = 0

	if got := (RoundRobin{}).Pick(l, 0, nil); got != 1 {
		t.Fatalf("round-robin pick = %d, want 1 (blind cycle)", got)
	}
	for i := 0; i < 8; i++ {
		got := (LoadBased{}).Pick(l, 0, nil)
		if got == 1 || got == 2 {
			t.Fatalf("load-based pick = %d, want an idle node (0 or 3)", got)
		}
	}
}

func TestLoadBasedDefaultsAndOwnLoad(t *testing.T) {
	// knownLoad for the picking node itself reads the live scheduling queue,
	// not a piggybacked sample.
	_, l := placementSys(t, 2, Options{Placement: LoadBased{}, Seed: 1})
	ns := l.nodes[0]
	ns.loads[0] = 99 // must be ignored for self
	if got := ns.knownLoad(0, l); got != 0 {
		t.Fatalf("own knownLoad = %d, want live queue length 0", got)
	}
}
