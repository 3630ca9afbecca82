package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/sim"
)

// runDES executes the program on the discrete-event simulator.
func runDES(t *testing.T, p *Program, policy core.Policy) Expected {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(p.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(m, core.Options{Policy: policy})
	remote.Attach(rt, remote.Options{StockDepth: 2, Placement: remote.RoundRobin{}, Seed: 1})
	inject := p.Build(rt)
	inject()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return p.Observe(rt)
}

const seeds = 25

func TestStackVsNaiveEquivalence(t *testing.T) {
	// The two scheduling policies must produce identical observable results
	// for every generated program: same accumulated sums, same creations,
	// same message counts — only timing may differ.
	for seed := int64(1); seed <= seeds; seed++ {
		nodes := 1 + int(seed)%7
		st := runDES(t, Generate(seed, nodes), core.PolicyStackBased)
		nv := runDES(t, Generate(seed, nodes), core.PolicyNaive)
		if st != nv {
			t.Errorf("seed %d (%d nodes): stack %+v != naive %+v", seed, nodes, st, nv)
		}
		if st.Sum == 0 || st.Messages == 0 {
			t.Errorf("seed %d: degenerate program (sum=%d msgs=%d)", seed, st.Sum, st.Messages)
		}
	}
}

func TestDESDeterminism(t *testing.T) {
	// Two DES runs of the same program are bit-identical in every counter.
	for seed := int64(1); seed <= seeds; seed++ {
		nodes := 2 + int(seed)%6
		a := runDES(t, Generate(seed, nodes), core.PolicyStackBased)
		b := runDES(t, Generate(seed, nodes), core.PolicyStackBased)
		if a != b {
			t.Errorf("seed %d: nondeterministic: %+v vs %+v", seed, a, b)
		}
	}
}

func TestSingleNodeMatchesMultiNode(t *testing.T) {
	// The program's functional outcome is placement independent: running
	// everything on one node gives the same sums as spreading over many.
	for seed := int64(1); seed <= 10; seed++ {
		one := runDES(t, Generate(seed, 1), core.PolicyStackBased)
		many := runDES(t, Generate(seed, 8), core.PolicyStackBased)
		if one.Sum != many.Sum {
			t.Errorf("seed %d: 1-node sum %d != 8-node sum %d", seed, one.Sum, many.Sum)
		}
		if one.Creations != many.Creations {
			t.Errorf("seed %d: creations differ: %d vs %d", seed, one.Creations, many.Creations)
		}
	}
}

func TestStockDepthIsFunctionallyInvisible(t *testing.T) {
	// Chunk-stock depth changes latency, never results.
	run := func(seed int64, depth int) Expected {
		p := Generate(seed, 6)
		m, err := machine.New(machine.DefaultConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		rt := core.NewRuntime(m, core.Options{})
		remote.Attach(rt, remote.Options{StockDepth: depth, Placement: remote.RoundRobin{}, Seed: 1})
		inject := p.Build(rt)
		inject()
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Observe(rt)
	}
	for seed := int64(1); seed <= 10; seed++ {
		with := run(seed, 3)
		without := run(seed, 0)
		if with.Sum != without.Sum || with.Creations != without.Creations {
			t.Errorf("seed %d: stock changed results: %+v vs %+v", seed, with, without)
		}
	}
}

func TestFaultsAreFunctionallyInvisible(t *testing.T) {
	// A lossy interconnect under the reliable-delivery protocol changes
	// timing and packet counts, never results: every generated program
	// reaches quiescence with the same sums and creations as its
	// fault-free run, and no message is lost.
	run := func(seed int64, nodes int, plan fault.Plan) Expected {
		p := Generate(seed, nodes)
		m, err := machine.New(machine.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		reliable := plan.Enabled()
		if reliable {
			inj, err := fault.NewInjector(plan, seed, nodes)
			if err != nil {
				t.Fatal(err)
			}
			m.SetFaults(inj)
		}
		rt := core.NewRuntime(m, core.Options{})
		remote.Attach(rt, remote.Options{
			StockDepth: 2, Placement: remote.RoundRobin{}, Seed: 1, Reliable: reliable,
		})
		inject := p.Build(rt)
		inject()
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if c := rt.TotalStats(); c.LostMessages() != 0 {
			t.Errorf("seed %d: lost=%d", seed, c.LostMessages())
		}
		return p.Observe(rt)
	}
	plan := fault.UniformLinks(0.10, 0.05, 2*sim.Microsecond)
	for seed := int64(1); seed <= seeds; seed++ {
		nodes := 2 + int(seed)%6
		clean := run(seed, nodes, fault.Plan{})
		faulted := run(seed, nodes, plan)
		if clean != faulted {
			t.Errorf("seed %d (%d nodes): faults changed results: %+v vs %+v",
				seed, nodes, clean, faulted)
		}
	}
}
