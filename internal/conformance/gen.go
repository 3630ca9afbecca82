// Package conformance generates random *confluent* ABCL programs and checks
// that their observable results are identical across scheduling policies
// (stack-based vs naive), across runs (determinism), across node counts,
// across chunk-stock depths and with and without injected link faults.
//
// Confluence is by construction: all state updates are commutative
// accumulations (sums and counters) over values carried by the messages
// themselves, and every message carries a hop budget, so termination and
// the final sums are independent of delivery interleaving. What the checks
// catch is therefore lost, duplicated, or corrupted messages, creations and
// replies anywhere in the runtime — under every scheduler path.
package conformance

import (
	"math/rand"

	"repro/internal/core"
)

// Program is a generated workload bound to pattern/class definitions.
type Program struct {
	Seed  int64
	Nodes int

	// Object-count knobs (set by Generate).
	relays, askers, spawners, gates int
	injections                      int
	maxBudget                       int

	// Per-build state (reset by Build).
	patPoke   core.PatternID // poke budget value   (past)
	patAdd    core.PatternID // add1 value          (now: replies value+1)
	patOpen   core.PatternID // open value          (past, gates)
	patData   core.PatternID // data value          (past, gates)
	patSpawn  core.PatternID // spawn depth value child (past, spawners)
	patReport core.PatternID // report value        (past, collector)

	accs    []core.Address // all accumulating objects, in creation order
	targets []core.Address // forwarding table shared by all relays
	adder   core.Address
	// collector accumulates the contributions of dynamically created
	// spawner children. Keeping that tally inside the simulation (rather
	// than in a host-side slice of child addresses) keeps Observe valid
	// under engines that replay or roll back events — host state cannot
	// be rewound, object state can.
	collector core.Address
	rng       *rand.Rand
}

// Generate derives a program shape from the seed.
func Generate(seed int64, nodes int) *Program {
	rng := rand.New(rand.NewSource(seed))
	return &Program{
		Seed:       seed,
		Nodes:      nodes,
		relays:     2 + rng.Intn(6),
		askers:     1 + rng.Intn(3),
		spawners:   1 + rng.Intn(3),
		gates:      1 + rng.Intn(3),
		injections: 3 + rng.Intn(8),
		maxBudget:  8 + rng.Intn(24),
	}
}

// Expected is the policy- and engine-independent observable outcome.
type Expected struct {
	Sum       int64  // total of all accumulator states
	Creations uint64 // total object creations (excluding setup)
	Messages  uint64 // total object-to-object sends
}

// Build defines the program's patterns, classes and objects on rt, and
// returns the injection thunk to call before running. rt must be fresh.
func (p *Program) Build(rt *core.Runtime) func() {
	p.rng = rand.New(rand.NewSource(p.Seed * 7919))
	p.patPoke = rt.Reg.Register("conf.poke", 2)
	p.patAdd = rt.Reg.Register("conf.add1", 1)
	p.patOpen = rt.Reg.Register("conf.open", 1)
	p.patData = rt.Reg.Register("conf.data", 1)
	p.patSpawn = rt.Reg.Register("conf.spawn", 3)
	p.patReport = rt.Reg.Register("conf.report", 1)
	p.accs = nil
	p.targets = nil

	// Adder: a pure now-type service.
	adderCls := rt.DefineClass("conf.adder", 0, nil)
	adderCls.Method(p.patAdd, func(ctx *core.Ctx) {
		ctx.Reply(core.IntV(ctx.Arg(0).Int() + 1))
	})

	// Relay: accumulates the value, forwards with decremented budget to a
	// pseudo-random (but message-determined) entry of the target table.
	zero1 := func(ic *core.InitCtx) { ic.SetState(0, core.IntV(0)) }
	relayCls := rt.DefineClass("conf.relay", 1, zero1)
	relayCls.Method(p.patPoke, func(ctx *core.Ctx) {
		budget, v := ctx.Arg(0).Int(), ctx.Arg(1).Int()
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+v))
		if budget > 0 {
			// The next hop is derived from the message contents, so every
			// interleaving forwards identically.
			next := p.targets[int(uint64(v*2654435761+budget)%uint64(len(p.targets)))]
			ctx.SendPast(next, p.patPoke, core.IntV(budget-1), core.IntV(v))
		}
	})

	// Asker: accumulates, asks the adder (now-type), accumulates the reply,
	// then forwards the remaining budget.
	askerCls := rt.DefineClass("conf.asker", 1, zero1)
	askerCls.Method(p.patPoke, func(ctx *core.Ctx) {
		budget, v := ctx.Arg(0).Int(), ctx.Arg(1).Int()
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+v))
		ctx.SendNow(p.adder, p.patAdd, []core.Value{core.IntV(v)}, func(ctx *core.Ctx, r core.Value) {
			ctx.SetState(0, core.IntV(ctx.State(0).Int()+r.Int()))
			if budget > 0 {
				next := p.targets[int(uint64(v*40503+budget)%uint64(len(p.targets)))]
				ctx.SendPast(next, p.patPoke, core.IntV(budget-1), core.IntV(v+1))
			}
		})
	})

	// Gate: on open, selectively waits for data (unless data already
	// arrived, in which case the plain data method has accumulated it) and
	// accumulates it. state1 tracks whether data was consumed early.
	gateCls := rt.DefineClass("conf.gate", 2, func(ic *core.InitCtx) {
		ic.SetState(0, core.IntV(0))
		ic.SetState(1, core.IntV(0))
	})
	gateCls.Method(p.patOpen, func(ctx *core.Ctx) {
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+ctx.Arg(0).Int()))
		if ctx.State(1).Int() != 0 {
			return // data already arrived through the fallback method
		}
		ctx.WaitFor(func(ctx *core.Ctx, f *core.Frame) {
			ctx.SetState(0, core.IntV(ctx.State(0).Int()+f.Arg(0).Int()))
		}, p.patData)
	})
	gateCls.Method(p.patData, func(ctx *core.Ctx) {
		// Fallback for data overtaking open: same accumulation.
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+ctx.Arg(0).Int()))
		ctx.SetState(1, core.IntV(1))
	})

	// Collector: accumulates the reported contributions of dynamically
	// created children, so dynamic accumulation stays observable without
	// the harness holding child addresses on the host side.
	collectorCls := rt.DefineClass("conf.collector", 1, zero1)
	collectorCls.Method(p.patReport, func(ctx *core.Ctx) {
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+ctx.Arg(0).Int()))
	})

	// Spawner: accumulates, creates a child spawner via the placement
	// policy and pokes it. Dynamically created children (arg 2 set) also
	// report their contribution to the collector, which is what Observe
	// reads — the children themselves are not enumerable from the host.
	var spawnerCls *core.Class
	spawnerCls = rt.DefineClass("conf.spawner", 1, zero1)
	spawnerCls.Method(p.patSpawn, func(ctx *core.Ctx) {
		depth, v := ctx.Arg(0).Int(), ctx.Arg(1).Int()
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+v))
		if ctx.Arg(2).Int() != 0 {
			ctx.SendPast(p.collector, p.patReport, core.IntV(v))
		}
		if depth == 0 {
			return
		}
		ctx.Create(spawnerCls, nil, func(ctx *core.Ctx, child core.Address) {
			ctx.SendPast(child, p.patSpawn, core.IntV(depth-1), core.IntV(v), core.IntV(1))
		})
	})

	// Lay out the fixed objects round-robin across nodes.
	node := 0
	place := func(cls *core.Class) core.Address {
		a := rt.NewObjectOn(node%p.Nodes, cls)
		node++
		return a
	}
	p.adder = place(adderCls)
	p.collector = place(collectorCls)
	for i := 0; i < p.relays; i++ {
		a := place(relayCls)
		p.accs = append(p.accs, a)
		p.targets = append(p.targets, a)
	}
	for i := 0; i < p.askers; i++ {
		a := place(askerCls)
		p.accs = append(p.accs, a)
		p.targets = append(p.targets, a)
	}
	var gates, spawners []core.Address
	for i := 0; i < p.gates; i++ {
		a := place(gateCls)
		p.accs = append(p.accs, a)
		gates = append(gates, a)
	}
	for i := 0; i < p.spawners; i++ {
		a := place(spawnerCls)
		p.accs = append(p.accs, a)
		spawners = append(spawners, a)
	}

	rng := rand.New(rand.NewSource(p.Seed * 104729))
	return func() {
		for i := 0; i < p.injections; i++ {
			v := int64(1 + rng.Intn(9))
			budget := int64(1 + rng.Intn(p.maxBudget))
			switch rng.Intn(3) {
			case 0:
				t := p.targets[rng.Intn(len(p.targets))]
				rt.Inject(t, p.patPoke, core.IntV(budget), core.IntV(v))
			case 1:
				s := spawners[rng.Intn(len(spawners))]
				rt.Inject(s, p.patSpawn, core.IntV(budget%6), core.IntV(v), core.IntV(0))
			case 2:
				g := gates[rng.Intn(len(gates))]
				rt.Inject(g, p.patOpen, core.IntV(v))
				rt.Inject(g, p.patData, core.IntV(v+1))
			}
		}
	}
}

// Observe reads the outcome of a quiescent run. Every accumulator it reads
// — the fixed objects plus the collector that stands in for the dynamic
// children — is simulation state, so the observation is valid under every
// engine, including ones that replay or roll back events.
func (p *Program) Observe(rt *core.Runtime) Expected {
	var sum int64
	read := func(a core.Address) int64 {
		v := a.Obj.State(0)
		if v.IsNil() {
			return 0 // never received a message: lazy init never ran
		}
		return v.Int()
	}
	for _, a := range p.accs {
		sum += read(a)
	}
	sum += read(p.collector)
	c := rt.TotalStats()
	return Expected{
		Sum:       sum,
		Creations: c.Creations(),
		Messages:  c.TotalMessages(),
	}
}
