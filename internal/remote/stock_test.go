package remote

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/core"
)

// stockModel is the reference for one node's chunk stocks: the Go map the
// table replaced, one entry per (target, class) pair the node has touched.
type stockModel map[uint64]struct {
	seeded bool
	n      int
}

// The stock table behaves as the map it replaced. Seeded random pops,
// refills, captures and restores drive node 0's table and a map model side
// by side; after every step each pair's StockLevel, the size of a fresh
// image and the number of slots made agree with the model. A restore empties
// every slot and copies the image's back, so a pair first touched after the
// image stays in the table, empty, and keeps its 8-byte charge.
func TestStockTableMatchesMapModel(t *testing.T) {
	const nodes, steps = 64, 3000
	for _, depth := range []int{0, 1, 2, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("depth=%d/seed=%d", depth, seed), func(t *testing.T) {
				rt, l := buildSys(t, nodes, core.Options{}, Options{StockDepth: depth, Placement: LocalOnly{}, Seed: 1, Reliable: true})
				classes := []*core.Class{rt.DefineClass("a", 0, nil), rt.DefineClass("b", 0, nil)}
				ns := l.nodes[0]
				model := stockModel{}
				var touched []uint64 // the model's keys, in first-touch order
				type snap struct {
					im    *RelImage
					model stockModel
				}
				var snaps []snap
				rng := seed * 0x9e3779b97f4a7c15
				next := func(n int) int {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return int(rng % uint64(n))
				}
				for step := range steps {
					switch op := next(20); {
					case op < 9: // a creation pops
						target, cl := 1+next(nodes-1), classes[next(len(classes))]
						key := stockKey(target, cl.ID())
						e, ok := model[key]
						if !ok {
							touched = append(touched, key)
						}
						if !e.seeded && depth > 0 {
							e.seeded, e.n = true, depth
						}
						want := e.n > 0
						if want {
							e.n--
						}
						model[key] = e
						if hit := ns.stock.pop(key, l.depth, &l.stockSlots); hit != want {
							t.Fatalf("step %d: pop of target %d class %d hit=%v, want %v", step, target, cl.ID(), hit, want)
						}
					case op < 16: // a chunk reply refills a pair the node has touched
						if len(touched) == 0 {
							continue
						}
						key := touched[next(len(touched))]
						if e := model[key]; e.n < depth {
							e.n++
							model[key] = e
						}
						ns.stock.refill(key, l.depth, &l.stockSlots)
					case op < 18:
						snaps = append(snaps, snap{l.CaptureRel(0), maps.Clone(model)})
					default:
						if len(snaps) == 0 {
							continue
						}
						s := snaps[next(len(snaps))]
						l.CkptRestoreNode(s.im)
						for k := range model {
							model[k] = s.model[k]
						}
					}

					bytes := 16*nodes + 12*nodes + 16
					for _, e := range model {
						bytes += 8 + 8*e.n
					}
					if got := l.CaptureRel(0).SizeBytes(); got != bytes {
						t.Fatalf("step %d: image of %d bytes, want %d", step, got, bytes)
					}
					if ns.stock.used != len(model) {
						t.Fatalf("step %d: %d slots made, want %d", step, ns.stock.used, len(model))
					}
					for target := range nodes {
						for _, cl := range classes {
							if got, want := l.StockLevel(0, target, cl), model[stockKey(target, cl.ID())].n; got != want {
								t.Fatalf("step %d: level toward %d class %d = %d, want %d", step, target, cl.ID(), got, want)
							}
						}
					}
				}
			})
		}
	}
}

// Host state follows contacts: on 4 096 nodes, a node that has created
// toward a handful of targets holds a table of a few slots, one per pair it
// touched, and a node that has created nothing holds none.
func TestStockTableHoldsOnlyTouchedSlots(t *testing.T) {
	const nodes = 4096
	rt, l := buildSys(t, nodes, core.Options{}, Options{StockDepth: 2, Placement: LocalOnly{}, Seed: 1})
	worker := rt.DefineClass("worker", 0, nil)
	targets := []int{1, 777, 2048, 4000, 4095}
	for _, target := range targets {
		for range 3 {
			l.nodes[0].stock.pop(stockKey(target, worker.ID()), l.depth, &l.stockSlots)
		}
		l.nodes[0].stock.refill(stockKey(target, worker.ID()), l.depth, &l.stockSlots)
	}
	if st := &l.nodes[0].stock; st.used != len(targets) || len(st.slots) != stockMinSlots {
		t.Errorf("node 0 holds %d slots in a table of %d, want %d in %d", st.used, len(st.slots), len(targets), stockMinSlots)
	}
	for _, target := range targets {
		if lvl := l.StockLevel(0, target, worker); lvl != 1 {
			t.Errorf("level toward %d = %d, want 1", target, lvl)
		}
	}
	for i, ns := range l.nodes[1:] {
		if ns.stock.slots != nil {
			t.Fatalf("node %d, which created nothing, holds a table of %d slots", i+1, len(ns.stock.slots))
		}
	}
}
