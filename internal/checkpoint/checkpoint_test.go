package checkpoint

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/remote"
)

// Objects and chunks are carved from arenas that only grow: a
// rollback forgets what was created after the snapshot — the suffix of each
// node's hosted list, and with it the suffix's share of every later image —
// but never hands a forgotten object's slot out again: nothing rewinds an
// arena, so an address of the abandoned timeline can never come to name an
// object of the restored one. Snapshot, create past it, restore, create
// again — the snapshot a direct capture of the quiescent machine, the
// rollback the one a restarting node performs.
func TestRestoreForgetsLaterObjectsNotTheirSlots(t *testing.T) {
	const nodes, target = 3, 1
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(m, core.Options{})
	l := remote.Attach(rt, remote.Options{StockDepth: 2, Reliable: true, Seed: 1})
	g := New(rt, l, 0)

	spawn := rt.Reg.Register("spawn", 1) // how many cells to create on the target
	set := rt.Reg.Register("set", 1)
	cell := rt.DefineClass("cell", 1, func(ic *core.InitCtx) { ic.SetState(0, ic.CtorArg(0)) })
	cell.Method(set, func(ctx *core.Ctx) { ctx.SetState(0, ctx.Arg(0)) })
	// The maker creates its cells one after another — the stock holds two
	// chunks, so longer bursts also take the blocking path — and tells each
	// its index. State 0 is the count still to create; made is the test's
	// own record, reset per burst.
	var made []core.Address
	maker := rt.DefineClass("maker", 1, nil)
	ctorArgs := []core.Value{core.IntV(-1)}
	var next func(*core.Ctx, core.Address)
	next = func(ctx *core.Ctx, addr core.Address) {
		made = append(made, addr)
		ctx.SendPast(addr, set, core.IntV(int64(len(made))))
		left := ctx.State(0).Int() - 1
		ctx.SetState(0, core.IntV(left))
		if left > 0 {
			l.CreateOn(ctx, target, cell, ctorArgs, next)
		}
	}
	maker.Method(spawn, func(ctx *core.Ctx) {
		ctx.SetState(0, ctx.Arg(0))
		l.CreateOn(ctx, target, cell, ctorArgs, next)
	})
	mk := rt.NewObjectOn(0, maker)
	g.Start(nil)

	run := func() {
		t.Helper()
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst := func(k int) []core.Address {
		t.Helper()
		made = nil
		rt.Inject(mk, spawn, core.IntV(int64(k)))
		run()
		if len(made) != k {
			t.Fatalf("burst made %d cells, want %d", len(made), k)
		}
		for i, a := range made {
			if got := a.Obj.State(0).Int(); got != int64(i+1) {
				t.Fatalf("cell %d holds %d, want %d", i, got, i+1)
			}
		}
		return made
	}
	// image captures every node as a snapshot round would, without promoting
	// the result: hosted objects per node and the modelled stable-store bytes.
	image := func() (objects []int, bytes int) {
		for i := 0; i < nodes; i++ {
			ci := rt.CaptureNode(i)
			objects = append(objects, ci.Objects())
			bytes += ci.SizeBytes() + l.CaptureRel(i).SizeBytes()
		}
		return objects, bytes
	}

	kept := burst(5)
	snap := g.capture(1, m.MaxClock())
	g.stable = snap
	objsAtSnap, bytesAtSnap := image()
	stockAtSnap := l.StockLevel(0, target, cell)
	if bytesAtSnap != snap.SizeBytes() {
		t.Fatalf("direct capture reads %d bytes, the snapshot %d", bytesAtSnap, snap.SizeBytes())
	}

	forgotten := burst(7)
	objsPast, bytesPast := image()
	if objsPast[target] < objsAtSnap[target]+7 || bytesPast <= bytesAtSnap {
		t.Fatalf("creating past the snapshot grew node %d from %d to %d objects, the image from %d to %d bytes",
			target, objsAtSnap[target], objsPast[target], bytesAtSnap, bytesPast)
	}

	g.restore(m.MaxClock(), target)
	run()
	if objs, bytes := image(); !reflect.DeepEqual(objs, objsAtSnap) || bytes != bytesAtSnap {
		t.Errorf("after the rollback: %v objects, %d bytes; the snapshot held %v, %d", objs, bytes, objsAtSnap, bytesAtSnap)
	}
	for i, a := range kept {
		if got := a.Obj.State(0).Int(); got != int64(i+1) {
			t.Errorf("pre-snapshot cell %d holds %d after the rollback, want %d", i, got, i+1)
		}
	}

	again := burst(7)
	if objs, bytes := image(); !reflect.DeepEqual(objs, objsPast) || bytes != bytesPast {
		t.Errorf("the re-run timeline images as %v objects, %d bytes; the abandoned one as %v, %d", objs, bytes, objsPast, bytesPast)
	}
	// The chunks the stock held at the snapshot are pre-snapshot objects: the
	// rollback hands them back, the same ones in the same order, so the first
	// cells of the two timelines may coincide — identity is the mail address
	// and survives a restore. Every other cell is a fresh allocation.
	taken := make(map[*core.Object]string)
	for _, a := range kept {
		taken[a.Obj] = "a pre-snapshot cell"
	}
	for _, a := range forgotten {
		taken[a.Obj] = "a rolled-back cell"
	}
	restocked := 0
	for i, a := range again {
		if a.Obj == forgotten[i].Obj {
			restocked++
		} else if what, dup := taken[a.Obj]; dup {
			t.Errorf("cell %d created after the rollback aliases %s", i, what)
		}
	}
	if restocked > stockAtSnap {
		t.Errorf("%d cells of the re-run timeline reuse the abandoned timeline's objects; the stock held only %d chunks at the snapshot",
			restocked, stockAtSnap)
	}
}

// A creation that misses saves its creator's context in a record its
// request and reply carry. Checkpoint retention may replay both after the
// creator has resumed, so under checkpointing that record is never
// recycled: were it handed to a later creation, the replayed reply would
// resume that creation instead. Here the maker's creation misses (a stock
// of depth 0), a snapshot is taken while its request is in flight, and the
// maker's continuation sets a second object creating; while that one is
// blocked on its own miss, node 1 restarts and the machine rolls back to
// the snapshot. The retained request is replayed, and the maker must resume
// exactly once more, with the address of the object the replayed request
// created, and the other creator exactly once, with its own.
func TestReplayedMissResumesItsCreator(t *testing.T) {
	const target = 1
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(m, core.Options{})
	l := remote.Attach(rt, remote.Options{StockDepth: 0, Reliable: true, Seed: 1})
	g := New(rt, l, 0)

	spawn := rt.Reg.Register("spawn", 0)
	cell := rt.DefineClass("cell", 0, nil)
	var makerAt, otherAt []core.Address // the addresses each creator resumed with
	restored, snapped := false, false
	other := rt.DefineClass("other", 0, nil)
	other.Method(spawn, func(ctx *core.Ctx) {
		l.CreateOn(ctx, target, cell, nil, func(_ *core.Ctx, a core.Address) { otherAt = append(otherAt, a) })
		if !restored {
			restored = true
			at := ctx.Now()
			m.Eng.ScheduleFuncOn(0, at, func() { g.restore(at, target) })
		}
	})
	oth := rt.NewObjectOn(0, other)
	maker := rt.DefineClass("maker", 0, nil)
	maker.Method(spawn, func(ctx *core.Ctx) {
		l.CreateOn(ctx, target, cell, nil, func(ctx *core.Ctx, a core.Address) {
			makerAt = append(makerAt, a)
			ctx.SendPast(oth, spawn)
		})
		if !snapped {
			snapped = true
			at := ctx.Now()
			m.Eng.ScheduleFuncOn(0, at, func() { g.stable = g.capture(1, at) })
		}
	})
	mk := rt.NewObjectOn(0, maker)
	rt.Inject(mk, spawn)
	g.Start(nil)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	c := rt.TotalStats()
	if !restored || c.NodeRestarts != 1 || c.ReplayedMsgs == 0 {
		t.Fatalf("restored=%v restarts=%d replayed=%d, want a rollback that replays the maker's request",
			restored, c.NodeRestarts, c.ReplayedMsgs)
	}
	if c.StockMisses != 3 {
		t.Errorf("%d stock misses, want 3: the maker's, the other's, and the other's again after the rollback", c.StockMisses)
	}
	// Before the rollback: the maker resumed once and the other blocked.
	// After it: the replayed request created a fresh cell, the maker resumed
	// with it, and the other, told again, resumed with a cell of its own.
	if len(makerAt) != 2 || len(otherAt) != 1 {
		t.Fatalf("the maker resumed %d times and the other %d, want 2 and 1", len(makerAt), len(otherAt))
	}
	replayed := makerAt[1]
	if replayed.Obj == makerAt[0].Obj || replayed.Node != target || replayed.Obj.Class() != cell {
		t.Errorf("the maker resumed after the rollback with %+v (before it %+v), want a fresh cell on node %d",
			replayed, makerAt[0], target)
	}
	if own := otherAt[0]; own.Obj == replayed.Obj || own.Obj == makerAt[0].Obj || own.Obj.Class() != cell {
		t.Errorf("the other creator resumed with %+v, want a cell of its own", own)
	}
}
