package remote

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
)

// buildCounterSys returns a 3-node system with a counter class and helpers.
func buildCounterSys(t *testing.T) (*core.Runtime, *Layer, *core.Class, core.PatternID, core.PatternID) {
	t.Helper()
	rt, l := buildSys(t, 3, core.Options{}, DefaultOptions())
	inc := rt.Reg.Register("inc", 0)
	get := rt.Reg.Register("get", 0)
	counter := rt.DefineClass("counter", 1, func(ic *core.InitCtx) {
		ic.SetState(0, core.IntV(0))
	})
	counter.Method(inc, func(ctx *core.Ctx) {
		ctx.SetState(0, core.IntV(ctx.State(0).Int()+1))
	})
	counter.Method(get, func(ctx *core.Ctx) { ctx.Reply(ctx.State(0)) })
	return rt, l, counter, inc, get
}

func TestMigratePreservesState(t *testing.T) {
	rt, l, counter, inc, get := buildCounterSys(t)
	kick := rt.Reg.Register("kick", 0)

	target := rt.NewObjectOn(0, counter)
	var drvAddr core.Address
	var readback int64 = -1
	drv := rt.DefineClass("drv", 0, nil)
	drv.Method(kick, func(ctx *core.Ctx) {
		for i := 0; i < 5; i++ {
			ctx.SendPast(target, inc)
		}
		ctx.SendNow(target, get, nil, func(ctx *core.Ctx, v core.Value) {
			readback = v.Int()
		})
	})
	drvAddr = rt.NewObjectOn(0, drv)
	rt.Inject(drvAddr, kick)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if readback != 5 {
		t.Fatalf("pre-migration count = %d, want 5", readback)
	}

	// Migrate the counter to node 2, then keep using the OLD address.
	var newAddr core.Address
	if err := l.Migrate(target.Obj, 2, func(a core.Address) { newAddr = a }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if newAddr.IsNil() || newAddr.Node != 2 {
		t.Fatalf("migrated to %v, want node 2", newAddr)
	}
	if newAddr.Obj.State(0).Int() != 5 {
		t.Fatalf("migrated state = %v, want 5", newAddr.Obj.State(0))
	}
	if target.Obj.ForwardTarget() != newAddr {
		t.Fatal("old object must forward to the new address")
	}

	// Sends through the stale address must still work.
	readback = -1
	rt.Inject(drvAddr, kick)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if readback != 10 {
		t.Fatalf("post-migration count = %d, want 10", readback)
	}
	c := rt.TotalStats()
	if c.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", c.Migrations)
	}
	if c.Forwards == 0 {
		t.Error("stale-address sends must be forwarded")
	}
}

func TestMigrateBuffersInFlightMessages(t *testing.T) {
	rt, l, counter, inc, get := buildCounterSys(t)
	target := rt.NewObjectOn(0, counter)

	// Defined before the first run freezes the pattern set.
	kick := rt.Reg.Register("kick", 0)
	var got int64 = -1
	drv := rt.DefineClass("drv", 0, nil)
	drv.Method(kick, func(ctx *core.Ctx) {
		ctx.SendNow(target, get, nil, func(ctx *core.Ctx, v core.Value) { got = v.Int() })
	})
	d := rt.NewObjectOn(2, drv)

	// Begin migration, then let messages arrive at the old address before
	// the transfer completes — they must buffer and then forward.
	if err := l.Migrate(target.Obj, 1, nil); err != nil {
		t.Fatal(err)
	}
	n0 := rt.NodeRT(0)
	for i := 0; i < 3; i++ {
		n0.DeliverFrame(target.Obj, &core.Frame{Pattern: inc}, true)
	}
	if target.Obj.QueueLen() != 3 {
		t.Fatalf("mid-transfer queue = %d, want 3 buffered", target.Obj.QueueLen())
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	rt.Inject(d, kick)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("count after flushed migration = %d, want 3", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	rt, l, counter, _, _ := buildCounterSys(t)
	obj := rt.NewObjectOn(0, counter)
	rt.Freeze()

	if err := l.Migrate(obj.Obj, 0, nil); err == nil {
		t.Error("same-node migration must be rejected")
	}
	if err := l.Migrate(obj.Obj, 99, nil); err == nil {
		t.Error("out-of-range target must be rejected")
	}
	chunk := rt.NodeRT(0).NewFaultChunk(0)
	if err := l.Migrate(chunk, 1, nil); err == nil {
		t.Error("chunk migration must be rejected")
	}
}

func TestMigrateNonQuiescentPanics(t *testing.T) {
	rt, l, counter, inc, _ := buildCounterSys(t)
	obj := rt.NewObjectOn(0, counter)
	rt.Freeze()
	// Buffer a message so the object is not quiescent.
	rt.Inject(obj, inc)
	defer func() {
		if recover() == nil {
			t.Fatal("migrating an object with queued work must panic")
		}
	}()
	_ = l.Migrate(obj.Obj, 1, nil)
}

func TestBatchedMigrationPaysBatchExtraction(t *testing.T) {
	// A method on node 0 sends a message to node 1 and then migrates an
	// object there. Batched, the migration record rides second in one
	// packet and, like every later record of a batch, pays the reduced
	// extraction: the forward path costs exactly the difference less.
	forward := func(batch bool) uint64 {
		m := machine.MustNew(machine.DefaultConfig(2))
		prof := profile.New(2, profile.Options{InstrNs: m.Cfg.NsPerInstr()})
		rt := core.NewRuntime(m, core.Options{Prof: prof})
		opt := DefaultOptions()
		if batch {
			opt.BatchWindow = 10 * sim.Microsecond
		}
		l := Attach(rt, opt)
		ping := rt.Reg.Register("ping", 0)
		kick := rt.Reg.Register("kick", 0)
		recv := rt.DefineClass("recv", 0, nil)
		recv.Method(ping, func(*core.Ctx) {})
		target := rt.NewObjectOn(1, recv)
		moved := rt.NewObjectOn(0, rt.DefineClass("moved", 1, nil))
		drv := rt.DefineClass("drv", 0, nil)
		drv.Method(kick, func(ctx *core.Ctx) {
			ctx.SendPast(target, ping)
			if err := l.Migrate(moved.Obj, 1, nil); err != nil {
				t.Error(err)
			}
		})
		rt.Inject(rt.NewObjectOn(0, drv), kick)
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if c := rt.TotalStats(); c.Migrations != 1 || (c.BatchedMsgs == 2) != batch {
			t.Fatalf("batch=%v: migrations=%d batched records=%d", batch, c.Migrations, c.BatchedMsgs)
		}
		for _, ps := range prof.Report().Paths {
			if ps.Path == profile.Forward.String() {
				return ps.Instr
			}
		}
		t.Fatal("no forward-path instructions")
		return 0
	}
	c := machine.DefaultCost()
	if got, want := forward(false)-forward(true), uint64(c.RemoteRecvExtract-c.BatchRecvExtract); got != want {
		t.Errorf("batching saved %d forward-path instructions, want %d (RemoteRecvExtract - BatchRecvExtract)", got, want)
	}
}

func TestMigrateChainForwarding(t *testing.T) {
	// Migrate twice: old -> node1 -> node2; the original address must chase
	// two forwarders and still reach the object.
	rt, l, counter, inc, get := buildCounterSys(t)
	orig := rt.NewObjectOn(0, counter)

	kick := rt.Reg.Register("kick", 0)
	var got int64 = -1
	drv := rt.DefineClass("drv", 0, nil)
	drv.Method(kick, func(ctx *core.Ctx) {
		ctx.SendPast(orig, inc) // through two forwarders
		ctx.SendNow(orig, get, nil, func(ctx *core.Ctx, v core.Value) { got = v.Int() })
	})
	d := rt.NewObjectOn(0, drv)
	rt.Freeze()

	var first core.Address
	if err := l.Migrate(orig.Obj, 1, func(a core.Address) { first = a }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := l.Migrate(first.Obj, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	rt.Inject(d, kick)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("count through forwarder chain = %d, want 1", got)
	}
	if c := rt.TotalStats(); c.Forwards < 4 {
		t.Errorf("forwards = %d, want >= 4 (two messages x two hops)", c.Forwards)
	}
}
