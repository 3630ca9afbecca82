package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestMultiPatternWait exercises a protocol object waiting on several
// patterns at once and dispatching on whichever arrives first.
func TestMultiPatternWait(t *testing.T) {
	r := newTestRT(t, Options{})
	start := r.Reg.Register("start", 0)
	yes := r.Reg.Register("yes", 0)
	no := r.Reg.Register("no", 0)
	kick := r.Reg.Register("kick", 1)

	var got []string
	var wAddr Address
	w := r.DefineClass("w", 0, nil)
	w.Method(start, func(ctx *Ctx) {
		ctx.WaitFor(func(ctx *Ctx, f *Frame) {
			got = append(got, r.Reg.Name(f.Pattern))
			// Wait again for the other answer.
			ctx.WaitFor(func(ctx *Ctx, f *Frame) {
				got = append(got, r.Reg.Name(f.Pattern))
			}, yes, no)
		}, yes, no)
	})
	fd := r.DefineClass("fd", 0, nil)
	fd.Method(kick, func(ctx *Ctx) {
		if ctx.Arg(0).Int() == 0 {
			ctx.SendPast(wAddr, no)
		} else {
			ctx.SendPast(wAddr, yes)
		}
	})

	wAddr = r.NewObjectOn(0, w)
	f := r.NewObjectOn(0, fd)
	r.Inject(wAddr, start)
	r.Inject(f, kick, IntV(0))
	r.Inject(f, kick, IntV(1))
	run(t, r)

	if len(got) != 2 || got[0] != "no" || got[1] != "yes" {
		t.Fatalf("got %v, want [no yes]", got)
	}
}

// TestSequentialWaitProtocol drives a three-phase handshake through nested
// selective receptions.
func TestSequentialWaitProtocol(t *testing.T) {
	r := newTestRT(t, Options{})
	start := r.Reg.Register("start", 0)
	phase1 := r.Reg.Register("phase1", 1)
	phase2 := r.Reg.Register("phase2", 1)
	kick := r.Reg.Register("kick", 0)

	var sum int64
	var wAddr Address
	w := r.DefineClass("w", 0, nil)
	w.Method(start, func(ctx *Ctx) {
		ctx.WaitFor(func(ctx *Ctx, f1 *Frame) {
			ctx.WaitFor(func(ctx *Ctx, f2 *Frame) {
				sum = f1.Arg(0).Int() + f2.Arg(0).Int()
			}, phase2)
		}, phase1)
	})
	fd := r.DefineClass("fd", 0, nil)
	fd.Method(kick, func(ctx *Ctx) {
		// Out of order: phase2 first (buffers), then phase1 (restores; the
		// nested wait finds phase2 already queued — the fast path).
		ctx.SendPast(wAddr, phase2, IntV(2))
		ctx.SendPast(wAddr, phase1, IntV(1))
	})

	wAddr = r.NewObjectOn(0, w)
	f := r.NewObjectOn(0, fd)
	r.Inject(wAddr, start)
	r.Inject(f, kick)
	run(t, r)

	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
	c := r.TotalStats()
	if c.WaitFast != 1 || c.WaitBlocked != 1 {
		t.Errorf("wait fast/blocked = %d/%d, want 1/1", c.WaitFast, c.WaitBlocked)
	}
}

// TestRestoreDeferredByStackDepth drives the depth-preemption branch of the
// waiting-table restoration entry: the awaited message arrives while the
// stack is deep, so the restoration detours through the scheduling queue.
func TestRestoreDeferredByStackDepth(t *testing.T) {
	r := newTestRT(t, Options{MaxStackDepth: 4})
	start := r.Reg.Register("start", 0)
	data := r.Reg.Register("data", 1)
	chainP := r.Reg.Register("chain", 1)

	var got int64 = -1
	var wAddr Address
	w := r.DefineClass("w", 0, nil)
	w.Method(start, func(ctx *Ctx) {
		ctx.WaitFor(func(ctx *Ctx, f *Frame) { got = f.Arg(0).Int() }, data)
	})
	// A chain of dormant objects that bottoms out by sending the awaited
	// data — at that point the stack is already at the bound.
	var chain *Class
	chain = r.DefineClass("chain", 0, nil)
	chain.Method(chainP, func(ctx *Ctx) {
		d := ctx.Arg(0).Int()
		if d == 0 {
			ctx.SendPast(wAddr, data, IntV(42))
			return
		}
		next := ctx.NewLocal(chain)
		ctx.SendPast(next, chainP, IntV(d-1))
	})

	wAddr = r.NewObjectOn(0, w)
	head := r.NewObjectOn(0, chain)
	r.Inject(wAddr, start)
	r.Inject(head, chainP, IntV(3))
	run(t, r)

	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

// TestReplyDeferredByStackDepth exercises the reply-destination resume
// detour through the scheduling queue when the stack is deep.
func TestReplyDeferredByStackDepth(t *testing.T) {
	r := newTestRT(t, Options{MaxStackDepth: 3})
	start := r.Reg.Register("start", 0)
	ask := r.Reg.Register("ask", 0)
	chainP := r.Reg.Register("chain", 1)

	var got int64 = -1
	var svcAddr, sAddr Address
	// svc replies via a dormant chain so the reply lands at high depth.
	var chain *Class
	chain = r.DefineClass("chain", 0, nil)
	chain.Method(chainP, func(ctx *Ctx) {
		d := ctx.Arg(0).Int()
		if d == 0 {
			// Reply on behalf of svc: the reply destination was forwarded.
			ctx.Reply(IntV(7))
			return
		}
		next := ctx.NewLocal(chain)
		ctx.SendWithReply(next, chainP, []Value{IntV(d - 1)}, ctx.ReplyTo())
	})
	svc := r.DefineClass("svc", 0, nil)
	svc.Method(ask, func(ctx *Ctx) {
		head := ctx.NewLocal(chain)
		ctx.SendWithReply(head, chainP, []Value{IntV(5)}, ctx.ReplyTo())
	})
	s := r.DefineClass("s", 0, nil)
	s.Method(start, func(ctx *Ctx) {
		ctx.SendNow(svcAddr, ask, nil, func(ctx *Ctx, v Value) { got = v.Int() })
	})

	svcAddr = r.NewObjectOn(0, svc)
	sAddr = r.NewObjectOn(0, s)
	r.Inject(sAddr, start)
	run(t, r)

	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	if c := r.TotalStats(); c.Preemptions == 0 {
		t.Error("expected depth preemptions in this configuration")
	}
}

func TestYieldChainFairness(t *testing.T) {
	// Two loopers yielding to each other must interleave via the scheduling
	// queue rather than one monopolizing the node.
	r := newTestRT(t, Options{})
	start := r.Reg.Register("start", 1)

	var order []int64
	looper := r.DefineClass("looper", 1, func(ic *InitCtx) { ic.SetState(0, ic.CtorArg(0)) })
	var loop func(ctx *Ctx, rounds int64)
	loop = func(ctx *Ctx, rounds int64) {
		order = append(order, ctx.State(0).Int())
		if rounds == 0 {
			return
		}
		ctx.Yield(func(ctx *Ctx) { loop(ctx, rounds-1) })
	}
	looper.Method(start, func(ctx *Ctx) { loop(ctx, ctx.Arg(0).Int()) })

	a := r.NewObjectOn(0, looper, IntV(1))
	b := r.NewObjectOn(0, looper, IntV(2))
	r.Inject(a, start, IntV(3))
	r.Inject(b, start, IntV(3))
	run(t, r)

	// Expect strict alternation 1,2,1,2,...
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		want := int64(1 + i%2)
		if v != want {
			t.Fatalf("no alternation: %v", order)
		}
	}
}

func TestCtxAccessors(t *testing.T) {
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRuntime(m, Options{})
	probe := r.Reg.Register("probe", 2)
	checked := false
	cls := r.DefineClass("cls", 1, nil)
	cls.Method(probe, func(ctx *Ctx) {
		checked = true
		if ctx.NodeID() != 1 {
			t.Errorf("NodeID = %d, want 1", ctx.NodeID())
		}
		if ctx.Nodes() != 2 {
			t.Errorf("Nodes = %d, want 2", ctx.Nodes())
		}
		if ctx.Pattern() != probe {
			t.Errorf("Pattern = %v", ctx.Pattern())
		}
		if ctx.NumArgs() != 2 {
			t.Errorf("NumArgs = %d", ctx.NumArgs())
		}
		if ctx.Now() <= 0 {
			t.Error("Now must be positive after dispatch costs")
		}
		if ctx.Blocked() {
			t.Error("fresh ctx must not be blocked")
		}
		if ctx.Self().Node != 1 {
			t.Error("Self address node wrong")
		}
		if ctx.SelfObject().Class() != cls {
			t.Error("SelfObject class wrong")
		}
		if ctx.SelfObject().NodeID() != 1 {
			t.Error("object NodeID wrong")
		}
		if ctx.CurrentFrame().Pattern != probe {
			t.Error("CurrentFrame wrong")
		}
		if ctx.NodeRT().ID() != 1 {
			t.Error("NodeRT id wrong")
		}
	})
	o := r.NewObjectOn(1, cls)
	r.Inject(o, probe, IntV(1), IntV(2))
	run(t, r)
	if !checked {
		t.Fatal("probe never ran")
	}
}

func TestRuntimeAccessors(t *testing.T) {
	r := newTestRT(t, Options{Policy: PolicyNaive, MaxStackDepth: 7})
	if r.Policy() != PolicyNaive {
		t.Error("Policy accessor")
	}
	if r.MaxStackDepth() != 7 {
		t.Error("MaxStackDepth accessor")
	}
	if r.Frozen() {
		t.Error("fresh runtime must not be frozen")
	}
	r.Freeze()
	if !r.Frozen() || !r.Reg.Frozen() {
		t.Error("freeze must propagate")
	}
	if r.Nodes() != 1 {
		t.Error("Nodes accessor")
	}
	if _, ok := r.RemoteLayer().(defaultRemote); !ok {
		t.Error("default remote layer expected")
	}
	if PolicyStackBased.String() != "stack" || PolicyNaive.String() != "naive" {
		t.Error("policy names")
	}
}

func TestDefaultRemotePanicsOnRemoteSend(t *testing.T) {
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRuntime(m, Options{})
	ping := r.Reg.Register("ping", 0)
	cls := r.DefineClass("cls", 0, nil)
	cls.Method(ping, func(ctx *Ctx) {})
	var target Address
	drv := r.DefineClass("drv", 0, nil)
	kick := r.Reg.Register("kick", 0)
	drv.Method(kick, func(ctx *Ctx) { ctx.SendPast(target, ping) })
	target = r.NewObjectOn(1, cls)
	d := r.NewObjectOn(0, drv)
	r.Inject(d, kick)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "no remote layer") {
			t.Fatalf("expected no-remote-layer panic, got %q", msg)
		}
	}()
	run(t, r)
}

func TestDefaultRemoteCreateIsLocal(t *testing.T) {
	r := newTestRT(t, Options{})
	kick := r.Reg.Register("kick", 0)
	nop := r.Reg.Register("nop", 0)
	leaf := r.DefineClass("leaf", 0, nil)
	leaf.Method(nop, func(ctx *Ctx) {})
	var created Address
	drv := r.DefineClass("drv", 0, nil)
	drv.Method(kick, func(ctx *Ctx) {
		ctx.Create(leaf, nil, func(ctx *Ctx, a Address) { created = a })
	})
	d := r.NewObjectOn(0, drv)
	r.Inject(d, kick)
	run(t, r)
	if created.IsNil() || created.Node != 0 {
		t.Fatalf("default create placed at %v, want local node 0", created)
	}
}

func TestInitChunkValidation(t *testing.T) {
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRuntime(m, Options{})
	cls := r.DefineClass("cls", 0, nil)
	r.Freeze()

	chunk := r.NodeRT(1).NewFaultChunk(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("InitChunk on wrong node must panic")
			}
		}()
		r.InitChunk(r.NodeRT(0), chunk, cls, nil)
	}()
	r.InitChunk(r.NodeRT(1), chunk, cls, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double InitChunk must panic")
			}
		}()
		r.InitChunk(r.NodeRT(1), chunk, cls, nil)
	}()
}

func TestAddressStringAndHelpers(t *testing.T) {
	if !NilAddress.IsNil() {
		t.Error("NilAddress must be nil")
	}
	if got := NilAddress.String(); got != "addr(nil)" {
		t.Errorf("nil address renders %q", got)
	}
	r := newTestRT(t, Options{})
	cls := r.DefineClass("widget", 0, nil)
	a := r.NewObjectOn(0, cls)
	s := a.String()
	if !strings.Contains(s, "widget") || !strings.Contains(s, "n0") {
		t.Errorf("address string %q lacks class/node", s)
	}
	if a.Obj.IsReplyDest() {
		t.Error("plain object is not a reply destination")
	}
	if cls.Understands(NoPattern) {
		t.Error("NoPattern must never be understood")
	}
}

func TestClassUnderstands(t *testing.T) {
	r := newTestRT(t, Options{})
	a := r.Reg.Register("a", 0)
	b := r.Reg.Register("b", 0)
	cls := r.DefineClass("c", 0, nil)
	cls.Method(a, func(ctx *Ctx) {})
	if !cls.Understands(a) || cls.Understands(b) {
		t.Error("Understands before freeze")
	}
	r.Freeze()
	if !cls.Understands(a) || cls.Understands(b) {
		t.Error("Understands after freeze")
	}
	if cls.Understands(PatternID(99)) {
		t.Error("out of range must be false")
	}
}

func TestDuplicateMethodPanics(t *testing.T) {
	r := newTestRT(t, Options{})
	a := r.Reg.Register("a", 0)
	cls := r.DefineClass("c", 0, nil)
	cls.Method(a, func(ctx *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate method must panic")
		}
	}()
	cls.Method(a, func(ctx *Ctx) {})
}

func TestNilMethodBodyPanics(t *testing.T) {
	r := newTestRT(t, Options{})
	a := r.Reg.Register("a", 0)
	cls := r.DefineClass("c", 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("nil body must panic")
		}
	}()
	cls.Method(a, nil)
}

func TestNegativeStateSizePanics(t *testing.T) {
	r := newTestRT(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative state size must panic")
		}
	}()
	r.DefineClass("c", -1, nil)
}

func TestInitCtxAccessors(t *testing.T) {
	r := newTestRT(t, Options{})
	m := r.Reg.Register("m", 0)
	var numArgs int
	var second Value
	cls := r.DefineClass("c", 2, func(ic *InitCtx) {
		numArgs = ic.NumCtorArgs()
		second = ic.CtorArg(1)
		ic.SetState(0, ic.CtorArg(0))
		ic.SetState(1, ic.State(0)) // read back through InitCtx
	})
	cls.Method(m, func(ctx *Ctx) {})
	o := r.NewObjectOn(0, cls, IntV(5), StrV("x"))
	r.Inject(o, m)
	run(t, r)
	if numArgs != 2 || second.Str() != "x" {
		t.Errorf("ctor args: n=%d second=%v", numArgs, second)
	}
	if o.Obj.State(1).Int() != 5 {
		t.Error("InitCtx.State read-back failed")
	}
	if !o.Obj.Class().Understands(m) {
		t.Error("class accessor")
	}
}

func TestWaitForEmptyPatternsPanics(t *testing.T) {
	r := newTestRT(t, Options{})
	start := r.Reg.Register("start", 0)
	cls := r.DefineClass("c", 0, nil)
	cls.Method(start, func(ctx *Ctx) {
		ctx.WaitFor(func(ctx *Ctx, f *Frame) {})
	})
	o := r.NewObjectOn(0, cls)
	r.Inject(o, start)
	defer func() {
		if recover() == nil {
			t.Fatal("WaitFor with no patterns must panic")
		}
	}()
	run(t, r)
}

func TestSendToNilAddressPanics(t *testing.T) {
	r := newTestRT(t, Options{})
	start := r.Reg.Register("start", 0)
	cls := r.DefineClass("c", 0, nil)
	cls.Method(start, func(ctx *Ctx) {
		ctx.SendPast(NilAddress, start)
	})
	o := r.NewObjectOn(0, cls)
	r.Inject(o, start)
	defer func() {
		if recover() == nil {
			t.Fatal("send to nil address must panic")
		}
	}()
	run(t, r)
}

func TestNaiveWithFaultChunk(t *testing.T) {
	// Under the naive policy, messages buffered into an uninitialized chunk
	// must still be processed after InitChunk.
	r := newTestRT(t, Options{Policy: PolicyNaive})
	m := r.Reg.Register("m", 1)
	var got []int64
	cls := r.DefineClass("late", 0, nil)
	cls.Method(m, func(ctx *Ctx) { got = append(got, ctx.Arg(0).Int()) })
	r.Freeze()

	chunk := r.NodeRT(0).NewFaultChunk(0)
	n := r.NodeRT(0)
	n.DeliverFrame(chunk, argFrame(m, IntV(1)), true)
	n.DeliverFrame(chunk, argFrame(m, IntV(2)), true)
	r.InitChunk(n, chunk, cls, nil)
	run(t, r)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestModeObservations(t *testing.T) {
	r := newTestRT(t, Options{})
	m := r.Reg.Register("m", 0)
	withInit := r.DefineClass("wi", 1, func(ic *InitCtx) { ic.SetState(0, IntV(0)) })
	withInit.Method(m, func(ctx *Ctx) {})
	noInit := r.DefineClass("ni", 0, nil)
	noInit.Method(m, func(ctx *Ctx) {})

	// Pre-freeze objects report their initial mode without tables.
	a := r.NewObjectOn(0, withInit)
	b := r.NewObjectOn(0, noInit)
	if a.Obj.Mode() != ModeNeedInit || b.Obj.Mode() != ModeDormant {
		t.Fatalf("pre-freeze modes: %v %v", a.Obj.Mode(), b.Obj.Mode())
	}
	r.Freeze()
	chunk := r.NodeRT(0).NewFaultChunk(0)
	if chunk.Mode() != ModeUninit {
		t.Fatal("chunk mode")
	}
	r.Inject(a, m)
	run(t, r)
	if a.Obj.Mode() != ModeDormant {
		t.Fatalf("post-run mode %v, want dormant", a.Obj.Mode())
	}
	// Mode string rendering.
	for mode, want := range map[Mode]string{
		ModeDormant: "dormant", ModeActive: "active", ModeWaiting: "waiting",
		ModeUninit: "uninit", ModeNeedInit: "needinit",
	} {
		if mode.String() != want {
			t.Errorf("mode %d renders %q", mode, mode.String())
		}
	}
}
