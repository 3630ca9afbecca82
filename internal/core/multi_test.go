package core

import (
	"strings"
	"testing"
)

// echoClass defines a serial responder whose req method yields once before
// replying, so a now-type send against it always blocks the caller: the
// reply arrives only after a trip through the scheduling queue. Tests use it
// to keep several invocations of a multiactive object live at once.
func echoClass(r *Runtime, req PatternID) *Class {
	cls := r.DefineClass("echo", 0, nil)
	cls.Method(req, func(ctx *Ctx) {
		v := ctx.Arg(0)
		ctx.Yield(func(ctx *Ctx) {
			ctx.Reply(v)
		})
	})
	return cls
}

func TestMultiactiveSameGroupOverlaps(t *testing.T) {
	// Three invocations of one compatibility group on one object: each
	// blocks on a now-send, and all three must be live simultaneously
	// (started immediately, none parked) — the serial scheme would run them
	// strictly one at a time.
	r := newTestRT(t, Options{})
	get := r.Reg.Register("get", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	var done []string
	maxLive := 0

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		if l := ctx.SelfObject().LiveInvocations(); l > maxLive {
			maxLive = l
		}
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) {
			done = append(done, "get")
		})
	})
	hot.Group("reads", get)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			ctx.SendPast(hotAddr, get)
		}
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)
	run(t, r)

	if len(done) != 3 {
		t.Fatalf("completions = %v, want 3 gets", done)
	}
	if maxLive != 3 {
		t.Errorf("max live invocations = %d, want 3 (reads must overlap)", maxLive)
	}
	c := r.TotalStats()
	if c.MultiImmediate != 3 || c.MultiParked != 0 {
		t.Errorf("immediate/parked = %d/%d, want 3/0", c.MultiImmediate, c.MultiParked)
	}
	if c.LocalToMulti != 3 {
		t.Errorf("LocalToMulti = %d, want 3", c.LocalToMulti)
	}
	if hotAddr.Obj.LiveInvocations() != 0 || hotAddr.Obj.ReadyLen() != 0 {
		t.Errorf("quiescent object has live=%d ready=%d",
			hotAddr.Obj.LiveInvocations(), hotAddr.Obj.ReadyLen())
	}
	if hotAddr.Obj.Mode() != ModeMultiactive {
		t.Errorf("mode = %v, want multiactive", hotAddr.Obj.Mode())
	}
}

func TestMultiactiveConflictingGroupsSerialize(t *testing.T) {
	// get/get overlap (same group) but put conflicts with them: it must park
	// until every read has completed, then dispatch through the scheduler.
	r := newTestRT(t, Options{})
	get := r.Reg.Register("get", 0)
	put := r.Reg.Register("put", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	var log []string

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) {
			log = append(log, "get")
		})
	})
	hot.Method(put, func(ctx *Ctx) {
		log = append(log, "put")
	})
	hot.Group("reads", get).Group("writes", put)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		ctx.SendPast(hotAddr, get)
		ctx.SendPast(hotAddr, put) // conflicts with the live read: parks
		ctx.SendPast(hotAddr, get) // compatible with the live read: starts
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)
	run(t, r)

	if got := strings.Join(log, ","); got != "get,get,put" {
		t.Fatalf("completion order = %q, want \"get,get,put\"", got)
	}
	c := r.TotalStats()
	if c.MultiImmediate != 2 || c.MultiParked != 1 || c.MultiDispatches != 1 {
		t.Errorf("immediate/parked/dispatched = %d/%d/%d, want 2/1/1",
			c.MultiImmediate, c.MultiParked, c.MultiDispatches)
	}
}

func TestMultiactiveUngroupedIsExclusive(t *testing.T) {
	// A method left out of every group conflicts with everything, including
	// other invocations of itself.
	r := newTestRT(t, Options{})
	get := r.Reg.Register("get", 0)
	audit := r.Reg.Register("audit", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	var log []string

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) {
			log = append(log, "get")
		})
	})
	hot.Method(audit, func(ctx *Ctx) {
		if ctx.SelfObject().LiveInvocations() != 1 {
			t.Errorf("audit ran with %d live invocations, want 1 (exclusive)",
				ctx.SelfObject().LiveInvocations())
		}
		log = append(log, "audit")
	})
	hot.Group("reads", get)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		ctx.SendPast(hotAddr, get)
		ctx.SendPast(hotAddr, audit)
		ctx.SendPast(hotAddr, audit)
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)
	run(t, r)

	if got := strings.Join(log, ","); got != "get,audit,audit" {
		t.Fatalf("completion order = %q, want \"get,audit,audit\"", got)
	}
}

func TestMultiactivePriorityOrder(t *testing.T) {
	// Park two frames in each of two groups behind a live exclusive
	// invocation: under strict priority the high-priority group drains
	// first.
	r := newTestRT(t, Options{})
	ma := r.Reg.Register("ma", 0)
	mb := r.Reg.Register("mb", 0)
	me := r.Reg.Register("me", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	var log []string

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(ma, func(ctx *Ctx) { log = append(log, "a") })
	hot.Method(mb, func(ctx *Ctx) { log = append(log, "b") })
	hot.Method(me, func(ctx *Ctx) {
		// Exclusive: holds the object while the driver parks work.
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) {})
	})
	hot.Group("a", ma).Group("b", mb).Priority("b", 5)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		ctx.SendPast(hotAddr, me)
		ctx.SendPast(hotAddr, ma)
		ctx.SendPast(hotAddr, ma)
		ctx.SendPast(hotAddr, mb)
		ctx.SendPast(hotAddr, mb)
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)
	run(t, r)
	if got := strings.Join(log, ","); got != "b,b,a,a" {
		t.Errorf("strict priority order = %q, want \"b,b,a,a\"", got)
	}
}

func TestMultiactiveNaivePolicy(t *testing.T) {
	// Under the naive baseline every multiactive delivery parks first, but
	// compatible invocations must still overlap once dispatched.
	r := newTestRT(t, Options{PolicyNaive, 0, nil})
	get := r.Reg.Register("get", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	maxLive, done := 0, 0

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		if l := ctx.SelfObject().LiveInvocations(); l > maxLive {
			maxLive = l
		}
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) { done++ })
	})
	hot.Group("reads", get)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			ctx.SendPast(hotAddr, get)
		}
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)
	run(t, r)

	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	if maxLive != 3 {
		t.Errorf("max live = %d, want 3", maxLive)
	}
	c := r.TotalStats()
	if c.MultiParked != 3 || c.MultiDispatches != 3 {
		t.Errorf("parked/dispatched = %d/%d, want 3/3", c.MultiParked, c.MultiDispatches)
	}
}

func TestMultiactiveLazyInitDrainsIntoGroups(t *testing.T) {
	// A multiactive class with a lazy initializer starts in need-init mode;
	// the first message initializes state and dispatches through the
	// multiactive table, and buffered pre-init frames drain correctly.
	r := newTestRT(t, Options{})
	get := r.Reg.Register("get", 0)
	kick := r.Reg.Register("kick", 0)

	var hotAddr Address
	var got []int
	hot := r.DefineClass("hot", 1, func(ic *InitCtx) {
		ic.SetState(0, IntV(41))
	})
	hot.Method(get, func(ctx *Ctx) {
		got = append(got, int(ctx.State(0).Int()))
	})
	hot.Group("reads", get)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		ctx.SendPast(hotAddr, get)
		ctx.SendPast(hotAddr, get)
	})

	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	if hotAddr.Obj.Mode() != ModeNeedInit {
		t.Fatalf("pre-first-message mode = %v, want needinit", hotAddr.Obj.Mode())
	}
	r.Inject(d, kick)
	run(t, r)

	if len(got) != 2 || got[0] != 41 || got[1] != 41 {
		t.Fatalf("reads = %v, want [41 41]", got)
	}
	if hotAddr.Obj.Mode() != ModeMultiactive {
		t.Errorf("post-init mode = %v, want multiactive", hotAddr.Obj.Mode())
	}
}

func TestMultiactiveWaitForPanics(t *testing.T) {
	r := newTestRT(t, Options{})
	get := r.Reg.Register("get", 0)
	kick := r.Reg.Register("kick", 0)

	var hotAddr Address
	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		ctx.WaitFor(func(ctx *Ctx, f *Frame) {}, kick)
	})
	hot.Group("reads", get)

	hotAddr = r.NewObjectOn(0, hot)
	r.Inject(hotAddr, get)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("WaitFor on a multiactive object must panic")
		}
		if !strings.Contains(p.(string), "selective reception") {
			t.Fatalf("panic = %v, want selective-reception message", p)
		}
	}()
	run(t, r)
}

func TestGroupDefinitionErrors(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			p := recover()
			if p == nil {
				t.Fatalf("no panic, want one containing %q", want)
			}
			if s, ok := p.(string); !ok || !strings.Contains(s, want) {
				t.Fatalf("panic = %v, want message containing %q", p, want)
			}
		}()
		fn()
	}

	t.Run("overlap", func(t *testing.T) {
		r := newTestRT(t, Options{})
		get := r.Reg.Register("get", 0)
		cls := r.DefineClass("c", 0, nil).Method(get, func(ctx *Ctx) {})
		cls.Group("a", get)
		mustPanic(t, "overlapping groups", func() { cls.Group("b", get) })
	})
	t.Run("duplicate-name", func(t *testing.T) {
		r := newTestRT(t, Options{})
		get := r.Reg.Register("get", 0)
		put := r.Reg.Register("put", 0)
		cls := r.DefineClass("c", 0, nil).
			Method(get, func(ctx *Ctx) {}).
			Method(put, func(ctx *Ctx) {})
		cls.Group("a", get)
		mustPanic(t, "duplicate group", func() { cls.Group("a", put) })
	})
	t.Run("empty", func(t *testing.T) {
		r := newTestRT(t, Options{})
		cls := r.DefineClass("c", 0, nil)
		mustPanic(t, "declares no patterns", func() { cls.Group("a") })
	})
	t.Run("unknown-pattern-at-freeze", func(t *testing.T) {
		// A group over a pattern with no method is a definition error caught
		// when the tables are generated.
		r := newTestRT(t, Options{})
		get := r.Reg.Register("get", 0)
		ghost := r.Reg.Register("ghost", 0)
		r.DefineClass("c", 0, nil).
			Method(get, func(ctx *Ctx) {}).
			Group("a", get, ghost)
		mustPanic(t, "no method", func() { r.Freeze() })
	})
	t.Run("priority-before-group", func(t *testing.T) {
		r := newTestRT(t, Options{})
		cls := r.DefineClass("c", 0, nil)
		mustPanic(t, "before Group", func() { cls.Priority("a", 1) })
	})
	t.Run("group-after-freeze", func(t *testing.T) {
		r := newTestRT(t, Options{})
		get := r.Reg.Register("get", 0)
		cls := r.DefineClass("c", 0, nil).Method(get, func(ctx *Ctx) {})
		r.Freeze()
		mustPanic(t, "after freeze", func() { cls.Group("a", get) })
	})
}

func TestMultiactiveSnapshotRestoresMidGroup(t *testing.T) {
	// Capture a node while a multiactive object has a live blocked
	// invocation and a parked conflicting frame; restoring must bring back
	// the live counts and ready queues, and the computation must finish
	// identically after a rollback.
	r := newTestRT(t, Options{})
	r.EnableSnapshots()
	get := r.Reg.Register("get", 0)
	put := r.Reg.Register("put", 0)
	req := r.Reg.Register("req", 1)
	kick := r.Reg.Register("kick", 0)

	echo := echoClass(r, req)
	var echoAddr, hotAddr Address
	var log []string

	hot := r.DefineClass("hot", 0, nil)
	hot.Method(get, func(ctx *Ctx) {
		ctx.SendNow(echoAddr, req, []Value{IntV(1)}, func(ctx *Ctx, v Value) {
			log = append(log, "get")
		})
	})
	hot.Method(put, func(ctx *Ctx) { log = append(log, "put") })
	hot.Group("reads", get).Group("writes", put)

	driver := r.DefineClass("driver", 0, nil)
	driver.Method(kick, func(ctx *Ctx) {
		ctx.SendPast(hotAddr, get)
		ctx.SendPast(hotAddr, put)
	})

	echoAddr = r.NewObjectOn(0, echo)
	hotAddr = r.NewObjectOn(0, hot)
	d := r.NewObjectOn(0, driver)
	r.Inject(d, kick)

	// Step the node until the read is live (blocked on echo) and the write
	// is parked, then capture.
	n := r.NodeRT(0)
	r.Freeze()
	for hotAddr.Obj.LiveInvocations() != 1 || hotAddr.Obj.ReadyLen() != 1 {
		if !n.Step() && hotAddr.Obj.LiveInvocations() != 1 {
			t.Fatal("never reached the mid-group state")
		}
	}
	img := r.CaptureNode(0)

	// Let the run finish, then roll back and finish again.
	run(t, r)
	first := strings.Join(log, ",")
	if first != "get,put" {
		t.Fatalf("first completion order = %q, want \"get,put\"", first)
	}

	log = nil
	r.RestoreNode(img)
	r.M.Node(0).Wake()
	if hotAddr.Obj.LiveInvocations() != 1 || hotAddr.Obj.ReadyLen() != 1 {
		t.Fatalf("restored live=%d ready=%d, want 1/1",
			hotAddr.Obj.LiveInvocations(), hotAddr.Obj.ReadyLen())
	}
	run(t, r)
	if got := strings.Join(log, ","); got != first {
		t.Fatalf("replayed completion order = %q, want %q", got, first)
	}
}
