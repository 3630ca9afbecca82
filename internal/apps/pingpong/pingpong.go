// Package pingpong implements the microbenchmarks behind the paper's
// Tables 1 and 3: repeated intra-node and inter-node message passing
// between two objects, measuring per-message latency in virtual time.
package pingpong

import (
	"fmt"

	abcl "repro"
	"repro/internal/sim"
)

// Result reports a ping-pong measurement.
type Result struct {
	Iterations int
	Total      sim.Time
	PerOp      sim.Time // total / iterations
}

// PastLocal measures the intra-node past-type send to a dormant object
// (Table 1 row 1): a driver repeatedly invokes a null method on a dormant
// object on the same node.
func PastLocal(iters int, opts ...abcl.Option) (Result, error) {
	return PastLocalHinted(iters, 0, opts...)
}

// PastLocalHinted is PastLocal with its send site compiled under hints
// (Section 6.1: 25 instructions down to 8).
func PastLocalHinted(iters int, hints abcl.SendHint, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(1)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	ping := sys.Pattern("pp.ping", 0)
	kick := sys.Pattern("pp.kick", 0)

	null := sys.Class("pp.null", 0, nil)
	null.Method(ping, func(ctx *abcl.Ctx) {})

	var target abcl.Address
	var start, end sim.Time
	drv := sys.Class("pp.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		start = ctx.Now()
		for i := 0; i < iters; i++ {
			ctx.SendPastHinted(target, ping, hints)
		}
		end = ctx.Now()
	})

	target = sys.NewObjectOn(0, null)
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return mkResult(iters, end-start)
}

// PastLocalActive measures the intra-node message to an active object
// (Table 1 row 2): the receiver sends to itself, so every message after the
// first is buffered and scheduled through the queue.
func PastLocalActive(iters int, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(1)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	step := sys.Pattern("pp.step", 1)

	var done sim.Time
	self := sys.Class("pp.self", 0, nil)
	self.Method(step, func(ctx *abcl.Ctx) {
		n := ctx.Arg(0).Int()
		if n > 0 {
			// Self-send: the receiver (self) is active, so the full
			// buffer + schedule + dispatch path is taken every iteration.
			ctx.SendPast(ctx.Self(), step, abcl.Int(n-1))
		} else {
			done = ctx.Now()
		}
	})

	o := sys.NewObjectOn(0, self)
	sys.Send(o, step, abcl.Int(int64(iters)))
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return mkResult(iters, done)
}

// CreateLocal measures intra-node object creation (Table 1 row 3).
func CreateLocal(iters int, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(1)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	kick := sys.Pattern("pp.kick", 0)
	nop := sys.Pattern("pp.nop", 0)
	leaf := sys.Class("pp.leaf", 0, nil)
	leaf.Method(nop, func(ctx *abcl.Ctx) {})

	var start, end sim.Time
	drv := sys.Class("pp.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		start = ctx.Now()
		for i := 0; i < iters; i++ {
			ctx.NewLocal(leaf)
		}
		end = ctx.Now()
	})
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return mkResult(iters, end-start)
}

// PastRemote measures minimum inter-node latency (Table 1 row 4) exactly as
// the paper does: "repeatedly transmitting one word past-type messages
// between two objects" on adjacent nodes, both dormant at reception.
// Per-op time is the one-way latency.
func PastRemote(iters int, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(2)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	ball := sys.Pattern("pp.ball", 1)

	var aAddr, bAddr abcl.Address
	var done sim.Time
	mk := func(name string, peer *abcl.Address) *abcl.Class {
		c := sys.Class(name, 0, nil)
		c.Method(ball, func(ctx *abcl.Ctx) {
			n := ctx.Arg(0).Int()
			if n > 0 {
				ctx.SendPast(*peer, ball, abcl.Int(n-1))
			} else {
				done = ctx.Now()
			}
		})
		return c
	}
	ca := mk("pp.a", &bAddr)
	cb := mk("pp.b", &aAddr)
	aAddr = sys.NewObjectOn(0, ca)
	bAddr = sys.NewObjectOn(1, cb)
	sys.Send(aAddr, ball, abcl.Int(int64(iters)))
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return mkResult(iters, done)
}

// NowRemote measures the inter-node request-reply cycle of Table 3: a
// now-type message to a remote object that replies immediately.
func NowRemote(iters int, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(2)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	ask := sys.Pattern("pp.ask", 0)
	kick := sys.Pattern("pp.kick", 0)

	var target abcl.Address
	svc := sys.Class("pp.svc", 0, nil)
	svc.Method(ask, func(ctx *abcl.Ctx) { ctx.Reply(abcl.Int(0)) })

	var start, end sim.Time
	var doIter func(ctx *abcl.Ctx, n int)
	doIter = func(ctx *abcl.Ctx, n int) {
		if n == 0 {
			end = ctx.Now()
			return
		}
		ctx.SendNow(target, ask, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			doIter(ctx, n-1)
		})
	}
	cl := sys.Class("pp.cl", 0, nil)
	cl.Method(kick, func(ctx *abcl.Ctx) {
		start = ctx.Now()
		doIter(ctx, iters)
	})

	target = sys.NewObjectOn(1, svc)
	c := sys.NewObjectOn(0, cl)
	sys.Send(c, kick)
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return mkResult(iters, end-start)
}

func mkResult(iters int, total sim.Time) (Result, error) {
	if iters <= 0 {
		return Result{}, fmt.Errorf("pingpong: iterations must be positive")
	}
	if total <= 0 {
		return Result{}, fmt.Errorf("pingpong: run did not complete")
	}
	return Result{Iterations: iters, Total: total, PerOp: total / sim.Time(iters)}, nil
}
