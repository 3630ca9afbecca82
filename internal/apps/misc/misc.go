// Package misc provides small concurrent-object workloads used by tests,
// examples and the ablation experiments: a counter service, a bounded buffer
// built on selective message reception, and a fork-join computation tree.
package misc

import (
	"fmt"

	abcl "repro"
)

// BuildCounter registers a counter class on sys: it understands
// "ctr.inc" (past), "ctr.add n" (past) and "ctr.get" (now, replies the
// current value).
func BuildCounter(sys *abcl.System) (cls *abcl.Class, inc, add, get abcl.Pattern) {
	inc = sys.Pattern("ctr.inc", 0)
	add = sys.Pattern("ctr.add", 1)
	get = sys.Pattern("ctr.get", 0)
	cls = sys.Class("ctr.counter", 1, func(ic *abcl.InitCtx) {
		ic.SetState(0, abcl.Int(0))
	})
	cls.Method(inc, func(ctx *abcl.Ctx) {
		ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
	})
	cls.Method(add, func(ctx *abcl.Ctx) {
		ctx.SetState(0, abcl.Int(ctx.State(0).Int()+ctx.Arg(0).Int()))
	})
	cls.Method(get, func(ctx *abcl.Ctx) {
		ctx.Reply(ctx.State(0))
	})
	return cls, inc, add, get
}

// BoundedBuffer is a classic ABCL example: a producer/consumer cell
// implemented with selective message reception. The buffer has capacity 1;
// "bb.put v" stores when empty, "bb.take" replies and empties. When full,
// the buffer *waits* selectively for a take; when empty, for a put — the
// other pattern buffers in its message queue meanwhile.
type BoundedBuffer struct {
	Cls  *abcl.Class
	Put  abcl.Pattern
	Take abcl.Pattern
}

// BuildBoundedBuffer registers the bounded-buffer class on sys.
func BuildBoundedBuffer(sys *abcl.System) *BoundedBuffer {
	b := &BoundedBuffer{
		Put:  sys.Pattern("bb.put", 1),
		Take: sys.Pattern("bb.take", 0),
	}
	b.Cls = sys.Class("bb.buffer", 1, nil)
	// A put stores the value, then selectively waits for the matching take
	// before accepting the next put (capacity 1). Further puts buffer in
	// the message queue, preserving order.
	b.Cls.Method(b.Put, func(ctx *abcl.Ctx) {
		v := ctx.Arg(0)
		ctx.SetState(0, v)
		ctx.WaitFor(func(ctx *abcl.Ctx, f *abcl.Frame) {
			// f is the take message: reply the stored value to its reply
			// destination (take is sent as a now-type message).
			ctx.SendWithReply(f.ReplyTo, replyPattern(sys), []abcl.Value{ctx.State(0)}, abcl.Address{})
		}, b.Take)
	})
	// A take arriving while empty (dormant mode) waits for a put... but the
	// dormant-mode method only runs when no put is pending; in that case we
	// wait for the next put and then reply.
	b.Cls.Method(b.Take, func(ctx *abcl.Ctx) {
		rd := ctx.ReplyTo()
		ctx.WaitFor(func(ctx *abcl.Ctx, f *abcl.Frame) {
			ctx.SendWithReply(rd, replyPattern(sys), []abcl.Value{f.Arg(0)}, abcl.Address{})
		}, b.Put)
	})
	return b
}

// replyPattern returns the runtime's reserved reply pattern.
func replyPattern(sys *abcl.System) abcl.Pattern { return sys.RT.PatReply }

// ForkJoin is a binary computation tree: fj.compute(depth) forks two
// children (created via the placement policy) until depth 0, then results
// join back with now-type replies. It exercises remote creation, now-type
// blocking and termination purely through replies.
type ForkJoin struct {
	Cls     *abcl.Class
	Compute abcl.Pattern
}

// BuildForkJoin registers the fork-join class.
func BuildForkJoin(sys *abcl.System) *ForkJoin {
	fj := &ForkJoin{Compute: sys.Pattern("fj.compute", 1)}
	fj.Cls = sys.Class("fj.node", 0, nil)
	fj.Cls.Method(fj.Compute, func(ctx *abcl.Ctx) {
		depth := ctx.Arg(0).Int()
		ctx.Charge(20) // leaf/body work
		if depth == 0 {
			ctx.Reply(abcl.Int(1))
			return
		}
		ctx.Create(fj.Cls, nil, func(ctx *abcl.Ctx, left abcl.Address) {
			ctx.Create(fj.Cls, nil, func(ctx *abcl.Ctx, right abcl.Address) {
				ctx.SendNow(left, fj.Compute, []abcl.Value{abcl.Int(depth - 1)}, func(ctx *abcl.Ctx, lv abcl.Value) {
					ctx.SendNow(right, fj.Compute, []abcl.Value{abcl.Int(depth - 1)}, func(ctx *abcl.Ctx, rv abcl.Value) {
						ctx.Reply(abcl.Int(lv.Int() + rv.Int()))
					})
				})
			})
		})
	})
	return fj
}

// AllToAllOptions configures the all-to-all exchange workload.
type AllToAllOptions struct {
	Nodes  int           // node count; one peer object per node
	Rounds int           // messages each peer sends to every other peer
	Opts   []abcl.Option // extra system options (batching, reliability, faults, ...)
}

// AllToAllResult reports the outcome of one all-to-all exchange.
type AllToAllResult struct {
	Delivered  int64 // messages received across all peers
	Violations int64 // per-sender FIFO order violations observed by receivers
	Elapsed    abcl.Time
	Packets    uint64 // hardware packets launched
	Msgs       uint64 // logical messages carried (>= Packets when batching)
	Stats      abcl.Counters
}

// RunAllToAll runs a communication-dominated exchange: every node hosts one
// peer object, and every node sends Rounds numbered past-type messages to
// every other node's peer. Receivers verify per-sender FIFO order. The
// pattern is the worst case for per-link batching (traffic spread across
// all N·(N-1) links) and the best case for ack coalescing (many messages
// per link in flight at once).
func RunAllToAll(o AllToAllOptions) (*AllToAllResult, error) {
	if o.Nodes < 2 {
		return nil, fmt.Errorf("misc: all-to-all needs at least 2 nodes, got %d", o.Nodes)
	}
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(o.Nodes)}, o.Opts...)...)
	if err != nil {
		return nil, err
	}
	p := o.Nodes
	// Per-receiver tallies live in per-node slots so that method bodies never
	// share Go state across event lanes.
	received := make([]int64, p)
	violations := make([]int64, p)
	expected := make([][]int64, p)
	for i := range expected {
		expected[i] = make([]int64, p)
	}

	hit := sys.Pattern("a2a.hit", 2)
	kick := sys.Pattern("a2a.kick", 0)
	peerCls := sys.Class("a2a.peer", 0, nil)
	peerCls.Method(hit, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		src := ctx.Arg(0).Int()
		seq := ctx.Arg(1).Int()
		received[me]++
		if seq != expected[me][src] {
			violations[me]++
		}
		expected[me][src] = seq + 1
	})

	peers := make([]abcl.Address, p)
	for i := range peers {
		peers[i] = sys.NewObjectOn(i, peerCls)
	}
	// Rounds are sent destination-major: each peer receives its Rounds
	// messages as one back-to-back burst, the traffic shape per-link
	// batching is built for (a multi-record logical transfer).
	srcCls := sys.Class("a2a.src", 0, nil)
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			for r := 0; r < o.Rounds; r++ {
				ctx.SendPast(peers[d], hit, abcl.Int(int64(me)), abcl.Int(int64(r)))
			}
		}
	})
	for i := 0; i < p; i++ {
		sys.Send(sys.NewObjectOn(i, srcCls), kick)
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}

	rep := sys.Report()
	res := &AllToAllResult{
		Elapsed: rep.Sched.Elapsed,
		Packets: rep.Wire.Packets,
		Msgs:    rep.Wire.LogicalMsgs,
		Stats:   rep.Sched.Counters,
	}
	for i := 0; i < p; i++ {
		res.Delivered += received[i]
		res.Violations += violations[i]
	}
	want := int64(p) * int64(p-1) * int64(o.Rounds)
	if res.Delivered != want {
		return res, fmt.Errorf("misc: all-to-all delivered %d messages, want %d", res.Delivered, want)
	}
	if res.Violations != 0 {
		return res, fmt.Errorf("misc: all-to-all observed %d FIFO order violations", res.Violations)
	}
	return res, nil
}

// CheckDepth rejects a fork-join depth the tree cannot run: a negative one
// never reaches the leaf case, so the run would fork without end.
func CheckDepth(depth int) error {
	if depth < 0 {
		return fmt.Errorf("misc: forkjoin depth must be >= 0, got %d", depth)
	}
	return nil
}

// RunForkJoinOn runs a fork-join tree of the given depth on an existing,
// not-yet-run system (e.g. one built with fault injection enabled) and
// returns the leaf count.
func RunForkJoinOn(sys *abcl.System, depth int) (int64, error) {
	if err := CheckDepth(depth); err != nil {
		return 0, err
	}
	fj := BuildForkJoin(sys)

	done := sys.Pattern("fj.done", 1)
	var result int64 = -1
	sink := sys.Class("fj.sink", 0, nil)
	sink.Method(done, func(ctx *abcl.Ctx) { result = ctx.Arg(0).Int() })

	kick := sys.Pattern("fj.kick", 1)
	var root, sinkAddr abcl.Address
	drv := sys.Class("fj.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SendNow(root, fj.Compute, []abcl.Value{ctx.Arg(0)}, func(ctx *abcl.Ctx, v abcl.Value) {
			ctx.SendPast(sinkAddr, done, v)
		})
	})

	root = sys.NewObjectOn(0, fj.Cls)
	sinkAddr = sys.NewObjectOn(0, sink)
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick, abcl.Int(int64(depth)))
	if err := sys.Run(); err != nil {
		return 0, err
	}
	if result < 0 {
		return 0, fmt.Errorf("misc: fork-join did not complete")
	}
	return result, nil
}
