// Package hotkey implements the hot-key counter contention workload: many
// closed-loop clients hammer one counter object whose every method blocks
// on a round trip to a remote store shard. Under serial semantics the
// counter is a convoy — each operation holds the object for a full wire
// round trip — so throughput is one operation per RTT regardless of client
// count. With compatibility groups declared ("reads" over get, "writes"
// over add) the scheduler overlaps the blocked round trips of compatible
// invocations, and throughput scales with the number of concurrent
// clients. The Coverage knob selects how much of the class is annotated,
// making the workload a direct measurement of throughput vs annotation
// coverage.
package hotkey

import (
	"cmp"
	"fmt"

	abcl "repro"
	"repro/internal/sim"
)

// Coverage selects how much of the counter class carries compatibility
// annotations.
type Coverage int

const (
	// CoverNone declares no groups: the counter is an ordinary serial
	// object (the baseline).
	CoverNone Coverage = iota
	// CoverPartial groups only the read method; writes stay exclusive.
	CoverPartial
	// CoverFull groups reads and writes separately: reads overlap reads,
	// writes overlap writes, and the two classes exclude each other.
	CoverFull
)

// ParseCoverage maps a flag string onto a Coverage.
func ParseCoverage(s string) (Coverage, error) {
	switch s {
	case "none":
		return CoverNone, nil
	case "partial":
		return CoverPartial, nil
	case "full":
		return CoverFull, nil
	}
	return CoverNone, fmt.Errorf("hotkey: unknown coverage %q (want none|partial|full)", s)
}

// Options are the workload's own parameters; the machine it runs on is
// described by the abcl options passed alongside (>= 2 nodes: the counter
// sits on node 0, one store shard on every other node).
type Options struct {
	Clients  int      // closed-loop client objects (spread over nodes 1..)
	Ops      int      // operations per client
	WritePct int      // percentage of operations that are adds (default 20)
	Coverage Coverage // annotation coverage on the counter class
}

// Result reports a run.
type Result struct {
	Ops     int64 // operations completed (reads + writes)
	Reads   int64
	Writes  int64
	Final   int64    // final counter value; must equal Writes
	MaxLive int      // peak concurrent invocations observed at the counter
	Elapsed sim.Time // virtual completion time
	// Throughput is operations per virtual millisecond — the headline
	// number the coverage ablation compares.
	Throughput float64
	Stats      abcl.Counters
	Report     abcl.Report
}

// State variable indices for the counter object. Operation counts live in
// object state rather than host variables so that a checkpoint rollback
// rewinds them together with the value — the host-write rule (DESIGN.md
// §10) for crash scenarios.
const (
	stValue  = 0 // the hot value
	stCursor = 1 // rotating store-shard cursor
	stReads  = 2 // completed read operations
)

// Check rejects parameters the workload cannot run on a machine of nodes
// processors. Run asks it, and so does the run-spec check before anything is
// built.
func Check(opt Options, nodes int) error {
	switch {
	case opt.Clients < 1 || opt.Ops < 1:
		return fmt.Errorf("hotkey: clients and ops must be >= 1")
	case opt.WritePct < 0 || opt.WritePct > 100:
		return fmt.Errorf("hotkey: write percentage %d out of range", opt.WritePct)
	case nodes < 2:
		return fmt.Errorf("hotkey: need >= 2 nodes (counter and store must be remote), got %d", nodes)
	}
	return nil
}

// Run executes the workload on a system built from opts and returns the
// result.
func Run(opt Options, opts ...abcl.Option) (Result, error) {
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		return Result{}, err
	}
	nodes := sys.Nodes()
	if err := Check(opt, nodes); err != nil {
		return Result{}, err
	}
	writePct := cmp.Or(opt.WritePct, 20)

	get := sys.Pattern("hk.get", 0)
	add := sys.Pattern("hk.add", 1)
	load := sys.Pattern("hk.load", 0)
	save := sys.Pattern("hk.save", 1)
	step := sys.Pattern("hk.step", 1)
	done := sys.Pattern("hk.done", 0)

	// The store shards: every counter operation round-trips to one of them,
	// modelling the persistence/ownership hop that makes hot objects convoy
	// in real systems. One shard per non-counter node: a serial counter can
	// only ever use one at a time (it is blocked for the whole round trip),
	// while overlapped invocations fan out across all of them.
	store := sys.Class("hk.store", 0, nil).
		Method(load, func(ctx *abcl.Ctx) {
			ctx.Charge(500)
			ctx.Reply(abcl.Int(0))
		}).
		Method(save, func(ctx *abcl.Ctx) {
			ctx.Charge(500)
			ctx.Reply(ctx.Arg(0)) // the value stored
		})
	shards := make([]abcl.Address, nodes-1)
	for i := range shards {
		shards[i] = sys.NewObjectOn(i+1, store)
	}

	// The hot counter. Both methods block mid-body on the store round
	// trip; the annotations (if any) let compatible invocations overlap
	// exactly there. The write applies its increment before blocking, so
	// overlapping writes stay commutative and the final value is exact.
	// maxLive is a host-side monotonic maximum — idempotent under replay.
	maxLive := 0
	noteLive := func(ctx *abcl.Ctx) {
		if l := ctx.Self().Obj.LiveInvocations(); l > maxLive {
			maxLive = l
		}
	}
	nextShard := func(ctx *abcl.Ctx) abcl.Address {
		cur := ctx.State(stCursor).Int()
		ctx.SetState(stCursor, abcl.Int(cur+1))
		return shards[cur%int64(len(shards))]
	}
	// A write replies with the value its store acknowledged: the one it
	// wrote, though overlapping writes may have moved the state since.
	replyStored := func(ctx *abcl.Ctx, stored abcl.Value) { ctx.Reply(stored) }
	counter := sys.Class("hk.counter", 3, func(ic *abcl.InitCtx) {
		ic.SetState(stValue, abcl.Int(0))
		ic.SetState(stCursor, abcl.Int(0))
		ic.SetState(stReads, abcl.Int(0))
	}).
		Method(get, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			ctx.SendNow(nextShard(ctx), load, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SetState(stReads, abcl.Int(ctx.State(stReads).Int()+1))
				ctx.Reply(ctx.State(stValue))
			})
		}).
		Method(add, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			v := ctx.State(stValue).Int() + ctx.Arg(0).Int()
			ctx.SetState(stValue, abcl.Int(v))
			ctx.SendNow(nextShard(ctx), save, []abcl.Value{abcl.Int(v)}, replyStored)
		})
	switch opt.Coverage {
	case CoverPartial:
		counter.Group("reads", get)
	case CoverFull:
		counter.Group("reads", get).Group("writes", add).Priority("writes", 1)
	}
	counterAddr := sys.NewObjectOn(0, counter)

	// Closed-loop clients: each waits for its operation's reply before
	// issuing the next, so at most Clients invocations converge on the
	// counter at once. The op mix is a deterministic function of (client,
	// op index) — every coverage level runs the identical request stream.
	// The done message carries the client id and the collector records a
	// set union, so redelivery after a checkpoint restore is harmless.
	period := 0
	if writePct > 0 {
		period = 100 / writePct
		if period < 1 {
			period = 1
		}
	}
	var collector abcl.Address
	// An operation's reply steps the client on. The count comes from the
	// step message's own argument, which the blocked invocation's saved
	// context keeps, so one continuation serves every operation.
	stepOn := func(ctx *abcl.Ctx, _ abcl.Value) {
		ctx.SendPast(ctx.Self(), step, abcl.Int(ctx.Arg(0).Int()-1))
	}
	client := sys.Class("hk.client", 1, func(ic *abcl.InitCtx) {
		ic.SetState(0, ic.CtorArg(0)) // client id
	}).
		Method(step, func(ctx *abcl.Ctx) {
			rem := ctx.Arg(0).Int()
			if rem == 0 {
				ctx.SendPast(collector, done, ctx.State(0))
				return
			}
			i := int64(opt.Ops) - rem
			if period > 0 && i%int64(period) == 0 {
				ctx.SendNow(counterAddr, add, []abcl.Value{abcl.Int(1)}, stepOn)
				return
			}
			ctx.SendNow(counterAddr, get, nil, stepOn)
		})
	reported := make([]bool, opt.Clients)
	finished := 0
	coll := sys.Class("hk.coll", 0, nil).
		Method(done, func(ctx *abcl.Ctx) {
			if id := int(ctx.Arg(0).Int()); !reported[id] {
				reported[id] = true
				finished++
			}
		})
	collector = sys.NewObjectOn(0, coll)

	clients := make([]abcl.Address, opt.Clients)
	for i := range clients {
		// Clients spread over nodes 1..Nodes-1 (the counter's node stays
		// dedicated to the contended object).
		node := 1 + i%(nodes-1)
		clients[i] = sys.NewObjectOn(node, client, abcl.Int(int64(i)))
	}
	for _, c := range clients {
		sys.Send(c, step, abcl.Int(int64(opt.Ops)))
	}

	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	if finished != opt.Clients {
		return Result{}, fmt.Errorf("hotkey: %d of %d clients finished", finished, opt.Clients)
	}
	// Per-client write count for the deterministic mix: ops at indices
	// 0, period, 2·period, ...
	writesPerClient := 0
	if period > 0 {
		writesPerClient = (opt.Ops + period - 1) / period
	}
	wantWrites := int64(writesPerClient) * int64(opt.Clients)
	rep := sys.Report()
	reads := counterAddr.Obj.State(stReads).Int()
	writes := counterAddr.Obj.State(stValue).Int()
	res := Result{
		Ops:     reads + writes,
		Reads:   reads,
		Writes:  writes,
		Final:   writes,
		MaxLive: maxLive,
		Elapsed: rep.Sched.Elapsed,
		Stats:   rep.Sched.Counters,
		Report:  rep,
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.Elapsed) / 1e6)
	}
	if res.Ops != int64(opt.Clients)*int64(opt.Ops) {
		return res, fmt.Errorf("hotkey: completed %d ops, want %d", res.Ops, int64(opt.Clients)*int64(opt.Ops))
	}
	if res.Writes != wantWrites {
		return res, fmt.Errorf("hotkey: final value %d != %d expected writes (lost update)", res.Writes, wantWrites)
	}
	return res, nil
}
