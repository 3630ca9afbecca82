// Tests of the per-message record pools as the whole system uses them: the
// pooled wire record that is also its message's frame, the machine's
// packet pool behind the reliable protocol, and the allocation budget that
// keeps an off-path allocation from creeping back into the send path.
package abcl_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
)

// mallocsDuring returns the heap allocations run performs.
func mallocsDuring(run func()) uint64 {
	mallocs, _ := allocatedDuring(run)
	return mallocs
}

// allocatedDuring returns the heap allocations run performs and their bytes.
func allocatedDuring(run func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// A simulated message costs four words on the wire and, on the fast path, no
// host allocation: records come from slabs that grow a block at a time, and a
// delivery queues its packet in a block rather than linking it. One allocation
// per message anywhere in SendMessage, handleWire, sendAt or deliver
// multiplies the all-to-all figure tenfold, so the budget fails here and not
// only in the benchmark; the reliable row is the same guard for the ack/retry,
// batching and delayed-ack bookkeeping, whose events per message must not grow
// back a timer slot per message and whose bytes per message must not grow back
// per-peer state a lossless run never reads: a node opens a link to most of
// the peers it ever talks to, so every byte of a link record is paid per
// message. A creation costs no host allocation either: objects, chunks, stock
// slots, boards and spawn records are carved from arenas, the n-queens
// creation loop's continuation is a static function, and a stock miss saves
// its creator in a recycled record its wire records carry, so the n-queens
// rows guard creation the way the all-to-all rows guard the send — one
// allocation per created object adds 0.5 per message to either. The
// all-to-all rows have their allocation budgets about 25 % above their
// measurements, the hot-key row about 4 % and the n-queens and diffusion
// rows about 5 %: their counts are exact run to run. Every byte budget sits
// at most 5 % above its measurement. The
// all-to-all rows measure 0.025 and 0.011 allocations per message
// (construction included: the runtime's tables and blocks — slab blocks, the
// event queue's heap and bucket blocks), against 0.033 and 0.015 with a stock
// map made per node and scheduling queues grown from empty, 0.049 and 0.023
// with each layer's per-node records allocated one at a time. The 64-node row
// measures 209 bytes per message, one 160-byte record per message (24-byte
// Values) in blocks that fill their pages, against 235 with a 184-byte record
// (234 with scheduling queues grown from empty), 249 with 32-byte Values (a
// 200-byte record), 306 with a 248-byte wire record
// beside the frame its arguments were copied into, in blocks of 256 rounded up
// to whole pages, 308 with a frame and context pool per node, 321 with an
// event lane per node and the arrivals for a busy node in a second queue per
// lane, 328 with every lane's first heap of 128 events and 354 with heaps that
// double to 512 events and receive rings that grow ×4; its byte budget is
// 219. Reliable n-queens measures 0.0698 allocations, 4.07 events and 371
// bytes (0.0703 and 395 with every attempt, the first included, under a
// pooled packet, 0.0705 and 426 with a 136-byte Object and a 184-byte record, 0.146
// and 425 with two closures per stock miss, the
// bytes one more because the saved-context records' arena rounds its 123
// records up to blocks of 248; 0.309 and 429 with a Go map for each node's chunk
// stocks, every blocked invocation's context dropped and scheduling queues
// grown from empty, 0.667 and 436 with a method value per internal search
// node and per-node records allocated one at a time, 0.679 and 455 with
// 32-byte Values, 0.711 and 497 with a wire record beside its frame), against 0.767 and 505 with a frame and
// context pool per node, 0.967 and 582 with an arena per node (every node
// ending on part-used blocks of each record type), 1.07 and 793 with a record
// pool per node (idle records piling up on receivers while senders carve fresh
// ones) and a heap Object per stocked chunk, 1.66 and 827 with a heap
// container per batch frame and a rider per ack-carrying lone packet, 5.65
// with one heap object per Object, chunk, stock entry, board and InitCtx, and
// 946 bytes with 336-byte link records; its byte budget sits about 5 % above,
// so none of those comes back. The next two rows are the product's default
// path (the cost profile always kept, no time slices) and the multiactive scheduler's per-group
// ready queues: 0.0076 allocations and 162 bytes per message (0.0083 and 202
// with a 136-byte Object and a 184-byte record, 0.125 and 207
// with two closures per stock miss, 0.197 and 211
// with stock maps, blocked contexts dropped and queues grown from empty,
// 0.521 and 218 with a method value per internal search node, 0.533 and 257 with 32-byte
// Values, 0.584 and 275 with a wire record beside its frame, 0.598 and 277
// with a frame and context pool per node, 0.647 and 313 with an arena per
// node, 0.660 and 383 with a pool per node and an Object per stocked chunk;
// what is left is arena blocks) and 0.0538 (0.292 with a continuation
// closure per client operation and per counter write, 0.689 with a heap record per
// reply destination, 0.691 with that and a string built per
// blocked WaitFor; 1.099 with every blocked invocation's context dropped,
// as a client's now-type send blocks; 1.132 with that and a wire record beside
// its frame; about 3 640 a run, 1.150 with a
// frame and context pool per node, 1.193 with an arena per node; a reply
// destination, its payload included, comes out of an arena too), exact run
// to run. Two
// closures per stock miss (the blocked creation's resume, a saved-context
// record the wire records carry instead) added 0.117 to the n-queens
// figure, and only one hot-key message in sixteen parks in a ready queue, so
// an allocation per push shows well above the noise: the hot-key budget sits
// about 4 % above its measurement; the n-queens byte budget is 170. The last
// row is selective reception's path: diffusion's cells block in WaitFor
// every iteration, at 0.062 allocations per message, what the set-up
// allocates, since a blocked WaitFor's context is a recycled saved-context
// record holding a copy of its patterns and the app's continuation and
// neighbour lists are built once (3.43 with a wait state per blocked
// WaitFor, a continuation closure per wait and a neighbour list per
// broadcast; 4.86 with a string built per blocked WaitFor to find its
// waiting table).
func TestMessageAllocationBudget(t *testing.T) {
	allToAll := func(nodes int) func() (msgs, events uint64, err error) {
		return func() (msgs, events uint64, err error) {
			want := uint64(nodes * (nodes - 1) * 8)
			res, err := misc.RunAllToAll(misc.AllToAllOptions{Nodes: nodes, Rounds: 8})
			if err == nil && uint64(res.Delivered) != want {
				err = fmt.Errorf("delivered %d messages, want %d", res.Delivered, want)
			}
			return want, 0, err
		}
	}
	reliableQueens := func() (msgs, events uint64, err error) {
		sys, err := abcl.NewSystem(abcl.WithNodes(32), abcl.WithSeed(1), abcl.WithPlacement(abcl.PlaceRandom),
			abcl.WithReliable(), abcl.WithBatching(10*abcl.Microsecond, 0), abcl.WithDelayedAcks(500*abcl.Microsecond))
		if err != nil {
			return 0, 0, err
		}
		d := nqueens.Build(sys, 8, 0)
		d.Start()
		if err := sys.Run(); err != nil {
			return 0, 0, err
		}
		res, err := d.Result()
		if err == nil && (res.Solutions != 92 || res.Stats.Retransmits != 0) {
			err = fmt.Errorf("solutions=%d retransmits=%d, want 92/0", res.Solutions, res.Stats.Retransmits)
		}
		return res.Messages, sys.M.Eng.Fired(), err
	}
	defaultQueens := func() (msgs, events uint64, err error) {
		res, err := nqueens.Run(nqueens.Options{N: 10}, abcl.WithNodes(64), abcl.WithSeed(1))
		if err == nil && (res.Solutions != 724 || res.Report.Profile == nil) {
			err = fmt.Errorf("solutions=%d profile kept=%v, want 724/true", res.Solutions, res.Report.Profile != nil)
		}
		return res.Messages, 0, err
	}
	hotKeyFull := func() (msgs, events uint64, err error) {
		res, err := hotkey.Run(hotkey.Options{Clients: 16, Ops: 40, WritePct: 20, Coverage: hotkey.CoverFull}, abcl.WithNodes(16))
		if err == nil && (res.Ops != 16*40 || res.Final != res.Writes) {
			err = fmt.Errorf("ops=%d final=%d writes=%d, want %d ops and final == writes", res.Ops, res.Final, res.Writes, 16*40)
		}
		return res.Stats.TotalMessages(), 0, err
	}
	diffusion16 := func() (msgs, events uint64, err error) {
		res, err := diffusion.Run(diffusion.Options{W: 16, H: 16, Iters: 10, BlockPlace: true}, abcl.WithNodes(16))
		if want := diffusion.SequentialResidual(16, 16, 10); err == nil && res.Residual != want {
			err = fmt.Errorf("residual %v, want %v", res.Residual, want)
		}
		return res.Stats.TotalMessages(), 0, err
	}
	for _, tc := range []struct {
		name         string
		run          func() (msgs, events uint64, err error)
		allocBudget  float64
		eventsBudget float64 // per message; 0: not budgeted
		bytesBudget  float64 // per message; 0: not budgeted
	}{
		{"sequential all-to-all 32x8", allToAll(32), 0.031, 0, 0},
		{"sequential all-to-all 64x8", allToAll(64), 0.014, 0, 219},
		{"reliable batched delayed-ack n-queens N8 P32", reliableQueens, 0.074, 4.7, 389},
		{"default n-queens N10 P64, profiler off", defaultQueens, 0.0079, 0, 170},
		{"hot-key full coverage 16x40 P16", hotKeyFull, 0.056, 0, 0},
		{"diffusion 16x16 10 iterations P16", diffusion16, 0.065, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			best, bestBytes, perEvent := 0.0, 0.0, 0.0
			for try := 0; try < 3; try++ {
				var msgs, events uint64
				var err error
				mallocs, bytes := allocatedDuring(func() { msgs, events, err = tc.run() })
				if err != nil {
					t.Fatal(err)
				}
				per, perBytes := float64(mallocs)/float64(msgs), float64(bytes)/float64(msgs)
				if try == 0 || per < best {
					best = per
				}
				if try == 0 || perBytes < bestBytes {
					bestBytes = perBytes
				}
				perEvent = float64(events) / float64(msgs)
			}
			t.Logf("%.4f allocations, %.0f bytes, %.3f events per message", best, bestBytes, perEvent)
			if best > tc.allocBudget {
				t.Errorf("%.3f allocations per message, budget %.2f", best, tc.allocBudget)
			}
			if tc.eventsBudget > 0 && perEvent > tc.eventsBudget {
				t.Errorf("%.3f events per message, budget %.2f", perEvent, tc.eventsBudget)
			}
			if tc.bytesBudget > 0 && bestBytes > tc.bytesBudget {
				t.Errorf("%.0f bytes per message, budget %.0f", bestBytes, tc.bytesBudget)
			}
		})
	}
}

// A stocked chunk is a count, so the host holds an Object per creation and
// none per chunk address a stock holds: the benchmark's n-queens repetition
// (N10 on 256 nodes, random placement, seed 1) makes exactly as many host
// Objects as it has creations, 35 540, where an Object per stocked chunk made
// 90 603.
func TestObjectsFollowCreations(t *testing.T) {
	sys, err := abcl.NewSystem(abcl.WithNodes(256), abcl.WithPlacement(abcl.PlaceRandom), abcl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, 10, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	c := sys.Report().Sched.Counters
	creations := c.Creations()
	if made := sys.RT.ObjectsMade(); uint64(made) != creations || creations != 35540 {
		t.Errorf("%d host Objects for %d creations, want 35540 of each", made, creations)
	}
}

// A context blocked by a remote creation is recycled like any other. Under a
// stock of depth 0 every remote creation of an n-queens N6 run blocks
// (BlockExternal) and its continuation resumes on a context of its own, so
// the run makes no more contexts than one stack holds, however many
// creations block.
func TestBlockedContextsAreRecycled(t *testing.T) {
	sys, err := abcl.NewSystem(abcl.WithNodes(16), abcl.WithPlacement(abcl.PlaceRandom), abcl.WithSeed(1),
		abcl.WithChunkStock(0))
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, 6, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil || res.Solutions != 4 {
		t.Fatalf("solutions=%d err=%v, want 4", res.Solutions, err)
	}
	c := sys.Report().Sched.Counters
	if c.StockHits != 0 || c.StockMisses < 100 {
		t.Fatalf("stock hits/misses = %d/%d, want every one of at least 100 remote creations to block", c.StockHits, c.StockMisses)
	}
	if made, depth := sys.RT.ContextsMade(), sys.RT.MaxStackDepth(); made > depth {
		t.Errorf("%d contexts made for %d blocked creations, want at most the stack depth %d", made, c.StockMisses, depth)
	}
}

// Once two nodes have been in contact, the reliable, batched, delayed-ack
// path between them allocates nothing: its records — wire record, in-flight
// record, data, ack and batch-frame packets — come back out of slabs, a
// batch chains its records through their own headers, a piggybacked ack is a
// header word, its per-peer state sits in the link record and an open-batch
// record taken back, and its deadlines are header words and reserved
// positions, not closures. A second identical burst over
// links the first one opened must run allocation-free.
func TestReliableSteadyStateAllocatesNothing(t *testing.T) {
	const nodes, rounds = 16, 6
	sys, err := abcl.NewSystem(abcl.WithNodes(nodes), abcl.WithReliable(),
		abcl.WithBatching(10*abcl.Microsecond, 0), abcl.WithDelayedAcks(500*abcl.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	received := make([]int64, nodes) // per-node slots: method bodies share no Go state
	hit := sys.Pattern("burst.hit", 1)
	kick := sys.Pattern("burst.kick", 0)
	peerCls := sys.Class("burst.peer", 0, nil)
	peerCls.Method(hit, func(ctx *abcl.Ctx) { received[ctx.NodeID()]++ })
	peers := make([]abcl.Address, nodes)
	for i := range peers {
		peers[i] = sys.NewObjectOn(i, peerCls)
	}
	srcCls := sys.Class("burst.src", 0, nil)
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		for d := range peers {
			for r := 0; d != ctx.NodeID() && r < rounds; r++ {
				ctx.SendPast(peers[d], hit, abcl.Int(int64(r)))
			}
		}
	})
	srcs := make([]abcl.Address, nodes)
	for i := range srcs {
		srcs[i] = sys.NewObjectOn(i, srcCls)
	}
	burst := func() uint64 {
		for _, s := range srcs {
			sys.Send(s, kick)
		}
		return mallocsDuring(func() {
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const msgs = nodes * (nodes - 1) * rounds
	first := burst()
	second := burst()
	var got int64
	for _, n := range received {
		got += n
	}
	c := sys.Report().Sched.Counters
	if got != 2*msgs || c.Retransmits != 0 || c.BatchesSent == 0 || c.AcksCoalesced == 0 {
		t.Fatalf("delivered %d of %d, retransmits=%d batches=%d coalesced=%d", got, 2*msgs, c.Retransmits, c.BatchesSent, c.AcksCoalesced)
	}
	t.Logf("first burst %d allocations, second %d, over %d messages each", first, second, msgs)
	if per := float64(second) / msgs; per > 0.01 {
		t.Errorf("second burst: %d allocations over %d reliable messages (%.3f each), want none", second, msgs, per)
	}
}

// Once a node has created on a peer, creating there again allocates nothing
// of its own: the stock slot is made, the created Object is carved from an
// arena block at the pop, the replacement chunk the target sends back is a
// count, and the request and the reply ride recycled wire records; a miss
// that blocks its creator saves its context in a recycled record, which the
// request and reply carry as data. A second identical creation burst over
// stock slots the first one made may pay for arena blocks (one per several
// hundred Objects) and nothing per creation or per miss.
func TestRemoteCreateSteadyStateAllocatesNothing(t *testing.T) {
	const nodes, laps = 16, 6 // round-robin placement: a lap creates once on every node
	sys, err := abcl.NewSystem(abcl.WithNodes(nodes), abcl.WithPlacement(abcl.PlaceRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	kick := sys.Pattern("burst.kick", 0)
	objCls := sys.Class("burst.obj", 0, nil)
	srcCls := sys.Class("burst.src", 1, nil) // state 0: creations still to make
	// A creation may find its stock empty and block, so the loop is a
	// continuation chain; one continuation serves every source, its cursor in
	// the source's state.
	var next func(*abcl.Ctx, abcl.Address)
	next = func(ctx *abcl.Ctx, _ abcl.Address) {
		left := ctx.State(0).Int() - 1
		ctx.SetState(0, abcl.Int(left))
		if left > 0 {
			ctx.Create(objCls, nil, next)
		}
	}
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SetState(0, abcl.Int(nodes*laps))
		ctx.Create(objCls, nil, next)
	})
	srcs := make([]abcl.Address, nodes)
	for i := range srcs {
		srcs[i] = sys.NewObjectOn(i, srcCls)
	}
	burst := func() uint64 {
		for _, s := range srcs {
			sys.Send(s, kick)
		}
		return mallocsDuring(func() {
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const creations = nodes * nodes * laps
	first := burst()
	before := sys.Report().Sched.Counters
	second := burst()
	c := sys.Report().Sched.Counters
	if got := c.Creations() - nodes; got != 2*creations || c.StockHits == before.StockHits {
		t.Fatalf("%d creations, want %d; stock hits %d -> %d", got, 2*creations, before.StockHits, c.StockHits)
	}
	misses := c.StockMisses - before.StockMisses
	t.Logf("first burst %d allocations, second %d, over %d creations each (%d stock misses in the second)",
		first, second, creations, misses)
	if per := float64(second) / creations; per > 0.01 {
		t.Errorf("second burst: %d allocations over %d creations (%.3f each), want arena blocks only", second, creations, per)
	}
}

// Under the reliable protocol with a fault model the wire record outlives
// its header: every attempt travels under a pooled packet of the machine's,
// which a lossy, duplicating interconnect drops, copies and reorders. Nothing may be
// lost, delivered twice or delivered out of order, run after run.
func TestRecordPoolReliableLossy(t *testing.T) {
	run := func() *misc.AllToAllResult {
		res, err := misc.RunAllToAll(misc.AllToAllOptions{
			Nodes: 8, Rounds: 12,
			Opts: []abcl.Option{
				abcl.WithReliable(),
				abcl.WithFaults(abcl.UniformFaults(0.10, 0.10, 2*abcl.Microsecond)),
				abcl.WithSeed(11),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != 8*7*12 || a.Violations != 0 {
		t.Errorf("delivered=%d violations=%d, want %d/0", a.Delivered, a.Violations, 8*7*12)
	}
	c := a.Stats
	if c.LostMessages() != 0 {
		t.Errorf("lost=%d, want 0", c.LostMessages())
	}
	if c.Retransmits == 0 || c.DupSuppressed == 0 {
		t.Errorf("fault plan idle: retransmits=%d dupSuppressed=%d", c.Retransmits, c.DupSuppressed)
	}
	if *a != *b {
		t.Errorf("lossy reliable run is not reproducible:\n a %+v\n b %+v", *a, *b)
	}
}

// A remote message is one record, and the record is the frame its receiver
// runs or queues: while a receiver blocked on a round trip buffers arrivals,
// the records themselves wait in its message queue, so whatever else holds a
// record — a batch chain, a reliable retransmission, checkpoint retention
// and its replay after a rollback — must never recycle or rewrite it there.
// Only a lossless, checkpoint-free run sends a record's first attempt under
// the record's own header; the reliable runs below all have a fault model or
// checkpointing, so every attempt in them travels under a pooled packet
// (remote.TestFirstAttemptRidesItsRecord pins both sides).
// The sink below blocks on a store for every put, so most puts arrive while
// it is active and queue; a put is an inline pair or a spilled triple that
// adds its sequence number, and the sink folds each client's puts, in their
// per-link order, into a hash. Drops and duplicates under the
// reliable protocol, with and without batching and delayed acks, and a crash
// of the sink's node that rolls back puts delivered after the last snapshot
// and replays their records, must all leave exactly the fault-free hashes.
func TestRecordFrameOwnershipPin(t *testing.T) {
	const nodes, perNode, puts = 8, 2, 24
	const clients = (nodes - 1) * perNode
	run := func(opts ...abcl.Option) (string, abcl.Report) {
		sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(nodes), abcl.WithSeed(5)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		put2, put3 := sys.Pattern("own.put2", 2), sys.Pattern("own.put3", 3)
		ask, kick := sys.Pattern("own.ask", 1), sys.Pattern("own.kick", 0)
		store := sys.Class("own.store", 0, nil)
		store.Method(ask, func(ctx *abcl.Ctx) { ctx.Reply(abcl.Int(2*ctx.Arg(0).Int() + 1)) })
		storeAddr := sys.NewObjectOn(1, store)
		// State: one hash per client, then the count of puts.
		sink := sys.Class("own.sink", clients+1, func(ic *abcl.InitCtx) {
			for i := 0; i <= clients; i++ {
				ic.SetState(i, abcl.Int(0))
			}
		})
		fold := func(ctx *abcl.Ctx, client, seq, v int64) {
			ctx.SendNow(storeAddr, ask, []abcl.Value{abcl.Int(v)}, func(ctx *abcl.Ctx, r abcl.Value) {
				h := ctx.State(int(client)).Int()
				ctx.SetState(int(client), abcl.Int(h*1_000_003+seq*7919+r.Int()))
				ctx.SetState(clients, abcl.Int(ctx.State(clients).Int()+1))
			})
		}
		sink.Method(put2, func(ctx *abcl.Ctx) { fold(ctx, ctx.Arg(0).Int(), -1, ctx.Arg(1).Int()) })
		sink.Method(put3, func(ctx *abcl.Ctx) { fold(ctx, ctx.Arg(0).Int(), ctx.Arg(1).Int(), ctx.Arg(2).Int()) })
		sinkAddr := sys.NewObjectOn(0, sink)
		client := sys.Class("own.client", 1, func(ic *abcl.InitCtx) { ic.SetState(0, ic.CtorArg(0)) })
		client.Method(kick, func(ctx *abcl.Ctx) {
			id := ctx.State(0).Int()
			for i := range int64(puts) {
				ctx.Charge(2000) // puts leave over the whole run
				if v := id*1000 + i; i%2 == 0 {
					ctx.SendPast(sinkAddr, put2, abcl.Int(id), abcl.Int(v))
				} else {
					ctx.SendPast(sinkAddr, put3, abcl.Int(id), abcl.Int(i), abcl.Int(v))
				}
			}
		})
		for id := range clients {
			sys.Send(sys.NewObjectOn(1+id/perNode, client, abcl.Int(int64(id))), kick)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i <= clients; i++ {
			fmt.Fprintf(&b, "%d ", sinkAddr.Obj.State(i).Int())
		}
		return b.String(), sys.Report()
	}
	var want strings.Builder
	for id := range int64(clients) {
		var h int64
		for i := range int64(puts) {
			seq := i
			if i%2 == 0 {
				seq = -1
			}
			h = h*1_000_003 + seq*7919 + 2*(id*1000+i) + 1
		}
		fmt.Fprintf(&want, "%d ", h)
	}
	fmt.Fprintf(&want, "%d ", clients*puts)
	clean, cleanRep := run()
	if clean != want.String() {
		t.Fatalf("fault-free sink observed\n %s\nwant\n %s", clean, want.String())
	}
	el := cleanRep.Sched.Elapsed
	lossy := abcl.UniformFaults(0.08, 0.08, 2*abcl.Microsecond)
	for _, tc := range []struct {
		name string
		opts []abcl.Option
	}{
		{"drop-dup", []abcl.Option{abcl.WithFaults(lossy)}},
		{"drop-dup-batched-delayed-acks", []abcl.Option{abcl.WithFaults(lossy),
			abcl.WithBatching(5*abcl.Microsecond, 0), abcl.WithDelayedAcks(20 * abcl.Microsecond)}},
		{"crash-replay", []abcl.Option{abcl.WithCheckpoint(el / 8),
			abcl.WithFaults(abcl.FaultPlan{}.WithCrash(0, el/2, el/10))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := run(tc.opts...)
			if got != clean {
				t.Errorf("sink observed\n %s\nwant the fault-free\n %s", got, clean)
			}
			c := rep.Sched.Counters
			var active uint64
			for _, cs := range rep.Profile.Classes {
				if cs.Class == "own.sink" {
					active = cs.Active
				}
			}
			switch {
			case active == 0:
				t.Error("no put reached the sink while it was active: nothing queued a record")
			case tc.name == "crash-replay" && (c.ReplayedMsgs == 0 || c.RemoteDelivers <= cleanRep.Sched.Counters.RemoteDelivers):
				t.Errorf("replayed=%d delivers=%d (fault-free %d): no delivered record was replayed",
					c.ReplayedMsgs, c.RemoteDelivers, cleanRep.Sched.Counters.RemoteDelivers)
			case tc.name != "crash-replay" && (c.Retransmits == 0 || c.DupSuppressed == 0):
				t.Errorf("fault plan idle: retransmits=%d dupSuppressed=%d", c.Retransmits, c.DupSuppressed)
			}
		})
	}
}
