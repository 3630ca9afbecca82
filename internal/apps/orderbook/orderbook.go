// Package orderbook implements the bank/order-book contention workload: a
// single "book" object holds a set of account balances and serves three
// operation classes with different compatibility:
//
//   - balance(acct)            — read-only; grouped as "reads"
//   - deposit(acct, amt)       — commutative update; grouped as "deposits"
//   - transfer(from, to, amt)  — read-modify-write across two accounts;
//     deliberately left ungrouped, so it runs exclusively
//
// Every operation appends an entry to a remote audit log before replying,
// so each invocation blocks for a wire round trip — the window the
// multiactive scheduler fills with compatible work. Transfers are the
// correctness anchor: because they stay exclusive they can never interleave
// with each other, and the total balance is conserved exactly. The
// workload demonstrates the partial-annotation story of the multiactive
// model: annotate what is provably compatible, leave the rest serial, and
// keep serial semantics for the unannotated methods.
package orderbook

import (
	"fmt"

	abcl "repro"
	"repro/internal/sim"
)

// Options are the workload's own parameters; the machine it runs on is
// described by the abcl options passed alongside (>= 2 nodes: the book sits
// on node 0, one audit-log shard on every other node).
type Options struct {
	Accounts int // balances held by the book (default 8)
	Clients  int // closed-loop client objects
	Ops      int // operations per client
	// TransferPct is the percentage of operations that are transfers
	// (default 10); DepositPct the percentage that are deposits (default
	// 30). The rest are balance reads.
	TransferPct int
	DepositPct  int
	Grouped     bool // declare the compatibility groups (false = fully serial book)
}

// Result reports a run.
type Result struct {
	Ops        int64 // operations completed
	Reads      int64
	Deposits   int64
	Transfers  int64
	Total      int64 // final sum of balances
	WantTotal  int64 // initial funds + all deposits
	MaxLive    int   // peak concurrent invocations at the book
	AuditLen   int64 // audit-log entries (must equal Ops)
	Elapsed    sim.Time
	Throughput float64 // operations per virtual millisecond
	Stats      abcl.Counters
	Report     abcl.Report
}

const initialBalance = 1000

// Check rejects parameters the workload cannot run on a machine of nodes
// processors. Run asks it, and so does the run-spec check before anything is
// built.
func Check(opt Options, nodes int) error {
	switch {
	case opt.Clients < 1 || opt.Ops < 1:
		return fmt.Errorf("orderbook: clients and ops must be >= 1")
	case nodes < 2:
		return fmt.Errorf("orderbook: need >= 2 nodes, got %d", nodes)
	}
	return nil
}

// Run executes the workload on a system built from opts and returns the
// result.
func Run(opt Options, opts ...abcl.Option) (Result, error) {
	accounts := opt.Accounts
	if accounts == 0 {
		accounts = 8
	}
	transferPct := opt.TransferPct
	if transferPct == 0 {
		transferPct = 10
	}
	depositPct := opt.DepositPct
	if depositPct == 0 {
		depositPct = 30
	}
	if transferPct+depositPct > 100 {
		return Result{}, fmt.Errorf("orderbook: transfer%%+deposit%% = %d > 100", transferPct+depositPct)
	}

	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		return Result{}, err
	}
	nodes := sys.Nodes()
	if err := Check(opt, nodes); err != nil {
		return Result{}, err
	}

	balance := sys.Pattern("ob.balance", 1)   // acct
	deposit := sys.Pattern("ob.deposit", 2)   // acct, amt
	transfer := sys.Pattern("ob.transfer", 3) // from, to, amt
	record := sys.Pattern("ob.record", 1)     // audit entry
	step := sys.Pattern("ob.step", 1)
	done := sys.Pattern("ob.done", 0)

	// Every count the ledger check reads lives in object state rather than a
	// host variable, so that a checkpoint rollback rewinds it together with
	// the balances — the host-write rule (DESIGN.md §10) for crash runs.
	// A count never bumped reads as the nil Value.
	count := func(v abcl.Value) int64 {
		if v.IsNil() {
			return 0
		}
		return v.Int()
	}
	bump := func(ctx *abcl.Ctx, i int) { ctx.SetState(i, abcl.Int(count(ctx.State(i))+1)) }

	// The audit log: sharded across the non-book nodes like a replicated
	// journal; every book operation round-trips to one shard before it
	// replies. Each shard counts its entries for the ledger check.
	audit := sys.Class("ob.audit", 1, nil).
		Method(record, func(ctx *abcl.Ctx) {
			ctx.Charge(300)
			bump(ctx, 0)
			ctx.Reply(abcl.Int(0))
		})
	logs := make([]abcl.Address, nodes-1)
	for i := range logs {
		logs[i] = sys.NewObjectOn(i+1, audit)
	}

	// The book. State: one balance per account, a rotating audit-shard
	// cursor and the completed reads, deposits and transfers. Updates are
	// applied before the audit round trip, so grouped deposits (commutative)
	// and exclusive transfers are both exact.
	cursor := accounts // state index of the shard cursor
	stReads, stDeposits, stTransfers := accounts+1, accounts+2, accounts+3
	nextLog := func(ctx *abcl.Ctx) abcl.Address {
		cur := ctx.State(cursor).Int()
		ctx.SetState(cursor, abcl.Int(cur+1))
		return logs[cur%int64(len(logs))]
	}
	// maxLive is a host-side monotonic maximum — idempotent under replay.
	maxLive := 0
	noteLive := func(ctx *abcl.Ctx) {
		if l := ctx.Self().Obj.LiveInvocations(); l > maxLive {
			maxLive = l
		}
	}
	book := sys.Class("ob.book", accounts+4, func(ic *abcl.InitCtx) {
		for a := 0; a < accounts; a++ {
			ic.SetState(a, abcl.Int(initialBalance))
		}
		ic.SetState(cursor, abcl.Int(0))
	}).
		Method(balance, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			acct := int(ctx.Arg(0).Int())
			ctx.SendNow(nextLog(ctx), record, []abcl.Value{abcl.Int(int64(acct))}, func(ctx *abcl.Ctx, _ abcl.Value) {
				bump(ctx, stReads)
				ctx.Reply(ctx.State(acct))
			})
		}).
		Method(deposit, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			acct := int(ctx.Arg(0).Int())
			amt := ctx.Arg(1).Int()
			v := ctx.State(acct).Int() + amt
			ctx.SetState(acct, abcl.Int(v))
			ctx.SendNow(nextLog(ctx), record, []abcl.Value{abcl.Int(amt)}, func(ctx *abcl.Ctx, _ abcl.Value) {
				bump(ctx, stDeposits)
				ctx.Reply(abcl.Int(v))
			})
		}).
		Method(transfer, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			if l := ctx.Self().Obj.LiveInvocations(); l > 1 {
				// Exclusive by construction: the scheduler must never let a
				// transfer overlap anything else.
				panic(fmt.Sprintf("orderbook: transfer running with %d live invocations", l))
			}
			from := int(ctx.Arg(0).Int())
			to := int(ctx.Arg(1).Int())
			amt := ctx.Arg(2).Int()
			moved := int64(0)
			if ctx.State(from).Int() >= amt {
				ctx.SetState(from, abcl.Int(ctx.State(from).Int()-amt))
				ctx.SetState(to, abcl.Int(ctx.State(to).Int()+amt))
				moved = amt
			}
			ctx.SendNow(nextLog(ctx), record, []abcl.Value{abcl.Int(moved)}, func(ctx *abcl.Ctx, _ abcl.Value) {
				bump(ctx, stTransfers)
				ctx.Reply(abcl.Int(moved))
			})
		})
	if opt.Grouped {
		book.Group("reads", balance).
			Group("deposits", deposit).
			Priority("deposits", 1)
	}
	bookAddr := sys.NewObjectOn(0, book)

	// Closed-loop clients with a deterministic (client, op index) mix.
	var collector abcl.Address
	var wantDeposits int64
	mix := func(client, i int) (p abcl.Pattern, args []abcl.Value) {
		h := (client*131 + i*31) % 100
		acct := (client + i) % accounts
		switch {
		case h < transferPct:
			to := (acct + 1 + i%(accounts-1)) % accounts
			return transfer, []abcl.Value{abcl.Int(int64(acct)), abcl.Int(int64(to)), abcl.Int(int64(1 + i%50))}
		case h < transferPct+depositPct:
			return deposit, []abcl.Value{abcl.Int(int64(acct)), abcl.Int(int64(1 + i%20))}
		default:
			return balance, []abcl.Value{abcl.Int(int64(acct))}
		}
	}
	client := sys.Class("ob.client", 1, func(ic *abcl.InitCtx) {
		ic.SetState(0, ic.CtorArg(0)) // client id, fixes the op mix
	}).
		Method(step, func(ctx *abcl.Ctx) {
			rem := ctx.Arg(0).Int()
			if rem == 0 {
				ctx.SendPast(collector, done)
				return
			}
			i := opt.Ops - int(rem)
			p, args := mix(int(ctx.State(0).Int()), i)
			next := abcl.Int(rem - 1)
			ctx.SendNow(bookAddr, p, args, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SendPast(ctx.Self(), step, next)
			})
		})
	coll := sys.Class("ob.coll", 1, nil).
		Method(done, func(ctx *abcl.Ctx) { bump(ctx, 0) })
	collector = sys.NewObjectOn(0, coll)

	for ci := 0; ci < opt.Clients; ci++ {
		node := 1 + ci%(nodes-1)
		c := sys.NewObjectOn(node, client, abcl.Int(int64(ci)))
		sys.Send(c, step, abcl.Int(int64(opt.Ops)))
	}
	// Deposits are deterministic from the mix; pre-compute the expected total.
	for ci := 0; ci < opt.Clients; ci++ {
		for i := 0; i < opt.Ops; i++ {
			if p, args := mix(ci, i); p == deposit {
				wantDeposits += args[1].Int()
			}
		}
	}

	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	if finished := count(collector.Obj.State(0)); finished != int64(opt.Clients) {
		return Result{}, fmt.Errorf("orderbook: %d of %d clients finished", finished, opt.Clients)
	}
	var total, auditLen int64
	for a := 0; a < accounts; a++ {
		total += bookAddr.Obj.State(a).Int()
	}
	for _, lg := range logs {
		auditLen += count(lg.Obj.State(0))
	}
	bk := bookAddr.Obj
	reads, deposits, transfers := count(bk.State(stReads)), count(bk.State(stDeposits)), count(bk.State(stTransfers))
	rep := sys.Report()
	res := Result{
		Ops:       reads + deposits + transfers,
		Reads:     reads,
		Deposits:  deposits,
		Transfers: transfers,
		Total:     total,
		WantTotal: int64(accounts)*initialBalance + wantDeposits,
		MaxLive:   maxLive,
		AuditLen:  auditLen,
		Elapsed:   rep.Sched.Elapsed,
		Stats:     rep.Sched.Counters,
		Report:    rep,
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.Elapsed) / 1e6)
	}
	if res.Ops != int64(opt.Clients)*int64(opt.Ops) {
		return res, fmt.Errorf("orderbook: completed %d ops, want %d", res.Ops, int64(opt.Clients)*int64(opt.Ops))
	}
	if res.Total != res.WantTotal {
		return res, fmt.Errorf("orderbook: funds not conserved: total %d, want %d", res.Total, res.WantTotal)
	}
	if res.AuditLen != res.Ops {
		return res, fmt.Errorf("orderbook: audit log has %d entries, want %d", res.AuditLen, res.Ops)
	}
	return res, nil
}
