// Package nqueens implements the paper's benchmark application: exhaustive
// N-queens search as a tree of concurrent objects (Section 6.2).
//
// Every valid partial placement of queens becomes one concurrent object.
// An object receives an "expand" message carrying its board, computes the
// valid placements of the next row, creates one child object per valid
// placement (through the system placement policy), and sends each child an
// "expand". Completion is detected by acknowledgement messages tracing back
// the search tree: each object reports its solution count to its parent
// with a "done" message once all children have reported — the paper's
// termination-detection scheme. Message and object counts therefore match
// the paper's Table 4 (one creation and two messages per search-tree node).
package nqueens

import (
	"fmt"

	abcl "repro"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Board is a partial placement: Board[r] is the column of the queen on row
// r. Boards are immutable once sent.
type Board []int8

// SizeBytes implements core.Sizer for wire-size accounting.
func (b Board) SizeBytes() int { return 8 + len(b) }

// DefaultWorkFactor calibrates per-node search work to the paper's
// sequential timings: about 6.6*N*N instructions per tree node reproduces
// the SPARCstation 1+ elapsed times of Table 4 (84ms for N=8, ~462s for
// N=13) given the AP1000 cost model. The factor is in tenths.
const DefaultWorkFactor = 66

// WorkInstr returns the modelled instruction cost of expanding one tree
// node for board size n with the given work factor (tenths).
func WorkInstr(n, factor int) int {
	if factor <= 0 {
		factor = DefaultWorkFactor
	}
	return factor * n * n / 10
}

// Options are the program's own parameters; the machine it runs on is
// described by the abcl options passed alongside.
type Options struct {
	N          int // board size
	WorkFactor int // tenths of instructions per N^2; 0 = DefaultWorkFactor
}

// Result reports one parallel run.
type Result struct {
	N           int
	Nodes       int
	Solutions   int64
	Objects     uint64 // search-tree objects created
	Messages    uint64 // object-to-object messages
	Elapsed     sim.Time
	Utilization float64
	MemoryBytes uint64 // modelled heap usage (objects + message frames)
	Packets     uint64 // hardware packets launched
	Stats       stats.Counters
	Report      abcl.Report // grouped snapshot; Profile section set under abcl.WithProfiler
}

// Run executes a parallel N-queens search on a system built from opts and
// returns its result. Placement defaults to random, for load balance; a
// WithPlacement among opts overrides it.
func Run(opt Options, opts ...abcl.Option) (Result, error) {
	if opt.N < 1 {
		return Result{}, fmt.Errorf("nqueens: N must be >= 1, got %d", opt.N)
	}
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithPlacement(abcl.PlaceRandom)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	d := Build(sys, opt.N, opt.WorkFactor)
	d.Start()
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return d.Result()
}

// Driver owns one N-queens computation on a System.
type Driver struct {
	sys  *abcl.System
	n    int
	work int

	patExpand abcl.Pattern
	patDone   abcl.Pattern
	patStart  abcl.Pattern

	nodeCls      *abcl.Class
	collectorCls *abcl.Class
	rootCls      *abcl.Class

	root      abcl.Address
	collector abcl.Address

	solutions  int64
	finishedAt sim.Time
	finished   bool
}

// State variable indices for the search-node class. The spawn cursor lives
// in simulated state rather than in the spawn continuation's closure: a
// checkpoint captures parked continuations by reference, so their captured
// variables must never be mutated after parking (the write-once environment
// contract, DESIGN.md §10) — advancing the cursor through SetState keeps the
// mutation inside the state box the snapshot copies.
const (
	stParent  = 0
	stPending = 1
	stAcc     = 2
	stNext    = 3 // next index into the valid-columns slice while spawning
)

// Build registers the N-queens classes on sys. Call Start before sys.Run.
func Build(sys *abcl.System, n, workFactor int) *Driver {
	d := &Driver{sys: sys, n: n, work: WorkInstr(n, workFactor)}

	d.patExpand = sys.Pattern("nq.expand", 1) // board
	d.patDone = sys.Pattern("nq.done", 1)     // solution count
	d.patStart = sys.Pattern("nq.start", 0)

	// The search-tree object: created with its parent's address, expanded
	// once, then accumulates children's done-counts.
	d.nodeCls = sys.Class("nq.node", 4, func(ic *abcl.InitCtx) {
		ic.SetState(stParent, ic.CtorArg(0))
		ic.SetState(stPending, abcl.Int(0))
		ic.SetState(stAcc, abcl.Int(0))
		ic.SetState(stNext, abcl.Int(0))
	})
	d.nodeCls.Method(d.patExpand, d.expandMethod)
	d.nodeCls.Method(d.patDone, d.doneMethod)

	// The collector records the final solution count and completion time.
	// These are host-side observer fields, so they are not rolled back by a
	// checkpoint restore — which is safe because the method only *sets*
	// values that are deterministic across timelines (the search is
	// confluent), never accumulates (the host-write rule, DESIGN.md §10).
	d.collectorCls = sys.Class("nq.collector", 1, nil)
	d.collectorCls.Method(d.patDone, func(ctx *abcl.Ctx) {
		d.solutions = ctx.Arg(0).Int()
		d.finishedAt = ctx.Now()
		d.finished = true
	})

	// The root behaves like a search node with an empty board.
	d.rootCls = sys.Class("nq.root", 4, func(ic *abcl.InitCtx) {
		ic.SetState(stParent, ic.CtorArg(0))
		ic.SetState(stPending, abcl.Int(0))
		ic.SetState(stAcc, abcl.Int(0))
		ic.SetState(stNext, abcl.Int(0))
	})
	d.rootCls.Method(d.patStart, func(ctx *abcl.Ctx) {
		d.expandBoard(ctx, Board{})
	})
	d.rootCls.Method(d.patDone, d.doneMethod)

	d.collector = sys.NewObjectOn(0, d.collectorCls)
	d.root = sys.NewObjectOn(0, d.rootCls, abcl.Ref(d.collector))
	return d
}

// Start injects the initial expand message.
func (d *Driver) Start() { d.sys.Send(d.root, d.patStart) }

// expandMethod handles nq.expand on a search node.
func (d *Driver) expandMethod(ctx *abcl.Ctx) {
	b := ctx.Arg(0).Any().(Board)
	d.expandBoard(ctx, b)
}

// expandBoard performs the node expansion: charge the modelled search work,
// then either report a solution/dead end or create one child per valid
// next-row placement.
func (d *Driver) expandBoard(ctx *abcl.Ctx, b Board) {
	ctx.Charge(d.work)
	parent := ctx.State(stParent).Ref()
	row := len(b)
	if row == d.n {
		// A complete placement: one solution.
		ctx.SendPast(parent, d.patDone, abcl.Int(1))
		return
	}
	valid := validColumns(b, d.n)
	if len(valid) == 0 {
		ctx.SendPast(parent, d.patDone, abcl.Int(0))
		return
	}
	ctx.SetState(stPending, abcl.Int(int64(len(valid))))
	d.spawnChildren(ctx, b, valid, 0)
}

// spawnChildren creates children for each valid column in CPS order: the
// creation itself can block when the chunk stock runs dry, so the loop is
// expressed as a continuation chain. A single continuation and ctor-arg
// slice serve every child of this node; the continuation re-arms itself
// until the valid columns are exhausted. The loop cursor advances through
// the stNext state variable, never through the closure environment — b and
// valid are captured but write-once, which keeps a parked continuation
// restorable from a checkpoint.
func (d *Driver) spawnChildren(ctx *abcl.Ctx, b Board, valid []int8, i int) {
	if i == len(valid) {
		return
	}
	ctorArgs := []abcl.Value{abcl.Ref(ctx.Self())}
	var k func(*abcl.Ctx, abcl.Address)
	k = func(ctx *abcl.Ctx, addr abcl.Address) {
		j := int(ctx.State(stNext).Int())
		ctx.SendPast(addr, d.patExpand, abcl.Any(nextChild(b, valid[j])))
		j++
		if j == len(valid) {
			return
		}
		ctx.SetState(stNext, abcl.Int(int64(j)))
		ctx.Create(d.nodeCls, ctorArgs, k)
	}
	ctx.SetState(stNext, abcl.Int(int64(i)))
	ctx.Create(d.nodeCls, ctorArgs, k)
}

// nextChild extends b with a queen in column col on the next row.
func nextChild(b Board, col int8) Board {
	child := make(Board, len(b)+1)
	copy(child, b)
	child[len(b)] = col
	return child
}

// doneMethod accumulates a child's solution count; when the last child has
// reported, the node acknowledges up the tree.
func (d *Driver) doneMethod(ctx *abcl.Ctx) {
	acc := ctx.State(stAcc).Int() + ctx.Arg(0).Int()
	pending := ctx.State(stPending).Int() - 1
	ctx.SetState(stAcc, abcl.Int(acc))
	ctx.SetState(stPending, abcl.Int(pending))
	if pending == 0 {
		ctx.SendPast(ctx.State(stParent).Ref(), d.patDone, abcl.Int(acc))
	}
}

// Result summarizes the run. Valid after sys.Run has reached quiescence.
func (d *Driver) Result() (Result, error) {
	if !d.finished {
		return Result{}, fmt.Errorf("nqueens: N=%d run did not complete (termination detection failed)", d.n)
	}
	rep := d.sys.Report()
	c := rep.Sched.Counters
	objects := c.Creations() - 2 // exclude root and collector
	messages := c.TotalMessages()
	return Result{
		N:           d.n,
		Nodes:       rep.Sched.Nodes,
		Solutions:   d.solutions,
		Objects:     objects,
		Messages:    messages,
		Elapsed:     d.finishedAt,
		Utilization: rep.Sched.Utilization,
		MemoryBytes: objects*objectBytes + messages*frameBytes,
		Packets:     rep.Wire.Packets,
		Stats:       c,
		Report:      rep,
	}, nil
}

// Modelled heap footprints: a concurrent object header plus three state
// variables, and a buffered message frame (Table 4's memory accounting).
const (
	objectBytes = 64
	frameBytes  = 28
)

// validColumns returns the columns where a queen may be placed on row
// len(b) without attacking any earlier queen.
func validColumns(b Board, n int) []int8 {
	row := len(b)
	var out []int8
	for c := int8(0); int(c) < n; c++ {
		if safe(b, row, c) {
			out = append(out, c)
		}
	}
	return out
}

// safe reports whether a queen at (row, col) is unattacked by b.
func safe(b Board, row int, col int8) bool {
	for r, c := range b {
		if c == col {
			return false
		}
		d := row - r
		if int(c)-int(col) == d || int(col)-int(c) == d {
			return false
		}
	}
	return true
}
