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

// MaxN is the largest board the program runs: the capacity of the fixed-size
// Board record. N = 13 is the paper's largest run and already makes 4.7
// million objects; the limit costs nothing reachable and bounds every loop
// and shift that a hostile size would otherwise run away with.
const MaxN = 15

// CheckN rejects a board size the program cannot run.
func CheckN(n int) error {
	if n < 1 || n > MaxN {
		return fmt.Errorf("nqueens: N must be in 1..%d, got %d", MaxN, n)
	}
	return nil
}

// Board is a partial placement: the queen on row r < rows sits in column
// cols[r]. A board is carved on the lane that derives it, written once there
// before its pointer is sent, and only read afterwards — the pointer, not a
// slice header, rides abcl.Any, so sending one boxes nothing.
type Board struct {
	rows uint8
	cols [MaxN]int8
}

// SizeBytes implements core.Sizer for wire-size accounting: a length word
// and one byte per placed queen.
func (b *Board) SizeBytes() int { return 8 + int(b.rows) }

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
	if err := CheckN(opt.N); err != nil {
		return Result{}, err
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

	// Boards and spawn records are carved, never released; a child is
	// expanded on another node than the one that derived its board.
	boards sim.Arena[Board]
	spawns sim.Arena[spawn]
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
	stNext    = 3 // next index into the spawn record's valid columns
)

// Build registers the N-queens classes on sys. Call Start before sys.Run. A
// board size CheckN rejects is the caller's bug and panics; Run and the
// workload table check it first.
func Build(sys *abcl.System, n, workFactor int) *Driver {
	if err := CheckN(n); err != nil {
		panic(err)
	}
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
		d.expandBoard(ctx, d.boards.New())
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
	d.expandBoard(ctx, ctx.Arg(0).Any().(*Board))
}

// expandBoard performs the node expansion: charge the modelled search work,
// then either report a solution/dead end or create one child per valid
// next-row placement.
func (d *Driver) expandBoard(ctx *abcl.Ctx, b *Board) {
	ctx.Charge(d.work)
	parent := ctx.State(stParent).Ref()
	if int(b.rows) == d.n {
		// A complete placement: one solution.
		ctx.SendPast(parent, d.patDone, abcl.Int(1))
		return
	}
	var valid [MaxN]int8
	nvalid := validColumns(b, d.n, &valid)
	if nvalid == 0 {
		ctx.SendPast(parent, d.patDone, abcl.Int(0))
		return
	}
	ctx.SetState(stPending, abcl.Int(int64(nvalid)))
	sp := d.spawns.New()
	*sp = spawn{d: d, board: *b, valid: valid, nvalid: int8(nvalid),
		ctorArgs: [1]abcl.Value{abcl.Ref(ctx.Self())}}
	sp.k = sp.next
	ctx.SetState(stNext, abcl.Int(0))
	ctx.Create(d.nodeCls, sp.ctorArgs[:], sp.k)
}

// spawn is what one internal node's creation loop reads: the creation itself
// can block when the chunk stock runs dry, so the loop is a continuation
// chain, and a single continuation (k, the record's own next) and ctor-arg
// list serve every child. The record is write-once — filled before the first
// Create and never touched again — while the loop cursor advances through the
// stNext state variable; that keeps a parked continuation restorable from a
// checkpoint.
type spawn struct {
	d        *Driver
	board    Board
	valid    [MaxN]int8 // columns a child may take, ascending
	nvalid   int8
	ctorArgs [1]abcl.Value
	k        func(*abcl.Ctx, abcl.Address)
}

// next sends the child just created its board and creates the following one.
func (sp *spawn) next(ctx *abcl.Ctx, addr abcl.Address) {
	j := int(ctx.State(stNext).Int())
	child := sp.d.boards.New()
	*child = sp.board
	child.cols[child.rows] = sp.valid[j]
	child.rows++
	ctx.SendPast(addr, sp.d.patExpand, abcl.Any(child))
	j++
	if j == int(sp.nvalid) {
		return
	}
	ctx.SetState(stNext, abcl.Int(int64(j)))
	ctx.Create(sp.d.nodeCls, sp.ctorArgs[:], sp.k)
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

// validColumns fills out with the columns where a queen may be placed on
// row b.rows without attacking any earlier queen, ascending, and returns
// how many there are.
func validColumns(b *Board, n int, out *[MaxN]int8) int {
	k := 0
	for c := int8(0); int(c) < n; c++ {
		if safe(b, int(b.rows), c) {
			out[k] = c
			k++
		}
	}
	return k
}

// safe reports whether a queen at (row, col) is unattacked by b.
func safe(b *Board, row int, col int8) bool {
	for r, c := range b.cols[:b.rows] {
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
