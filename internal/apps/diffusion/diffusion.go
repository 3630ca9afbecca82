// Package diffusion implements an iterative Jacobi stencil as a grid of
// concurrent objects — the nearest-neighbour communication pattern that
// complements the tree-structured N-queens benchmark. Each grid cell is an
// object that, per iteration, sends its value to its neighbours and
// selectively waits until it has received all of theirs before computing
// the next value.
//
// Iterations are double-buffered by message *pattern* parity (df.val0 /
// df.val1): a neighbour can run at most one iteration ahead, and its
// early values arrive under the other parity's pattern — while a cell waits
// for the current parity, the waiting-mode table buffers the other parity
// in the message queue exactly as Section 4.2 prescribes, and the next
// iteration's WaitFor finds them by its initial queue scan. The stencil is
// thus numerically identical to the sequential Jacobi sweep.
//
// The workload stresses selective message reception (a four-way join every
// iteration), message throughput, and placement locality; it is the
// placement ablation of the experiments' Table 6.
package diffusion

import (
	"fmt"
	"math"

	abcl "repro"
	"repro/internal/sim"
)

// Options are the stencil's own parameters; the machine it runs on is
// described by the abcl options passed alongside.
type Options struct {
	W, H       int  // grid dimensions (cells)
	Iters      int  // Jacobi iterations
	WorkInstr  int  // modelled compute per cell update (default 40)
	BlockPlace bool // true: block decomposition (locality); false: scatter
}

// Result reports a run.
type Result struct {
	Elapsed     sim.Time
	Utilization float64
	Residual    float64 // final max |update| across cells
	Stats       abcl.Counters
	Report      abcl.Report // grouped snapshot, cost-attribution profile included
}

// State variable indices for a cell object.
const (
	stIdx    = 0 // grid index
	stVal    = 1 // current value
	stIter   = 2 // remaining iterations
	stResid  = 3 // last absolute update
	stDegree = 4 // neighbour count (2-4 depending on position)
	stParity = 5 // current iteration parity (0/1)
	stAcc0   = 6 // accumulator, parity 0
	stGot0   = 7 // join counter, parity 0
	stAcc1   = 8 // accumulator, parity 1
	stGot1   = 9 // join counter, parity 1
)

// Check rejects a grid or an iteration count the stencil cannot run. Run
// asks it, and so does the run-spec check before anything is built.
func Check(opt Options) error {
	switch {
	case opt.W < 1 || opt.H < 1 || opt.W*opt.H < 2:
		return fmt.Errorf("diffusion: grid %dx%d invalid", opt.W, opt.H)
	case opt.Iters < 1:
		return fmt.Errorf("diffusion: iterations must be >= 1")
	}
	return nil
}

// Run executes the stencil on a system built from opts and returns the
// result. The initial condition is a hot spot at the grid centre.
func Run(opt Options, opts ...abcl.Option) (Result, error) {
	if err := Check(opt); err != nil {
		return Result{}, err
	}
	work := opt.WorkInstr
	if work <= 0 {
		work = 40
	}
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		return Result{}, err
	}
	nodes := sys.Nodes()

	valP := [2]abcl.Pattern{
		sys.Pattern("df.val0", 1),
		sys.Pattern("df.val1", 1),
	}
	step := sys.Pattern("df.step", 0)
	done := sys.Pattern("df.done", 2) // cell index, final residual

	w, h := opt.W, opt.H
	cells := make([]abcl.Address, w*h)
	var collector abcl.Address
	// Host-side observer fields. A checkpoint restore does not roll these
	// back, so the handler must be idempotent under redelivery (the
	// host-write rule, DESIGN.md §10): the done message identifies its cell
	// and the bitmap makes the count a set union, while the residual max is
	// idempotent by itself.
	reported := make([]bool, w*h)
	finished := 0
	maxResid := 0.0
	coll := sys.Class("df.collector", 0, nil)
	coll.Method(done, func(ctx *abcl.Ctx) {
		idx := int(ctx.Arg(0).Int())
		if !reported[idx] {
			reported[idx] = true
			finished++
		}
		if r := ctx.Arg(1).Float(); r > maxResid {
			maxResid = r
		}
	})

	// Cell idx's neighbours (2-4 depending on position) are
	// adjacent[from[idx]:from[idx+1]] by index and neighbours[idx] by
	// address, filled once every cell has one: both are built once.
	adjacent := make([]int, 0, 4*w*h)
	from := make([]int, w*h+1)
	for idx := range w * h {
		x, y := idx%w, idx/w
		if x > 0 {
			adjacent = append(adjacent, idx-1)
		}
		if x < w-1 {
			adjacent = append(adjacent, idx+1)
		}
		if y > 0 {
			adjacent = append(adjacent, idx-w)
		}
		if y < h-1 {
			adjacent = append(adjacent, idx+w)
		}
		from[idx+1] = len(adjacent)
	}
	neighbours := make([][]abcl.Address, w*h)

	cell := sys.Class("df.cell", 10, func(ic *abcl.InitCtx) {
		ic.SetState(stIdx, ic.CtorArg(0))
		ic.SetState(stVal, ic.CtorArg(1))
		ic.SetState(stIter, ic.CtorArg(2))
		ic.SetState(stResid, abcl.Float(0))
		ic.SetState(stDegree, ic.CtorArg(3))
		ic.SetState(stParity, abcl.Int(0))
		ic.SetState(stAcc0, abcl.Float(0))
		ic.SetState(stGot0, abcl.Int(0))
		ic.SetState(stAcc1, abcl.Float(0))
		ic.SetState(stGot1, abcl.Int(0))
	})

	accOf := [2]int{stAcc0, stAcc1}
	gotOf := [2]int{stGot0, stGot1}

	absorb := func(ctx *abcl.Ctx, parity int, v float64) {
		ctx.SetState(accOf[parity], abcl.Float(ctx.State(accOf[parity]).Float()+v))
		ctx.SetState(gotOf[parity], abcl.Int(ctx.State(gotOf[parity]).Int()+1))
	}

	broadcast := func(ctx *abcl.Ctx, parity int) {
		idx := int(ctx.State(stIdx).Int())
		v := ctx.State(stVal)
		for _, nb := range neighbours[idx] {
			ctx.SendPast(nb, valP[parity], v)
		}
	}

	// collect joins on the current parity, computes the Jacobi update, and
	// either starts the next iteration or reports to the collector. While it
	// waits the parity stays in the cell's state, so one continuation
	// (awaited) serves every wait.
	var collect func(ctx *abcl.Ctx)
	awaited := func(ctx *abcl.Ctx, f *abcl.Frame) {
		absorb(ctx, int(ctx.State(stParity).Int()), f.Arg(0).Float())
		collect(ctx)
	}
	collect = func(ctx *abcl.Ctx) {
		p := int(ctx.State(stParity).Int())
		degree := ctx.State(stDegree).Int()
		if ctx.State(gotOf[p]).Int() < degree {
			ctx.WaitFor(awaited, valP[p])
			return
		}
		ctx.Charge(work)
		old := ctx.State(stVal).Float()
		next := ctx.State(accOf[p]).Float() / float64(degree)
		ctx.SetState(stVal, abcl.Float(next))
		ctx.SetState(stResid, abcl.Float(math.Abs(next-old)))
		ctx.SetState(accOf[p], abcl.Float(0))
		ctx.SetState(gotOf[p], abcl.Int(0))
		it := ctx.State(stIter).Int() - 1
		ctx.SetState(stIter, abcl.Int(it))
		if it == 0 {
			ctx.SendPast(collector, done, ctx.State(stIdx), ctx.State(stResid))
			return
		}
		q := 1 - p
		ctx.SetState(stParity, abcl.Int(int64(q)))
		broadcast(ctx, q)
		collect(ctx)
	}

	cell.Method(step, func(ctx *abcl.Ctx) {
		broadcast(ctx, 0)
		collect(ctx)
	})
	// Values arriving while the cell is dormant (between scheduler turns, or
	// after it finished) are absorbed into their parity's accumulator.
	cell.Method(valP[0], func(ctx *abcl.Ctx) { absorb(ctx, 0, ctx.Arg(0).Float()) })
	cell.Method(valP[1], func(ctx *abcl.Ctx) { absorb(ctx, 1, ctx.Arg(0).Float()) })

	// Placement: contiguous row bands (locality) or scatter.
	place := func(idx int) int {
		if opt.BlockPlace {
			band := (idx / w) * nodes / h
			if band >= nodes {
				band = nodes - 1
			}
			return band
		}
		return idx % nodes
	}
	for idx := range cells {
		x, y := idx%w, idx/w
		v := 0.0
		if x == w/2 && y == h/2 {
			v = 100.0 // hot spot
		}
		cells[idx] = sys.NewObjectOn(place(idx), cell,
			abcl.Int(int64(idx)), abcl.Float(v), abcl.Int(int64(opt.Iters)), abcl.Int(int64(from[idx+1]-from[idx])))
	}
	addrs := make([]abcl.Address, len(adjacent))
	for i, j := range adjacent {
		addrs[i] = cells[j]
	}
	for idx := range cells {
		neighbours[idx] = addrs[from[idx]:from[idx+1]]
	}
	collector = sys.NewObjectOn(0, coll)
	for idx := range cells {
		sys.Send(cells[idx], step)
	}

	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	if finished != len(cells) {
		return Result{}, fmt.Errorf("diffusion: %d of %d cells finished", finished, len(cells))
	}
	rep := sys.Report()
	return Result{
		Elapsed:     rep.Sched.Elapsed,
		Utilization: rep.Sched.Utilization,
		Residual:    maxResid,
		Stats:       rep.Sched.Counters,
		Report:      rep,
	}, nil
}

// SequentialResidual computes the same Jacobi iteration sequentially for
// verification: the final max |update| after iters sweeps.
func SequentialResidual(w, h, iters int) float64 {
	cur := make([]float64, w*h)
	next := make([]float64, w*h)
	cur[(h/2)*w+w/2] = 100.0
	resid := make([]float64, w*h)
	for it := 0; it < iters; it++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				idx := y*w + x
				sum, deg := 0.0, 0
				if x > 0 {
					sum += cur[idx-1]
					deg++
				}
				if x < w-1 {
					sum += cur[idx+1]
					deg++
				}
				if y > 0 {
					sum += cur[idx-w]
					deg++
				}
				if y < h-1 {
					sum += cur[idx+w]
					deg++
				}
				next[idx] = sum / float64(deg)
				resid[idx] = math.Abs(next[idx] - cur[idx])
			}
		}
		cur, next = next, cur
	}
	max := 0.0
	for _, r := range resid {
		if r > max {
			max = r
		}
	}
	return max
}
