package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	abcl "repro"
	"repro/internal/apps/nqueens"
)

// size scales a run. Every measured run uses fullSize; smallSize (-small)
// exists so the tests can drive the whole command in a second or two, and
// its numbers mean nothing.
type size struct {
	nodes  int // processors
	rounds int // all-to-all: messages per ordered pair of nodes
	n      int // n-queens: board size
	div    int // the isolated drivers and the calibration kernel do 1/div of their full work
}

var (
	fullSize  = size{nodes: 256, rounds: 8, n: 10, div: 1}
	smallSize = size{nodes: 16, rounds: 2, n: 6, div: 100}
)

// inputs is everything one workload run feeds the program, made from the
// seed alone.
type inputs struct {
	size
	seed int64

	// all-to-all: order[s] is sender s's destination order, a seeded
	// permutation of the other nodes.
	order [][]int32

	// n-queens: the answer an independent depth-first count expects.
	wantObjects, wantSolutions int64
}

// workload is one row of BENCHMARK.json's workloads. build registers the
// program on a fresh system, injects its first messages and returns the
// answer check to apply after Run.
type workload struct {
	name  string
	gen   func(seed int64, sz size) *inputs
	opts  func(in *inputs) []abcl.Option
	build func(sys *abcl.System, in *inputs) (check func() error)
	// sameAs names the workload whose digest for the same seed this one
	// must reproduce: another executor over the same inputs.
	sameAs string
}

var workloads = []*workload{
	{
		name:  "alltoall-seq",
		gen:   genAllToAll,
		opts:  func(*inputs) []abcl.Option { return []abcl.Option{abcl.WithExecutor(abcl.Sequential())} },
		build: buildAllToAll,
	},
	{
		name:   "alltoall-cons2",
		gen:    genAllToAll,
		opts:   func(*inputs) []abcl.Option { return []abcl.Option{abcl.WithExecutor(abcl.Conservative(2))} },
		build:  buildAllToAll,
		sameAs: "alltoall-seq",
	},
	{
		name:  "nqueens-seq",
		gen:   genNQueens,
		opts:  nqueensOpts,
		build: buildNQueens,
	},
	{
		name: "nqueens-relbatch",
		gen:  genNQueens,
		opts: func(in *inputs) []abcl.Option {
			return append(nqueensOpts(in),
				abcl.WithReliable(),
				abcl.WithBatching(10*abcl.Microsecond, 0),
				abcl.WithDelayedAcks(500*abcl.Microsecond))
		},
		build: buildNQueens,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix64 is the generator behind every seeded input: small, fixed, and
// independent of the Go release.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// genAllToAll draws each sender's destination order from the seed.
func genAllToAll(seed int64, sz size) *inputs {
	in := &inputs{size: sz, seed: seed, order: make([][]int32, sz.nodes)}
	rng := splitmix64(seed)
	for s := range in.order {
		dst := make([]int32, 0, sz.nodes-1)
		for d := 0; d < sz.nodes; d++ {
			if d != s {
				dst = append(dst, int32(d))
			}
		}
		for i := len(dst) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			dst[i], dst[j] = dst[j], dst[i]
		}
		in.order[s] = dst
	}
	return in
}

// buildAllToAll is the exchange of misc.RunAllToAll written against the
// public API, with the destination order taken from the inputs: every node
// hosts one peer, every node sends rounds numbered past-type messages to
// every other peer, destination-major, and receivers check per-sender FIFO
// order.
func buildAllToAll(sys *abcl.System, in *inputs) func() error {
	p := in.nodes
	// Per-receiver tallies live in per-node slots so method bodies never
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
	srcCls := sys.Class("a2a.src", 0, nil)
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		for _, d := range in.order[me] {
			for r := 0; r < in.rounds; r++ {
				ctx.SendPast(peers[d], hit, abcl.Int(int64(me)), abcl.Int(int64(r)))
			}
		}
	})
	for i := 0; i < p; i++ {
		sys.Send(sys.NewObjectOn(i, srcCls), kick)
	}

	return func() error {
		var got, bad int64
		for i := 0; i < p; i++ {
			got += received[i]
			bad += violations[i]
		}
		if want := int64(p) * int64(p-1) * int64(in.rounds); got != want {
			return fmt.Errorf("all-to-all delivered %d messages, want %d", got, want)
		}
		if bad != 0 {
			return fmt.Errorf("all-to-all saw %d FIFO order violations", bad)
		}
		return nil
	}
}

func genNQueens(seed int64, sz size) *inputs {
	in := &inputs{size: sz, seed: seed}
	in.wantObjects, in.wantSolutions = nqueens.CountTree(sz.n)
	return in
}

// nqueensOpts places objects at random from the seed. abcl rejects seed 0,
// so 0 maps to a value no small seed collides with.
func nqueensOpts(in *inputs) []abcl.Option {
	seed := in.seed
	if seed == 0 {
		seed = 1 << 40
	}
	return []abcl.Option{
		abcl.WithExecutor(abcl.Sequential()),
		abcl.WithPlacement(abcl.PlaceRandom),
		abcl.WithSeed(seed),
	}
}

func buildNQueens(sys *abcl.System, in *inputs) func() error {
	d := nqueens.Build(sys, in.n, 0)
	d.Start()
	return func() error {
		res, err := d.Result()
		if err != nil {
			return err
		}
		if res.Solutions != in.wantSolutions || int64(res.Objects) != in.wantObjects {
			return fmt.Errorf("n-queens N=%d found %d solutions in %d objects, want %d in %d",
				in.n, res.Solutions, res.Objects, in.wantSolutions, in.wantObjects)
		}
		return nil
	}
}

// repResult is what one repetition leaves behind.
type repResult struct {
	wall    float64 // seconds, NewSystem through Report
	report  abcl.Report
	msgs    uint64
	events  uint64
	windows uint64
	digest  string
}

// The four harness spans of a repetition, in order, and the per-layer metric
// that reports each one's median duration.
var (
	spanNames   = [4]string{"abcl.NewSystem", "apps.build", "abcl.Run", "abcl.Report"}
	spanMetrics = [4]string{"abcl.newsystem_ms", "apps.build_ms", "abcl.run_ms", "abcl.report_ms"}
)

// runRep is one operation of the benchmark: build a system, build the
// program on it, run to quiescence, take the report, check the answer. A
// non-nil tracer receives the repetition's spans.
func runRep(w *workload, in *inputs, tr *tracer) (repResult, error) {
	var t [5]time.Time
	t[0] = time.Now()
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(in.nodes)}, w.opts(in)...)...)
	if err != nil {
		return repResult{}, err
	}
	t[1] = time.Now()
	check := w.build(sys, in)
	t[2] = time.Now()
	err = sys.Run()
	t[3] = time.Now()
	if err != nil {
		return repResult{}, err
	}
	rep := sys.Report()
	t[4] = time.Now()
	if tr != nil {
		parent := tr.add("rep "+w.name, -1, t[0], t[4])
		for i, name := range spanNames {
			tr.add(name, parent, t[i], t[i+1])
		}
	}
	res := repResult{
		wall:    t[4].Sub(t[0]).Seconds(),
		report:  rep,
		msgs:    rep.Sched.Counters.TotalMessages(),
		events:  sys.M.Eng.Fired(),
		windows: sys.SyncWindows(),
		digest:  digest(rep),
	}
	return res, check()
}

// digest covers every simulated statistic that must not depend on the
// executor or on the host: virtual time, the machine totals and every
// runtime counter.
func digest(rep abcl.Report) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d %d %x %d %d %d %+v",
		rep.Sched.Elapsed, rep.Sched.TotalInstructions, math.Float64bits(rep.Sched.Utilization),
		rep.Wire.Packets, rep.Wire.LogicalMsgs, rep.Wire.Bytes, rep.Sched.Counters)))
	return fmt.Sprintf("%x", h[:8])
}
