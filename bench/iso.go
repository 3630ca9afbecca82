package main

import (
	"fmt"
	"math"
	"time"

	abcl "repro"
	"repro/internal/apps/pingpong"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Isolated layer drivers: each calls one layer's exported functions
// directly, with nothing above it, so a change to that layer is located
// before it is looked for in a whole-system workload.

const (
	isoLanes        = 256
	isoEvents       = 1_000_000
	isoPackets      = 1_000_000
	isoRuns         = 3 // each driver's figure is the median of this many runs
	isoLookahead    = sim.Microsecond
	isoPacketBytes  = 16
	isoPacketInstrs = 10
)

// chain is one strand of an isolated driver: a generator for the next
// destination and the number of hops left. Exactly one event or packet
// refers to a chain at any time, so the lane that fires it owns it.
type chain struct {
	rng  splitmix64
	left int
	lane int
}

// isoSim fires events over isoLanes lanes; each handler posts one successor
// on a seeded other lane, at least one lookahead ahead so that the same
// program is legal under the conservative runner. workers <= 1 runs it
// sequentially. It returns the events fired and the wall time of the run.
func isoSim(seed int64, events, workers int) (ops uint64, wall float64, err error) {
	e := sim.NewEngine()
	e.SetLanes(isoLanes)
	var kind sim.Kind
	kind = e.RegisterHandler(func(at sim.Time, arg any) {
		c := arg.(*chain)
		if c.left == 0 {
			return
		}
		c.left--
		r := c.rng.next()
		src, dst := c.lane, int(r%isoLanes)
		c.lane = dst
		e.ScheduleOn(src, dst, at+isoLookahead+sim.Time(r>>32)%isoLookahead, kind, c)
	})
	for l := 0; l < isoLanes; l++ {
		c := &chain{rng: splitmix64(seed + int64(l)), left: events/isoLanes - 1, lane: l}
		e.ScheduleOn(l, l, 0, kind, c)
	}
	start := time.Now()
	if workers > 1 {
		ops, err = e.RunParallel(workers, isoLookahead)
	} else {
		ops, err = e.Run()
	}
	return ops, time.Since(start).Seconds(), err
}

// isoMachine sends packets between the nodes of a bare machine: each
// packet's handler charges a few instructions and sends one successor to a
// seeded other node.
func isoMachine(seed int64, packets int) (ops uint64, wall float64, err error) {
	m, err := machine.New(machine.DefaultConfig(isoLanes))
	if err != nil {
		return 0, 0, err
	}
	var handler func(n *machine.Node, p *machine.Packet)
	send := func(n *machine.Node, c *chain) {
		p := n.AcquirePacket()
		p.Dst = int(c.rng.next() % isoLanes)
		p.Size = isoPacketBytes
		p.Handler = handler
		p.Payload = c
		n.Send(p)
	}
	handler = func(n *machine.Node, p *machine.Packet) {
		c := p.Payload.(*chain)
		n.Charge(isoPacketInstrs)
		if c.left == 0 {
			return
		}
		c.left--
		send(n, c)
	}
	for i := 0; i < isoLanes; i++ {
		send(m.Node(i), &chain{rng: splitmix64(seed + int64(i)), left: packets/isoLanes - 1})
	}
	start := time.Now()
	err = m.Run()
	return m.TotalPackets(), time.Since(start).Seconds(), err
}

// paperTable1 is the paper's Table 1: each basic operation with the
// microbenchmark that measures it, how often to repeat it, and the paper's
// cost in microseconds.
var paperTable1 = []struct {
	metric string
	run    func(int, ...abcl.Option) (pingpong.Result, error)
	iters  int
	paper  float64
}{
	{"core.iso_ns_per_local_send", pingpong.PastLocal, 2_000_000, 2.3},
	{"core.iso_ns_per_active_send", pingpong.PastLocalActive, 1_000_000, 9.6},
	{"core.iso_ns_per_create", pingpong.CreateLocal, 500_000, 2.1},
	{"remote.iso_ns_per_remote_send", pingpong.PastRemote, 300_000, 8.9},
}

// medianNsPerOp runs a driver isoRuns times between calibration timings and
// returns the median host nanoseconds per operation, in reference-host time.
func medianNsPerOp(div int, run func() (ops uint64, wall float64, err error)) (float64, error) {
	var xs []float64
	cal := calibrate(div)
	for i := 0; i < isoRuns; i++ {
		ops, wall, err := run()
		if err != nil {
			return 0, err
		}
		if ops == 0 {
			return 0, fmt.Errorf("isolated driver did no work")
		}
		next := calibrate(div)
		xs = append(xs, normalise(wall, cal, next)*1e9/float64(ops))
		cal = next
	}
	return median(xs), nil
}

// runIso runs every isolated driver at 1/div of its full size and returns
// its metrics by name.
func runIso(seed int64, div int) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	out["sim.iso_ns_per_event"], err = medianNsPerOp(div, func() (uint64, float64, error) {
		return isoSim(seed, isoEvents/div, 1)
	})
	if err != nil {
		return nil, fmt.Errorf("sim sequential: %w", err)
	}
	out["sim.iso_par2_ns_per_event"], err = medianNsPerOp(div, func() (uint64, float64, error) {
		return isoSim(seed, isoEvents/div, 2)
	})
	if err != nil {
		return nil, fmt.Errorf("sim parallel: %w", err)
	}
	out["machine.iso_ns_per_packet"], err = medianNsPerOp(div, func() (uint64, float64, error) {
		return isoMachine(seed, isoPackets/div)
	})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	worst := 0.0
	for _, row := range paperTable1 {
		iters := row.iters / div
		var modelledUs float64
		out[row.metric], err = medianNsPerOp(div, func() (uint64, float64, error) {
			start := time.Now()
			res, err := row.run(iters)
			modelledUs = res.Total.Micros() / float64(iters)
			return uint64(iters), time.Since(start).Seconds(), err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.metric, err)
		}
		worst = math.Max(worst, math.Abs(modelledUs-row.paper)/row.paper*100)
	}
	out["core.paper_table1_err_pct"] = worst
	return out, nil
}
