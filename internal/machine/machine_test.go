package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/profile"
	"repro/internal/sim"
)

func TestDefaultCostCalibration(t *testing.T) {
	cfg := DefaultConfig(2)
	c := cfg.Cost

	// Table 2: dormant-path overhead is 25 instructions.
	if got := c.DormantPath(); got != 25 {
		t.Errorf("dormant path = %d instructions, want 25", got)
	}
	// Table 1: 25 instructions at 25MHz / CPI 2.3 is 2.3µs.
	if got := cfg.InstrTime(c.DormantPath()); got != 2300 {
		t.Errorf("dormant path time = %v, want 2.3µs", got)
	}
	// Active path about 9.6µs.
	at := cfg.InstrTime(c.ActivePath())
	if at < 9*sim.Microsecond || at > 10*sim.Microsecond {
		t.Errorf("active path time = %v, want ~9.6µs", at)
	}
	// Local creation about 2.1µs.
	ct := cfg.InstrTime(c.CreateLocal)
	if ct < 2000 || ct > 2200 {
		t.Errorf("local creation time = %v, want ~2.1µs", ct)
	}
	// Remote one-way: 80 instructions software + 1.5µs hardware = ~8.9µs.
	oneWay := cfg.InstrTime(c.RemoteSoftwareOneWay()) + cfg.Net.Latency(1, 16)
	if oneWay < 8800 || oneWay > 9000 {
		t.Errorf("remote one-way latency = %v, want ~8.9µs", oneWay)
	}
}

func TestNsPerInstr(t *testing.T) {
	cfg := DefaultConfig(1)
	if got := cfg.NsPerInstr(); got != 92.0 {
		t.Errorf("NsPerInstr = %v, want 92 (CPI 2.3 at 25MHz)", got)
	}
}

func TestNetLatency(t *testing.T) {
	nc := DefaultNet()
	if got := nc.Latency(1, 16); got != 1500 {
		t.Errorf("neighbor small packet = %v, want 1.5µs", got)
	}
	if got := nc.Latency(1, 16+100); got != 1500+4000 {
		t.Errorf("large packet = %v, want fixed + 100B at 40ns/B", got)
	}
	if nc.Latency(5, 16) <= nc.Latency(1, 16) {
		t.Error("more hops must cost more")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, ClockMHz: 25, CPI: 2.3}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := New(Config{Nodes: 4, ClockMHz: 0, CPI: 2.3}); err == nil {
		t.Error("zero clock should fail")
	}
	// One engine lane per node and one for the host: the lane field of an
	// event's key bounds the machine.
	if _, err := New(DefaultConfig(MaxNodes + 1)); err == nil || !strings.Contains(err.Error(), "65535") {
		t.Errorf("%d nodes: got %v, want an error naming the limit of 65535", MaxNodes+1, err)
	}
	cfg := DefaultConfig(4)
	cfg.Topology = Torus2D{W: 1, H: 1}
	if _, err := New(cfg); err == nil {
		t.Error("undersized topology should fail")
	}
	if _, err := New(DefaultConfig(16)); err != nil {
		t.Errorf("default config should build: %v", err)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	m := MustNew(DefaultConfig(1))
	n := m.Node(0)
	n.Charge(25)
	if n.Clock != 2300 {
		t.Errorf("clock = %v after 25 instructions, want 2.3µs", n.Clock)
	}
	if n.Busy != 2300 {
		t.Errorf("busy = %v, want 2.3µs", n.Busy)
	}
	if n.InstrCount != 25 {
		t.Errorf("instr count = %d, want 25", n.InstrCount)
	}
	n.Charge(0)
	n.Charge(-5)
	if n.Clock != 2300 {
		t.Error("non-positive charges must be no-ops")
	}
	n.ChargeNs(700)
	if n.Clock != 3000 {
		t.Errorf("clock = %v after ChargeNs, want 3µs", n.Clock)
	}
}

func TestProfileRowsSumToInstrCount(t *testing.T) {
	// The clock and the profile are advanced by the same call, so the path
	// rows sum to the machine's instruction count whatever a handler does:
	// charges under two register settings, one with an explicit path, one
	// with no path ever set (the "other" row), and a non-positive no-op.
	m := MustNew(DefaultConfig(2))
	prof := profile.New(2, profile.Options{})
	m.SetProfiler(prof)
	m.Node(0).Charge(7) // host-side, register never set
	m.Node(0).Send(&Packet{Dst: 1, Size: 16, Handler: func(n *Node, p *Packet) {
		n.SetPath(profile.RemoteRecv)
		n.Charge(50)
		prev := n.SetPath(profile.Body)
		n.Charge(200)
		n.ChargeTo(profile.Create, 30) // leaves the register alone
		n.Charge(1)
		n.Charge(0)
		n.Charge(-5)
		if n.SetPath(prev) != profile.Body || n.Path() != profile.RemoteRecv {
			t.Errorf("register after ChargeTo and restore = %v", n.Path())
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	var sum uint64
	for _, row := range prof.Report().Paths {
		got[row.Path] = row.Instr
		sum += row.Instr
	}
	want := map[string]uint64{"other": 7, "remote-recv": 50, "body": 201, "create": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("path rows = %v, want %v", got, want)
	}
	if sum != m.TotalInstr() || sum != 288 {
		t.Errorf("rows sum to %d, machine counted %d, want 288 both", sum, m.TotalInstr())
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	m := MustNew(DefaultConfig(4))
	src, dst := m.Node(0), m.Node(1)
	var deliveredAt sim.Time
	src.Charge(10) // depart at 920ns
	src.Send(&Packet{Dst: 1, Size: 16, Handler: func(n *Node, p *Packet) {
		deliveredAt = n.Clock
		if n.ID != 1 {
			t.Errorf("handler ran on node %d, want 1", n.ID)
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := src.Clock + m.Cfg.Net.Latency(1, 16)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if dst.PacketsRecvd != 1 || src.PacketsSent != 1 {
		t.Error("packet counters not updated")
	}
	if m.TotalPackets() != 1 {
		t.Errorf("machine total packets = %d, want 1", m.TotalPackets())
	}
}

func TestSendFIFOPerPair(t *testing.T) {
	// Two packets from the same source to the same destination must arrive
	// in send order even if sizes would reorder them.
	m := MustNew(DefaultConfig(2))
	src := m.Node(0)
	var order []int
	src.Send(&Packet{Dst: 1, Size: 4096, Handler: func(n *Node, p *Packet) { order = append(order, 1) }})
	src.Send(&Packet{Dst: 1, Size: 16, Handler: func(n *Node, p *Packet) { order = append(order, 2) }})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2] (per-pair FIFO)", order)
	}
}

func TestCrossPairNoOrdering(t *testing.T) {
	// Packets from different sources are independent: a later send over a
	// shorter path may arrive first.
	m := MustNew(DefaultConfig(16)) // 4x4 torus
	far := m.Node(10)               // 4 hops from node 0
	near := m.Node(1)               // 1 hop
	var order []int
	far.Send(&Packet{Dst: 0, Size: 4096, Handler: func(n *Node, p *Packet) { order = append(order, 1) }})
	near.Send(&Packet{Dst: 0, Size: 16, Handler: func(n *Node, p *Packet) { order = append(order, 2) }})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("delivery order = %v, want near packet first", order)
	}
}

func TestDeliveryAdvancesIdleNodeClock(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	m.Node(0).Send(&Packet{Dst: 1, Size: 16})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Node(1).Clock < 1500 {
		t.Errorf("idle receiver clock = %v, want >= delivery time", m.Node(1).Clock)
	}
}

type countRunner struct {
	steps int
	left  int
	node  *Node
	cost  int
}

func (r *countRunner) Step() bool {
	if r.left == 0 {
		return false
	}
	r.left--
	r.steps++
	r.node.Charge(r.cost)
	return r.left > 0
}

func TestRunnerQuantumLoop(t *testing.T) {
	m := MustNew(DefaultConfig(1))
	n := m.Node(0)
	r := &countRunner{left: 5, node: n, cost: 10}
	n.Runner = r
	n.Wake()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if r.steps != 5 {
		t.Fatalf("runner stepped %d times, want 5", r.steps)
	}
	if n.Clock != 5*920 {
		t.Fatalf("clock = %v, want 4.6µs for 50 instructions", n.Clock)
	}
}

func TestQuantumInterleavingAcrossNodes(t *testing.T) {
	// Two nodes with queued work must advance in virtual-time order, not
	// one node running to completion first.
	m := MustNew(DefaultConfig(2))
	var trace []int
	mk := func(id, work, cost int) *countRunner {
		n := m.Node(id)
		r := &countRunner{left: work, node: n, cost: cost}
		n.Runner = r
		return r
	}
	// Node 0 steps cost 100 instr, node 1 steps cost 30 instr; interleaved
	// firing should show node 1 fitting several steps per node-0 step.
	r0, r1 := mk(0, 3, 100), mk(1, 10, 30)
	orig0, orig1 := m.Node(0), m.Node(1)
	wrap := func(n *Node, r *countRunner) Runner {
		return runnerFunc(func() bool {
			more := r.Step()
			trace = append(trace, n.ID)
			return more
		})
	}
	orig0.Runner = wrap(orig0, r0)
	orig1.Runner = wrap(orig1, r1)
	orig0.Wake()
	orig1.Wake()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if r0.steps != 3 || r1.steps != 10 {
		t.Fatalf("steps = %d,%d want 3,10", r0.steps, r1.steps)
	}
	// Node 1's quanta are cheaper so several must appear before node 0's last.
	count1BeforeLast0 := 0
	last0 := -1
	for i, id := range trace {
		if id == 0 {
			last0 = i
		}
	}
	for i, id := range trace {
		if i < last0 && id == 1 {
			count1BeforeLast0++
		}
	}
	if count1BeforeLast0 < 5 {
		t.Fatalf("virtual-time interleaving broken: trace %v", trace)
	}
}

type runnerFunc func() bool

func (f runnerFunc) Step() bool { return f() }

func TestUtilizationAndMakespan(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	m.Node(0).Charge(100)
	m.Node(1).Charge(50)
	if got := m.MaxClock(); got != m.Node(0).Clock {
		t.Errorf("makespan = %v, want node 0 clock", got)
	}
	u := m.Utilization()
	if u < 0.74 || u > 0.76 {
		t.Errorf("utilization = %v, want 0.75", u)
	}
	if m.TotalInstr() != 150 {
		t.Errorf("total instr = %d, want 150", m.TotalInstr())
	}
}

func TestSendInvalidNodePanics(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid destination")
		}
	}()
	m.Node(0).Send(&Packet{Dst: 99})
}

func TestPollDispatchesInArrivalOrder(t *testing.T) {
	m := MustNew(DefaultConfig(4))
	var got []int
	for i := 1; i <= 3; i++ {
		i := i
		src := m.Node(i)
		src.Charge(i * 10) // stagger departure
		src.Send(&Packet{Dst: 0, Size: 16, Handler: func(n *Node, p *Packet) {
			got = append(got, i)
		}})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(got))
	}
	// Node 1 and node 3 are 1 hop from node 0 on a 2x2 torus, node 2... all
	// are within 2 hops; departure stagger dominates, so order is 1,2,3.
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("arrival order = %v, want [1 2 3]", got)
		}
	}
}

func TestNotifyInterruptModeAdjustsCosts(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Notify = NotifyInterrupt
	m := MustNew(cfg)
	if m.Cfg.Cost.PollRemote != 0 {
		t.Error("interrupt mode must zero the polling cost")
	}
	want := DefaultCost().RemoteRecvExtract + DefaultCost().InterruptEntry
	if m.Cfg.Cost.RemoteRecvExtract != want {
		t.Errorf("interrupt extract cost = %d, want %d", m.Cfg.Cost.RemoteRecvExtract, want)
	}
	// Polling mode is untouched.
	m2 := MustNew(DefaultConfig(2))
	if m2.Cfg.Cost.PollRemote != 5 {
		t.Error("polling mode must keep the poll cost")
	}
}

func TestNotifyModeString(t *testing.T) {
	if NotifyPolling.String() != "polling" || NotifyInterrupt.String() != "interrupt" {
		t.Error("notify mode names wrong")
	}
}

func TestMachineAccessors(t *testing.T) {
	m := MustNew(DefaultConfig(4))
	if m.Nodes() != 4 {
		t.Error("Nodes accessor")
	}
	n := m.Node(1)
	if n.Hops(2) != m.Cfg.Topology.Hops(1, 2) {
		t.Error("Node.Hops must delegate to the topology")
	}
	if n.Now() != n.Clock {
		t.Error("Now must mirror the clock")
	}
	if n.PendingRx() != 0 {
		t.Error("fresh node has no pending packets")
	}
	n.ChargeNs(0)
	n.ChargeNs(-5)
	if n.Clock != 0 {
		t.Error("non-positive ChargeNs must be a no-op")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on a bad config")
		}
	}()
	MustNew(Config{Nodes: -1})
}

func TestUtilizationEmptyMachine(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	if m.Utilization() != 0 {
		t.Error("zero-span machine must report zero utilization")
	}
}

func TestTopologyNames(t *testing.T) {
	cases := map[string]Topology{
		"torus-4x2": Torus2D{W: 4, H: 2},
		"mesh-3x3":  Mesh2D{W: 3, H: 3},
		"full":      FullyConnected{},
		"hypercube": Hypercube{},
	}
	for want, topo := range cases {
		if topo.Name() != want {
			t.Errorf("%T name = %q, want %q", topo, topo.Name(), want)
		}
	}
	if err := (Mesh2D{W: -1, H: 2}).Validate(1); err == nil {
		t.Error("negative mesh dimension must fail")
	}
	if (SquarishTorus(0) != Torus2D{W: 1, H: 1}) {
		t.Error("degenerate squarish torus")
	}
}

// Property: under random packet storms from many sources, per-(src,dst)
// delivery order always matches send order, regardless of sizes and timing.
func TestFIFOUnderRandomStormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 6
		m := MustNew(DefaultConfig(nodes))
		type key struct{ src, dst int }
		sent := map[key][]int{}
		recvd := map[key][]int{}
		seq := 0
		for i := 0; i < 200; i++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			if src == dst {
				continue
			}
			m.Node(src).Charge(rng.Intn(50))
			id := seq
			seq++
			k := key{src, dst}
			sent[k] = append(sent[k], id)
			m.Node(src).Send(&Packet{
				Dst:  dst,
				Size: 8 + rng.Int31n(2000),
				Handler: func(n *Node, p *Packet) {
					recvd[key{p.Src, n.ID}] = append(recvd[key{p.Src, n.ID}], id)
				},
			})
		}
		if err := m.Run(); err != nil {
			return false
		}
		for k, want := range sent {
			got := recvd[k]
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every hop of every workload carries a Packet, most of them embedded in a
// wire record: a word added here is a word on every message of every run,
// reliable or not.
func TestPacketSize(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 96 {
		t.Errorf("Packet is %d bytes, want <= 96", sz)
	}
}

// The receive queue is a FIFO across its blocks: it takes a block from the
// pool when its newest is full, returns each block it reads past, keeps one
// when drained, and clears every slot it pops.
func TestRxQueueChainsBlocks(t *testing.T) {
	pool := new(sim.Slab[rxBlock, *rxBlock])
	var q rxQueue
	pk := make([]Packet, 400)
	var want []*Packet
	next := 0
	push := func(k int) {
		for ; k > 0; k-- {
			q.push(pool, &pk[next])
			want = append(want, &pk[next])
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if p := q.pop(pool); p != want[0] {
				t.Fatalf("popped packet %p, want %p", p, want[0])
			}
			want = want[1:]
		}
	}
	blocks := func() int {
		k := 0
		for b := q.head; b != nil; b = b.next {
			k++
		}
		return k
	}
	push(3)
	pop(3)
	first := q.head
	if q.n != 0 || first == nil || q.read != 0 || q.write != 0 {
		t.Fatalf("drained queue: %d queued, block %p, slots %d/%d: want its block kept and started over", q.n, first, q.read, q.write)
	}
	push(rxBlockLen + 1) // fills the kept block, then chains a second
	if q.head != first || blocks() != 2 || q.n != rxBlockLen+1 {
		t.Fatalf("%d blocks holding %d, want 2 holding %d from the kept block", blocks(), q.n, rxBlockLen+1)
	}
	pop(rxBlockLen + 1) // reads past the first block: it goes back to the pool
	if q.head == first || blocks() != 1 {
		t.Fatalf("%d blocks after reading past the first, want 1", blocks())
	}
	for i := 0; i < 40; i++ { // a growing backlog across many blocks
		push(7)
		pop(4)
	}
	if blocks() != (q.read+q.n+rxBlockLen-1)/rxBlockLen {
		t.Fatalf("%d blocks for %d queued from slot %d", blocks(), q.n, q.read)
	}
	for b := q.head; b != nil; b = b.next {
		for i, p := range b.pkts {
			if b == q.head && i < q.read && p != nil {
				t.Fatal("a popped slot still holds its packet")
			}
		}
	}
	pop(len(want))
	if q.pop(pool) != nil || q.n != 0 || blocks() != 1 {
		t.Fatalf("empty queue: %d queued in %d blocks, want 0 in 1", q.n, blocks())
	}
}

// A node's receive queue through the machine: Poll order survives a backlog
// across blocks, and PendingRx, DropRx and BeginOutage see it whole.
func TestRxQueueOnNode(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	src, dst := m.Node(0), m.Node(1)
	var got []uint64
	h := func(n *Node, p *Packet) { got = append(got, p.Seq) }
	seq := uint64(0)
	// burst sends k packets while dst is busy and runs until they have all
	// arrived, so they wait in its queue.
	burst := func(k int) {
		src.SyncClock(m.Eng.Now())
		dst.Charge(1 << 16)
		var last sim.Time
		for ; k > 0; k-- {
			seq++
			p := src.AcquirePacket()
			p.Dst, p.Size, p.Seq, p.Handler = 1, 16, seq, h
			last = src.Send(p)
		}
		if _, err := m.Eng.RunUntil(last); err != nil {
			t.Fatal(err)
		}
	}
	burst(3)
	if err := m.Run(); err != nil { // polled: the queue is drained, its block kept
		t.Fatal(err)
	}
	burst(rxBlockLen + 5) // across two blocks
	if dst.PendingRx() != rxBlockLen+5 || dst.rx.head == dst.rx.tail {
		t.Fatalf("PendingRx %d, one block: want %d across two", dst.PendingRx(), rxBlockLen+5)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != rxBlockLen+8 {
		t.Fatalf("polled %d packets, want %d", len(got), rxBlockLen+8)
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("polled %v, want 1..%d in order", got, len(got))
		}
	}
	burst(2*rxBlockLen + 1) // across three blocks
	dst.DropRx()
	if dst.PendingRx() != 0 || dst.EraDrops != 2*rxBlockLen+1 {
		t.Fatalf("after DropRx: PendingRx %d, EraDrops %d, want 0/%d", dst.PendingRx(), dst.EraDrops, 2*rxBlockLen+1)
	}
	burst(rxBlockLen + 1)
	dst.BeginOutage(m.Eng.Now() + sim.Millisecond)
	if dst.PendingRx() != 0 || dst.CrashDrops != rxBlockLen+1 {
		t.Fatalf("after BeginOutage: PendingRx %d, CrashDrops %d, want 0/%d", dst.PendingRx(), dst.CrashDrops, rxBlockLen+1)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != rxBlockLen+8 {
		t.Fatalf("dropped packets reached their handler: %v", got)
	}
	recycled(t, m) // every pool hands out no record twice, none dirty
}
