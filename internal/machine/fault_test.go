package machine

import (
	"testing"

	"repro/internal/sim"
)

// scriptFaults is a hand-scripted FaultModel: it returns the queued link
// outcomes in order and a fixed pause table.
type scriptFaults struct {
	outcomes [][]sim.Time
	paused   map[int][2]sim.Time // node -> [start, end)
}

func (s *scriptFaults) Link(src, dst int, at sim.Time, size int) []sim.Time {
	if len(s.outcomes) == 0 {
		return []sim.Time{0}
	}
	out := s.outcomes[0]
	s.outcomes = s.outcomes[1:]
	return out
}

func (s *scriptFaults) PausedUntil(node int, at sim.Time) sim.Time {
	if w, ok := s.paused[node]; ok && at >= w[0] && at < w[1] {
		return w[1]
	}
	return at
}

func TestSendDropAndDuplicate(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	sf := &scriptFaults{outcomes: [][]sim.Time{
		nil,      // first send dropped
		{0, 700}, // second duplicated, copy delayed 700ns
		{0},      // third clean
	}}
	m.SetFaults(sf)

	var got []sim.Time
	h := func(n *Node, p *Packet) { got = append(got, p.Arrival) }
	src := m.Node(0)
	for i := 0; i < 3; i++ {
		src.Send(&Packet{Dst: 1, Size: 16, Handler: h})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Drop: 1 delivery lost; dup: 2 copies; clean: 1 → 3 deliveries total.
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3 (drop + dup + clean): %v", len(got), got)
	}
	// One drop and one extra copy, each counted exactly once.
	if c := m.C; c.LinkDrops != 1 || c.LinkDups != 1 {
		t.Errorf("drops=%d dups=%d, want 1 and 1", c.LinkDrops, c.LinkDups)
	}
	// All three attempts count as sent exactly once.
	if got := m.TotalPackets(); got != 3 {
		t.Errorf("TotalPackets = %d, want 3", got)
	}
	// FIFO per copy: arrivals are strictly increasing.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("arrival order violated: %v", got)
		}
	}
}

func TestNodePauseDefersExecution(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	// Node 1 pauses from t=0 until t=100µs; a packet sent at t=0 arrives at
	// ~1.5µs but its handler must not run before the window ends.
	sf := &scriptFaults{paused: map[int][2]sim.Time{1: {0, 100 * sim.Microsecond}}}
	m.SetFaults(sf)

	var ranAt sim.Time = -1
	m.Node(0).Send(&Packet{Dst: 1, Size: 16, Handler: func(n *Node, p *Packet) {
		ranAt = m.Eng.Now()
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ranAt < 100*sim.Microsecond {
		t.Errorf("handler ran at %v, inside the pause window", ranAt)
	}
	if got := m.C.NodePauses; got != 1 {
		t.Errorf("pauses counted = %d, want 1", got)
	}
	if got := m.Node(1).Clock; got < 100*sim.Microsecond {
		t.Errorf("paused node clock = %v, want >= window end", got)
	}
	// The pause must not count as busy time.
	if m.busy >= 100*sim.Microsecond {
		t.Errorf("pause accrued busy time: %v", m.busy)
	}
}

func TestNilFaultsUnchanged(t *testing.T) {
	// Without a fault model the send path must not change behaviour.
	m := MustNew(DefaultConfig(2))
	n := 0
	m.Node(0).Send(&Packet{Dst: 1, Size: 16, Handler: func(*Node, *Packet) { n++ }})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if c := m.C; c.LinkDrops+c.LinkDups+c.NodePauses != 0 {
		t.Fatalf("fault-free delivery counted faults: %+v", c)
	}
	if n != 1 {
		t.Fatalf("fault-free delivery broken: n=%d", n)
	}
}

// recycled counts how often each tracked packet comes back out of the
// machine's pool, failing if any record at all is handed out twice — which
// is what a record released twice (a self-looped free list) looks like. A
// packet tracked twice is counted once: the pool is the machine's, not a
// node's, so a packet recycled at one node may be the next one another node
// acquires, and it is then a second acquisition of the same record.
func recycled(t *testing.T, m *Machine, tracked ...*Packet) map[*Packet]int {
	t.Helper()
	want := make(map[*Packet]bool)
	for _, p := range tracked {
		want[p] = true
	}
	seen := make(map[*Packet]bool)
	count := make(map[*Packet]int)
	for id := 0; id < m.Nodes(); id++ {
		for i := 0; i < 64; i++ {
			p := m.Node(id).AcquirePacket()
			if seen[p] {
				t.Fatalf("node %d: pool handed out %p twice", id, p)
			}
			seen[p] = true
			if p.Handler != nil || p.OnArrive != 0 || p.Seq != 0 || p.HasAck || p.Ctrl || p.Size != 0 || p.next != nil {
				t.Fatalf("node %d: pool handed out a dirty record: %+v", id, *p)
			}
			if want[p] {
				count[p]++
			}
		}
	}
	return count
}

// Every way a packet can leave the machine — delivered, duplicated, dropped
// on the link, revoked by an era bump, lost at or inside a crashed node —
// must recycle a pooled packet exactly once, only after it has left the
// receive queue, and must never recycle a packet the machine does not own
// (a literal, a fault-model copy). That holds for both shapes a pooled packet
// takes: a data packet polled off the receive queue, and a transport
// acknowledgment — control channel, header word, controller hook only —
// that the destination's controller consumes on arrival.
func TestPacketRecycledAtMostOnce(t *testing.T) {
	const size = 24
	newMachine := func(outcomes ...[]sim.Time) *Machine {
		m := MustNew(DefaultConfig(2))
		m.SetFaults(&scriptFaults{outcomes: outcomes})
		return m
	}
	// shape fills in what makes p a data packet or an acknowledgment.
	shape := func(m *Machine, p *Packet, ack bool, h func(*Node, *Packet)) *Packet {
		p.Dst, p.Size = 1, size
		if ack {
			p.Ctrl, p.Seq, p.OnArrive = true, 7, m.RegisterHook(h)
		} else {
			p.Handler = h
		}
		return p
	}
	pooled := func(m *Machine, ack bool, h func(*Node, *Packet)) *Packet {
		return shape(m, m.Node(0).AcquirePacket(), ack, h)
	}

	for _, ack := range []bool{false, true} {
		name := map[bool]string{false: "data", true: "ack"}[ack]

		t.Run(name+"/duplicated", func(t *testing.T) {
			m := newMachine([]sim.Time{0, 700}, []sim.Time{0, 700})
			var got []*Packet
			h := func(n *Node, p *Packet) {
				if p.Size != size || (ack && p.Seq != 7) {
					t.Errorf("copy %d delivered after its record was recycled: %+v", len(got), *p)
				}
				got = append(got, p)
			}
			orig := pooled(m, ack, h)
			lit := shape(m, &Packet{}, ack, h)
			m.Node(0).Send(orig)
			m.Node(0).Send(lit)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 {
				t.Fatalf("deliveries = %d, want 4", len(got))
			}
			n := recycled(t, m, got...)
			for _, p := range got {
				want := 0 // literals and fault-model copies are not the machine's
				if p == orig {
					want = 1
				}
				if n[p] != want {
					t.Errorf("packet %p (pooled original: %v) recycled %d times, want %d", p, p == orig, n[p], want)
				}
			}
		})

		t.Run(name+"/dropped", func(t *testing.T) {
			m := newMachine(nil)
			p := pooled(m, ack, func(*Node, *Packet) { t.Error("dropped packet delivered") })
			if at := m.Node(0).Send(p); at != Dropped {
				t.Fatalf("Send = %v, want Dropped", at)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if n := recycled(t, m, p)[p]; n != 1 {
				t.Errorf("dropped packet recycled %d times, want 1", n)
			}
		})

		t.Run(name+"/era-revoked", func(t *testing.T) {
			m := newMachine()
			p := pooled(m, ack, func(*Node, *Packet) { t.Error("revoked packet delivered") })
			m.Node(0).Send(p)
			m.BumpEra()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.C.EraDrops != 1 {
				t.Fatalf("era drops = %d, want 1", m.C.EraDrops)
			}
			if n := recycled(t, m, p)[p]; n != 1 {
				t.Errorf("revoked packet recycled %d times, want 1", n)
			}
		})

		t.Run(name+"/crash-in-flight", func(t *testing.T) {
			m := newMachine()
			p := pooled(m, ack, func(*Node, *Packet) { t.Error("packet delivered to a crashed node") })
			m.Node(1).BeginOutage(sim.Millisecond)
			m.Node(0).Send(p) // lands at the dead controller
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.C.CrashDrops != 1 {
				t.Fatalf("crash drops = %d, want 1", m.C.CrashDrops)
			}
			if n := recycled(t, m, p)[p]; n != 1 {
				t.Errorf("crash-dropped packet recycled %d times, want 1", n)
			}
		})
	}

	// Only data packets wait in a receive queue for a crash to find them.
	pooledData := func(m *Machine, h func(*Node, *Packet)) *Packet { return pooled(m, false, h) }
	t.Run("crash-dropped", func(t *testing.T) {
		m := newMachine()
		h := func(*Node, *Packet) { t.Error("packet delivered to a crashed node") }
		queued := []*Packet{pooledData(m, h), pooledData(m, h)}
		dst := m.Node(1)
		dst.Charge(1 << 20) // busy: arrivals wait in the receive queue
		var last sim.Time
		for _, p := range queued {
			last = m.Node(0).Send(p)
		}
		if _, err := m.Eng.RunUntil(last); err != nil {
			t.Fatal(err)
		}
		if dst.PendingRx() != 2 {
			t.Fatalf("PendingRx = %d, want 2", dst.PendingRx())
		}
		// Still queued: intact, and not reachable through any pool.
		for _, p := range queued {
			if p.Size != size || !p.pooled {
				t.Fatalf("queued packet was recycled: %+v", *p)
			}
		}
		if n := recycled(t, m, queued...); len(n) != 0 {
			t.Fatalf("queued packets handed out by a pool: %v", n)
		}
		dst.BeginOutage(last + sim.Millisecond)
		if dst.PendingRx() != 0 {
			t.Fatalf("PendingRx after crash = %d, want 0", dst.PendingRx())
		}
		inFlight := pooledData(m, h) // lands at the dead controller
		m.Node(0).Send(inFlight)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.C.CrashDrops != 3 {
			t.Fatalf("crash drops = %d, want 3", m.C.CrashDrops)
		}
		all := append(queued, inFlight)
		n := recycled(t, m, all...)
		for _, p := range all {
			if n[p] != 1 {
				t.Errorf("crash-dropped packet %p recycled %d times, want 1", p, n[p])
			}
		}
	})
}
