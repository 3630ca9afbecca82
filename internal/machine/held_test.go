package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Held-delivery pin. Packets hop between busy nodes over a lossy, duplicating
// interconnect with node pauses: nearly every delivery lands behind a queued
// or deferred turn, and every copy a duplicate makes is delivered. The
// constants were recorded before the engine ever held a delivery, and kept
// while an earlier engine held such deliveries off the global order until
// the node's turn; they now pin that strict (time, seq) order reproduces
// that order. The digest covers every handler call in order — node, source,
// arrival, hop — and so each node's receive order; the trace digest covers
// the machine's drop, duplicate and pause records.
func TestHeldDeliveryPin(t *testing.T) {
	const nodes = 16
	m := MustNew(DefaultConfig(nodes))
	plan := fault.UniformLinks(0.05, 0.05, 2*sim.Microsecond).
		WithPause(3, 20*sim.Microsecond, 30*sim.Microsecond).
		WithPause(9, 50*sim.Microsecond, 40*sim.Microsecond).
		WithPause(12, 10*sim.Microsecond, 80*sim.Microsecond)
	in, err := fault.NewInjector(plan, 3, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(in)
	th := sha256.New()
	m.SetTrace(trace.NewJSONL(th))
	calls := sha256.New()
	var recvd uint64
	var hop func(n *Node, p *Packet)
	hop = func(n *Node, p *Packet) {
		recvd++
		fmt.Fprintf(calls, "%d %d %d %d\n", n.ID, p.Src, p.Arrival, p.Seq)
		n.Charge(100 + int(p.Seq%7)*60)
		if p.Seq < 12 {
			n.Send(&Packet{Dst: (int(p.Seq)*7 + n.ID*3 + 1) % nodes, Size: 16, Handler: hop, Seq: p.Seq + 1})
		}
	}
	for i := 0; i < nodes; i++ {
		for k := 0; k < 6; k++ {
			m.Node(i).Send(&Packet{Dst: (i*5 + k + 1) % nodes, Size: 16, Handler: hop, Seq: uint64(k)})
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("elapsed %d fired %d sent %d recvd %d drops %d dups %d pauses %d calls %s trace %s",
		m.MaxClock(), m.Eng.Fired(), m.TotalPackets(), recvd, m.C.LinkDrops, m.C.LinkDups, m.C.NodePauses,
		hex.EncodeToString(calls.Sum(nil))[:16], hex.EncodeToString(th.Sum(nil))[:16])
	if want := "elapsed 1875813 fired 1270 sent 944 recvd 933 drops 38 dups 27 pauses 2 calls f14b0cfeb9a335d5 trace 28a593784818bcf3"; got != want {
		t.Errorf("\n got  %s\n want %s", got, want)
	}
}
