// Held-arrival pin: the configurations in which a node receives both plain
// packet arrivals (no controller hook) and hooked ones, or receives arrivals
// across a turn that a node pause defers. The constants were recorded before
// the engine ever held an arrival, and kept while it did: an earlier engine
// let a plain arrival for a node whose turn was queued wait off the global
// order until that turn. They now pin that strict (time, seq) order
// reproduces that order: every virtual time, count and trace line stays
// where it was.
package abcl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	abcl "repro"
	"repro/internal/apps/nqueens"
	"repro/internal/fault"
	"repro/internal/trace"
)

type heldPin struct {
	elapsed                   abcl.Time
	events, packets           uint64
	remoteDelivers, stockHits uint64
	linkDrops, pauses         uint64
	batchesSent, batchedMsgs  uint64
	solutions                 int64 // -1: the run ended short of its answer
	traceSHA                  string
}

func TestHeldArrivalPin(t *testing.T) {
	// Installed on the machine alone, past WithFaults, which would turn the
	// reliable layer on. Without it a lost message stays lost and the run
	// ends short of its answer, where the pin records it. The plan has no
	// duplicates: without the reliable layer's deduplication the second copy
	// of a wire record would be handled after the first released it.
	// machine.TestHeldDeliveryPin delivers duplicated packets.
	unreliable := fault.UniformLinks(0.02, 0, 2*abcl.Microsecond).
		WithPause(3, 200*abcl.Microsecond, 300*abcl.Microsecond).
		WithPause(7, 900*abcl.Microsecond, 150*abcl.Microsecond).
		WithPause(11, 1500*abcl.Microsecond, 400*abcl.Microsecond)
	cases := []struct {
		name   string
		opts   []abcl.Option
		faults abcl.FaultPlan
		want   heldPin
	}{
		// Batch frames carry a hook, lone records do not.
		{"batching-unreliable", []abcl.Option{abcl.WithBatching(10*abcl.Microsecond, 0)}, abcl.FaultPlan{}, heldPin{
			elapsed: 11060292, events: 11507, packets: 5994, remoteDelivers: 3860, stockHits: 1630,
			linkDrops: 0, pauses: 0, batchesSent: 1653, batchedMsgs: 3379, solutions: 92,
			traceSHA: "7be3b7cb3c0bc4ac012970cf34bfdcc8183c5e169b513318d9f6bf92fdc9d521",
		}},
		// Paused turns are deferred while arrivals keep landing behind them.
		{"faults-unreliable", nil, unreliable, heldPin{
			elapsed: 7025663, events: 5552, packets: 4497, remoteDelivers: 2116, stockHits: 1038,
			linkDrops: 83, pauses: 3, batchesSent: 0, batchedMsgs: 0, solutions: -1,
			traceSHA: "06e94bd81e2bb572d29621ce57168f693b3a98c4e8c1a54adda11f8d34be285d",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(obs abcl.Sink) heldPin {
				opts := append([]abcl.Option{abcl.WithNodes(16), abcl.WithSeed(3),
					abcl.WithPlacement(abcl.PlaceRandom), abcl.WithObserver(obs)}, tc.opts...)
				sys, err := abcl.NewSystem(opts...)
				if err != nil {
					t.Fatal(err)
				}
				if tc.faults.Enabled() {
					in, err := fault.NewInjector(tc.faults, 3, 16)
					if err != nil {
						t.Fatal(err)
					}
					sys.M.SetFaults(in)
				}
				d := nqueens.Build(sys, 8, 0)
				d.Start()
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				solutions := int64(-1)
				if res, err := d.Result(); err == nil {
					solutions = res.Solutions
				}
				rep := sys.Report()
				c := rep.Sched.Counters
				return heldPin{
					elapsed: rep.Sched.Elapsed, events: sys.M.Eng.Fired(), packets: sys.M.TotalPackets(),
					remoteDelivers: c.RemoteDelivers, stockHits: c.StockHits,
					linkDrops: c.LinkDrops, pauses: c.NodePauses,
					batchesSent: c.BatchesSent, batchedMsgs: c.BatchedMsgs, solutions: solutions,
				}
			}
			h := sha256.New()
			got := run(trace.NewJSONL(h))
			got.traceSHA = hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
