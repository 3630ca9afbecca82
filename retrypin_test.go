// Retry-equivalence pin for the reliable layer's host-side bookkeeping.
//
// How a sender remembers what it has in flight — a timer per message or one
// deadline per node, a map or a window, closures or header words — is host
// bookkeeping and must not show in the simulation: every retransmission fires
// at the same virtual instant, in the same place among equal-time events.
// The lossy rows' constants were recorded before the per-link records and the
// node retry deadline replaced the per-message timers, the lossless row's
// before the delayed-ack timer moved to a reserved position, and the event
// counts before batch frames became chains of their records; the trace hash
// covers the order of every retry, ack, hold and duplicate drop.
package abcl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	abcl "repro"
	"repro/internal/apps/nqueens"
	"repro/internal/trace"
)

// htmlEscaped writes a JSONL stream to w in the layout the pinned trace
// hashes were recorded in, when the sink still escaped "<", ">" and "&"
// (json.HTMLEscape), so that each hash still covers every byte of the
// events it pinned.
type htmlEscaped struct{ w io.Writer }

func (e htmlEscaped) Write(b []byte) (int, error) {
	var esc bytes.Buffer
	json.HTMLEscape(&esc, b)
	if _, err := e.w.Write(esc.Bytes()); err != nil {
		return 0, err
	}
	return len(b), nil
}

type retryPin struct {
	elapsed                              abcl.Time
	events                               uint64
	retransmits, acksSent, acksCoalesced uint64
	dupSuppressed, heldOutOfOrder        uint64
	traceSHA                             string
}

func TestRetryEquivalencePin(t *testing.T) {
	lossy := abcl.UniformFaults(0.10, 0.05, 2*abcl.Microsecond)
	cases := []struct {
		name     string
		faults   abcl.FaultPlan // the zero plan: a lossless interconnect
		ackDelay abcl.Time
		want     retryPin
	}{
		{"delayed-acks", lossy, 500 * abcl.Microsecond, retryPin{
			elapsed: 12995459, events: 17910, retransmits: 1616, acksSent: 1183, acksCoalesced: 7543,
			dupSuppressed: 1014, heldOutOfOrder: 1194,
			traceSHA: "731943320589d474711895504366f93b504e412048568d7203716763c00bb6fb",
		}},
		{"immediate-acks", lossy, 0, retryPin{
			elapsed: 11496214, events: 23580, retransmits: 1795, acksSent: 8927, acksCoalesced: 0,
			dupSuppressed: 1207, heldOutOfOrder: 582,
			traceSHA: "11b1112d44ca98c3ef3024e3118d4343838e20a22c24e8bc9880a02c4088542d",
		}},
		// The benchmark's nqueens-relbatch configuration: the flush and
		// delayed-ack timers alone, with nothing lost to retry.
		{"lossless", abcl.FaultPlan{}, 500 * abcl.Microsecond, retryPin{
			elapsed: 10965859, events: 14114, retransmits: 0, acksSent: 1261, acksCoalesced: 6467,
			dupSuppressed: 0, heldOutOfOrder: 0,
			traceSHA: "f9b184bd1cf0e8547969b849251a111e8fffde0e7ae51ca3ac4b713430133bed",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(obs abcl.Sink) retryPin {
				opts := []abcl.Option{
					abcl.WithNodes(16), abcl.WithSeed(3),
					abcl.WithFaults(tc.faults),
					abcl.WithReliable(),
					abcl.WithBatching(10*abcl.Microsecond, 0),
					abcl.WithObserver(obs),
				}
				if tc.ackDelay > 0 {
					opts = append(opts, abcl.WithDelayedAcks(tc.ackDelay))
				}
				sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithPlacement(abcl.PlaceRandom)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				d := nqueens.Build(sys, 8, 0)
				d.Start()
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				res, err := d.Result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Solutions != 92 {
					t.Fatalf("N=8 solutions = %d, want 92", res.Solutions)
				}
				c := res.Stats
				return retryPin{
					elapsed: res.Elapsed, events: sys.M.Eng.Fired(), retransmits: c.Retransmits,
					acksSent: c.AcksSent, acksCoalesced: c.AcksCoalesced,
					dupSuppressed: c.DupSuppressed, heldOutOfOrder: c.HeldOutOfOrder,
				}
			}
			h := sha256.New()
			got := run(trace.NewJSONL(htmlEscaped{h}))
			got.traceSHA = hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("\n got  %+v\n want %+v", got, tc.want)
			}
			if tc.faults.Enabled() && (got.retransmits == 0 || got.dupSuppressed == 0 || got.heldOutOfOrder == 0) {
				t.Errorf("fault plan idle: %+v", got)
			}
		})
	}
}
