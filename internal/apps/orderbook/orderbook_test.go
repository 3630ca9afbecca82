package orderbook

import (
	"testing"

	abcl "repro"
)

// Funds are conserved and the audit trail is complete whether or not the
// book is annotated; the grouped run overlaps compatible operations while
// transfers stay exclusive (a violated exclusion panics inside the method).
func TestOrderBookConservation(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		res, err := Run(Options{Clients: 12, Ops: 30, Grouped: grouped}, abcl.WithNodes(8))
		if err != nil {
			t.Fatalf("grouped=%v: %v", grouped, err)
		}
		if res.Total != res.WantTotal {
			t.Errorf("grouped=%v: total %d, want %d", grouped, res.Total, res.WantTotal)
		}
		if res.AuditLen != res.Ops {
			t.Errorf("grouped=%v: audit %d entries, want %d", grouped, res.AuditLen, res.Ops)
		}
		if grouped && res.MaxLive < 2 {
			t.Errorf("grouped book never overlapped (maxLive=%d)", res.MaxLive)
		}
		if !grouped && res.MaxLive != 0 {
			t.Errorf("serial book reported %d live invocations", res.MaxLive)
		}
	}
}

// Both runs execute the identical operation stream, so the op breakdown
// must match exactly; only the schedule (and throughput) may differ.
func TestOrderBookGroupingSpeedsUp(t *testing.T) {
	serial, err := Run(Options{Clients: 12, Ops: 30, Grouped: false}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := Run(Options{Clients: 12, Ops: 30, Grouped: true}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Reads != grouped.Reads || serial.Deposits != grouped.Deposits || serial.Transfers != grouped.Transfers {
		t.Errorf("op mix diverged: serial %d/%d/%d vs grouped %d/%d/%d",
			serial.Reads, serial.Deposits, serial.Transfers,
			grouped.Reads, grouped.Deposits, grouped.Transfers)
	}
	if grouped.Throughput <= serial.Throughput {
		t.Errorf("grouping did not help: %.1f vs %.1f ops/ms", grouped.Throughput, serial.Throughput)
	}
	if serial.Total != grouped.Total {
		t.Errorf("final totals diverge: %d vs %d", serial.Total, grouped.Total)
	}
}
