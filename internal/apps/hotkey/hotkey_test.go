package hotkey

import (
	"testing"

	abcl "repro"
)

// The headline acceptance number: at 16 processors, full annotation
// coverage must buy at least 3x throughput over the unannotated serial
// counter, on the identical request stream.
func TestHotKeyMultiactiveSpeedup(t *testing.T) {
	opts := Options{Clients: 16, Ops: 40, WritePct: 20}

	opts.Coverage = CoverNone
	serial, err := Run(opts, abcl.WithNodes(16))
	if err != nil {
		t.Fatal(err)
	}
	opts.Coverage = CoverFull
	full, err := Run(opts, abcl.WithNodes(16))
	if err != nil {
		t.Fatal(err)
	}

	if serial.MaxLive != 0 {
		t.Errorf("serial counter observed %d live invocations, want 0", serial.MaxLive)
	}
	if full.MaxLive < 2 {
		t.Errorf("full coverage peaked at %d concurrent invocations, want >= 2", full.MaxLive)
	}
	if serial.Ops != full.Ops || serial.Final != full.Final {
		t.Errorf("coverage changed the answer: serial ops=%d final=%d, full ops=%d final=%d",
			serial.Ops, serial.Final, full.Ops, full.Final)
	}
	speedup := full.Throughput / serial.Throughput
	if speedup < 3.0 {
		t.Errorf("full/none throughput = %.1f/%.1f ops/ms (%.2fx), want >= 3x",
			full.Throughput, serial.Throughput, speedup)
	}
}

// Partial coverage lands between serial and full: reads overlap, writes
// still serialize the object.
func TestHotKeyCoverageMonotonic(t *testing.T) {
	opts := Options{Clients: 12, Ops: 25, WritePct: 20}
	var thr [3]float64
	for i, cov := range []Coverage{CoverNone, CoverPartial, CoverFull} {
		opts.Coverage = cov
		res, err := Run(opts, abcl.WithNodes(8))
		if err != nil {
			t.Fatalf("%v: %v", cov, err)
		}
		thr[i] = res.Throughput
	}
	if !(thr[0] < thr[1] && thr[1] < thr[2]) {
		t.Errorf("throughput not monotonic in coverage: none=%.1f partial=%.1f full=%.1f",
			thr[0], thr[1], thr[2])
	}
}

// Runs are a pure function of the options: repeated executions produce
// identical virtual-time results.
func TestHotKeyDeterminism(t *testing.T) {
	opts := Options{Clients: 8, Ops: 20, Coverage: CoverFull}
	a, err := Run(opts, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Ops != b.Ops || a.Stats != b.Stats {
		t.Errorf("runs diverge: %+v vs %+v", a, b)
	}
}

// The workload composes with the reliable wire path: lossy links change
// timing but not the ledger.
func TestHotKeyLossyLinks(t *testing.T) {
	res, err := Run(Options{Clients: 6, Ops: 15, Coverage: CoverFull},
		abcl.WithNodes(4), abcl.WithFaults(abcl.UniformFaults(0.05, 0.05, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LinkDrops == 0 {
		t.Error("lossy run recorded no drops")
	}
	if lost := res.Stats.LostMessages(); lost != 0 {
		t.Errorf("%d messages lost", lost)
	}
}

func TestParseCoverage(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Coverage
	}{{"none", CoverNone}, {"partial", CoverPartial}, {"full", CoverFull}} {
		got, err := ParseCoverage(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCoverage(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseCoverage("bogus"); err == nil {
		t.Error("bogus coverage accepted")
	}
}
