package abcl_test

import (
	"testing"

	abcl "repro"
	"repro/internal/apps/hotkey"
)

// Crashing the counter's node mid-run — while grouped invocations are
// overlapped inside their compatibility groups — must roll back to the
// last checkpoint and replay to the same ledger: per-group queues are
// captured and restored with the rest of the node state, and the
// workload keeps its operation counts in object state so the rollback
// rewinds them consistently (the host-write rule).
func TestCrashRestartMidGroup(t *testing.T) {
	base := hotkey.Options{Clients: 8, Ops: 20, Coverage: hotkey.CoverFull}
	sysOpts := []abcl.Option{
		abcl.WithNodes(8),
		abcl.WithCheckpoint(500_000), // 500µs rounds; the run takes ~3.4ms
	}
	clean, err := hotkey.Run(base, sysOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if clean.MaxLive < 2 {
		t.Fatalf("workload never overlapped invocations (maxLive=%d); crash would not land mid-group", clean.MaxLive)
	}

	res, err := hotkey.Run(base, append(sysOpts, abcl.WithFaults(abcl.FaultPlan{Crashes: []abcl.NodeCrash{
		{Node: 0, At: 1_500_000, RestartAfter: 300_000},
	}}))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodeRestarts == 0 {
		t.Error("no node restart recorded; the crash did not land")
	}
	if res.Report.Ckpt.Rounds == 0 {
		t.Error("no checkpoint rounds completed")
	}
	if res.Ops != clean.Ops || res.Final != clean.Final {
		t.Errorf("recovery changed the ledger: ops=%d final=%d, want ops=%d final=%d",
			res.Ops, res.Final, clean.Ops, clean.Final)
	}
	if res.Elapsed <= clean.Elapsed {
		t.Errorf("crashed run finished in %v, not slower than clean %v", res.Elapsed, clean.Elapsed)
	}
}
