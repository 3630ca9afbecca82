package machine_test

import (
	"testing"

	abcl "repro"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Delivery advances the receiver's clock to the delivery event's own time
// and never reads Packet.Arrival: that is sound only if the two are equal,
// i.e. if no send is ever clamped by the engine. Every delivery of n-queens
// and hot-key under each wire-path and recovery feature checks it.
func TestDeliveryTimeIsArrival(t *testing.T) {
	var deliveries, off int
	stop := machine.WatchDeliveries(func(at sim.Time, p *machine.Packet) {
		deliveries++
		if at != p.Arrival {
			off++
		}
	})
	defer stop()
	lossy := abcl.UniformFaults(0.05, 0.05, 2*abcl.Microsecond)
	// The crash plans are those of the nqueens-crash-recover scenario and of
	// TestCrashRestartMidGroup.
	for _, app := range []struct {
		workload.Spec
		crash abcl.FaultPlan
	}{
		{workload.Spec{Workload: "nqueens", Nodes: 8, Seed: 7, N: 7},
			abcl.FaultPlan{}.WithCrash(3, 1_500_000, 400_000).WithCrash(5, 3_200_000, 400_000)},
		{workload.Spec{Workload: "hotkey", Nodes: 8, Clients: 8, Ops: 20},
			abcl.FaultPlan{}.WithCrash(0, 1_500_000, 300_000)},
	} {
		for _, v := range []struct {
			name string
			set  func(*workload.Spec)
			used func(abcl.Counters) bool
		}{
			{"faults", func(sp *workload.Spec) { sp.Reliable, sp.Faults = true, &lossy },
				func(c abcl.Counters) bool { return c.Retransmits > 0 && c.DupSuppressed > 0 }},
			{"batching", func(sp *workload.Spec) { sp.BatchWindowNs = 10_000 },
				func(c abcl.Counters) bool { return c.BatchesSent > 0 }},
			{"reliable-delayed-acks", func(sp *workload.Spec) { sp.AckDelayNs = 500_000 },
				func(c abcl.Counters) bool { return c.AcksCoalesced > 0 }},
			{"crash-checkpoint", func(sp *workload.Spec) { sp.CkptIntervalNs, sp.Faults = 500_000, &app.crash },
				func(c abcl.Counters) bool { return c.NodeRestarts == uint64(len(app.crash.Crashes)) && c.CkptSaves > 0 }},
		} {
			sp := app.Spec
			v.set(&sp)
			deliveries, off = 0, 0
			out, err := workload.Run(sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Workload, v.name, err)
			}
			if c := out.Report.Sched.Counters; !v.used(c) {
				t.Errorf("%s/%s: the feature was not exercised: %+v", app.Workload, v.name, c)
			}
			if deliveries == 0 || off != 0 {
				t.Errorf("%s/%s: %d of %d deliveries fired off their packet's arrival time", app.Workload, v.name, off, deliveries)
			}
		}
	}
}
