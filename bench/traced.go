package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// minTracedReps is the least number of repetitions the CPU profile covers,
// however short the run.
const minTracedReps = 4

// gcCPUSeconds reads the collector's and the process's CPU seconds.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced pass: the isolated layer drivers, then untraced,
// traced and again untraced repetitions of the workload in one process that
// never reports an end-to-end number. The traced repetitions run under a
// CPU profile with harness spans on; the untraced ones on either side give
// the overhead the tracing adds.
func runTraced(w *workload, sz size, seed int64, seconds float64, outDir string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	begin := time.Now()
	iso, err := runIso(seed, sz.div)
	if err != nil {
		return result{}, fmt.Errorf("isolated driver: %w", err)
	}

	in := w.gen(seed, sz)
	warm, err := warmUp(w, in)
	if err != nil {
		return result{}, err
	}

	// Half of what is left of the run goes to traced repetitions, a quarter
	// to untraced ones on each side of them.
	perRep := warm.first.wall + CalRefS
	left := seconds - time.Since(begin).Seconds()
	n := int(left / (2 * perRep))
	if n < minTracedReps {
		n = minTracedReps
	}
	plain := &repLoop{w: w, in: in, want: warm.want}
	plain.run(func(done int) bool { return done >= n/2 })

	tr := &tracer{}
	traced := &repLoop{w: w, in: in, want: warm.want, tr: tr}
	var profile bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPUSeconds()
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, err
	}
	traced.run(func(done int) bool { return done >= n })
	pprof.StopCPUProfile()
	gc1, cpu1 := gcCPUSeconds()
	runtime.ReadMemStats(&after)

	plain.run(func(done int) bool { return done >= n-n/2 })

	if err := os.WriteFile(filepath.Join(outDir, w.name+".cpu.pprof"), profile.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return result{}, err
	}
	if len(plain.times) == 0 || len(traced.times) == 0 {
		return result{}, fmt.Errorf("%s: no good repetition in the traced pass", w.name)
	}
	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return result{}, err
	}
	cpu := foldCPU(samples)

	first := traced.first
	rep, c := first.report, first.report.Sched.Counters
	msgs := float64(first.msgs)
	reps := float64(traced.attempted)
	m := map[string]metric{}
	for _, layer := range cpuLayers {
		m[layer+".cpu_ns_per_msg"] = metric{float64(cpu[layer]) / (reps * msgs), "ns/msg"}
	}
	m["go_gc.cycles_per_rep"] = metric{float64(after.NumGC-before.NumGC) / reps, "count"}
	m["go_gc.cpu_fraction"] = metric{ratio(gc1-gc0, cpu1-cpu0), "ratio"}
	m["go_gc.heap_peak_mb"] = metric{float64(after.HeapSys) / 1e6, "MB"}

	m["sim.events_per_msg"] = metric{float64(first.events) / msgs, "1/msg"}
	m["sim.events_per_s"] = metric{float64(first.events) / median(plain.times), "1/s"}
	m["sim.sync_windows"] = metric{float64(first.windows), "count"}
	m["sim.events_per_window"] = metric{ratio(float64(first.events), float64(first.windows)), "count"}

	m["machine.packets_per_msg"] = metric{float64(rep.Wire.Packets) / msgs, "1/msg"}
	m["machine.wire_bytes_per_msg"] = metric{float64(rep.Wire.Bytes) / msgs, "B/msg"}
	m["machine.instr_per_msg"] = metric{float64(rep.Sched.TotalInstructions) / msgs, "1/msg"}
	m["machine.utilization"] = metric{rep.Sched.Utilization, "ratio"}

	m["remote.remote_send_fraction"] = metric{float64(c.RemoteSends) / msgs, "ratio"}
	m["remote.msgs_per_packet"] = metric{ratio(float64(rep.Wire.LogicalMsgs), float64(rep.Wire.Packets)), "ratio"}
	m["remote.acks_per_msg"] = metric{float64(c.AcksSent) / msgs, "1/msg"}
	m["remote.retransmits"] = metric{float64(c.Retransmits), "count"}
	m["remote.stock_hit_rate"] = metric{ratio(float64(c.StockHits), float64(c.StockHits+c.StockMisses)), "ratio"}

	m["core.dormant_fraction"] = metric{c.DormantFraction(), "ratio"}
	m["core.creates_per_msg"] = metric{float64(c.Creations()) / msgs, "1/msg"}
	m["core.heap_frames_per_msg"] = metric{float64(c.HeapFrames) / msgs, "1/msg"}
	m["core.sched_enqueues_per_msg"] = metric{float64(c.SchedEnqueues) / msgs, "1/msg"}

	for i, name := range spanMetrics {
		m[name] = metric{median(tr.durationsMs(spanNames[i])), "ms"}
	}

	m["trace.overhead_pct"] = metric{(median(traced.times)/median(plain.times) - 1) * 100, "%"}
	m["host.cal_ms"] = metric{median(append(plain.cals, traced.cals...)) * 1e3, "ms"}
	for name, v := range iso {
		unit := "ns"
		if name == "core.paper_table1_err_pct" {
			unit = "%"
		}
		m[name] = metric{v, unit}
	}

	printHost(m["host.cal_ms"].Value)
	fmt.Printf("%s: seed %d, traced pass: %d traced and %d untraced reps, %d CPU samples, files in %s\n",
		w.name, seed, traced.attempted, plain.attempted, len(samples), outDir)
	return result{
		Correct:   plain.failed+traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}
