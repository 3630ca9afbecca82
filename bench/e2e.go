package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

const (
	// setupProbes is how many cold set-ups one run times; setup_s is their
	// median, never a single sub-second sample.
	setupProbes = 5
	// warmupReps run untimed before the measured section so the heap has
	// reached its working size.
	warmupReps = 1
)

// probeResult is what a set-up probe process prints.
type probeResult struct {
	SetupS float64 `json:"setup_s"` // reference-host seconds
	CalS   float64 `json:"cal_s"`
}

// setupProbe times what a one-shot user pays in a fresh process: making
// the inputs and the first, cold repetition — heap growth, lazy tables and
// all. It runs in a process of its own so that each sample is cold.
func setupProbe(w *workload, sz size, seed int64) error {
	before := calibrate(sz.div)
	start := time.Now()
	in := w.gen(seed, sz)
	if _, err := runRep(w, in, nil); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	after := calibrate(sz.div)
	return json.NewEncoder(os.Stdout).Encode(probeResult{
		SetupS: normalise(wall, before, after),
		CalS:   (before + after) / 2,
	})
}

// runSelf runs this binary again at the same size with the given arguments
// and returns its standard output; its standard error passes through.
func runSelf(sz size, args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append(args, "-small="+strconv.FormatBool(sz == smallSize))...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// measureSetup runs the set-up probe setupProbes times, one process at a
// time, and returns the normalised samples and the calibration timings.
func measureSetup(w *workload, sz size, seed int64) (setups, cals []float64, err error) {
	for i := 0; i < setupProbes; i++ {
		outBytes, err := runSelf(sz, "-setup-probe", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe: %w", err)
		}
		var p probeResult
		if err := json.Unmarshal(outBytes, &p); err != nil {
			return nil, nil, fmt.Errorf("set-up probe output: %w", err)
		}
		setups = append(setups, p.SetupS)
		cals = append(cals, p.CalS)
	}
	return setups, cals, nil
}

// repLoop runs repetitions one at a time, each between two calibration
// timings, and keeps the reference-host time of every good one. A
// repetition fails on an error, a wrong answer or a digest other than want.
type repLoop struct {
	w    *workload
	in   *inputs
	want string  // digest every repetition must have; "" = that of the first
	tr   *tracer // nil with tracing off

	first     repResult // the first good repetition
	times     []float64 // reference-host seconds of each good repetition
	cals      []float64 // every calibration timing, seconds
	attempted int
	failed    int
}

func (l *repLoop) run(stop func(done int) bool) {
	cal := calibrate(l.in.div)
	l.cals = append(l.cals, cal)
	for done := 0; !stop(done); done++ {
		r, err := runRep(l.w, l.in, l.tr)
		next := calibrate(l.in.div)
		l.cals = append(l.cals, next)
		l.attempted++
		if err == nil {
			if l.want == "" {
				l.want = r.digest
			}
			if r.digest != l.want {
				err = fmt.Errorf("digest %s differs from %s", r.digest, l.want)
			}
		}
		if err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "bench: %s: repetition %d failed: %v\n", l.w.name, l.attempted, err)
		} else {
			if l.first.digest == "" {
				l.first = r
			}
			l.times = append(l.times, normalise(r.wall, cal, next))
		}
		cal = next
	}
}

// warmUp fixes the digest every later repetition must reproduce — that of
// the workload w must be observationally equal to, the same inputs under
// another executor, when there is one — and runs warmupReps untimed
// repetitions against it. The returned loop holds that digest and the
// first repetition.
func warmUp(w *workload, in *inputs) (*repLoop, error) {
	warm := &repLoop{w: w, in: in}
	if w.sameAs != "" {
		ref, err := runRep(findWorkload(w.sameAs), in, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", w.sameAs, err)
		}
		warm.want = ref.digest
	}
	warm.run(func(done int) bool { return done >= warmupReps })
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up repetition failed", w.name)
	}
	return warm, nil
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(w *workload, sz size, seed int64, seconds float64) (result, error) {
	setups, setupCals, err := measureSetup(w, sz, seed)
	if err != nil {
		return result{}, err
	}

	in := w.gen(seed, sz)
	warm, err := warmUp(w, in)
	if err != nil {
		return result{}, err
	}
	// Sized up front so the measured section's allocation counts are the
	// program's, not the harness's.
	loop := &repLoop{w: w, in: in, want: warm.want, times: make([]float64, 0, 1024), cals: make([]float64, 0, 1024)}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	loop.run(func(int) bool { return !time.Now().Before(deadline) })
	runtime.ReadMemStats(&after)
	if len(loop.times) < 2 {
		return result{}, fmt.Errorf("%s: %d good repetitions in %.0f s, need at least 2", w.name, len(loop.times), seconds)
	}

	msgs := float64(loop.first.msgs)
	reps := float64(loop.attempted)
	med := median(loop.times)
	q1, q3 := quartiles(loop.times)
	printHost(median(append(loop.cals, setupCals...)) * 1e3)
	fmt.Printf("%s: seed %d, %d msgs/rep, %d events/rep, %d sync windows, digest %s\n",
		w.name, seed, loop.first.msgs, loop.first.events, loop.first.windows, loop.want)
	fmt.Printf("%s: rep time median %.4f s, p25 %.4f s, p75 %.4f s over %d reps (reference-host seconds)\n",
		w.name, med, q1, q3, len(loop.times))
	fmt.Printf("%s: set-up samples %.4f s\n", w.name, setups)

	return result{
		Correct:   loop.failed == 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics: map[string]metric{
			"msgs_per_s":          {msgs / med, "msgs/s"},
			"setup_s":             {median(setups), "s"},
			"allocs_per_msg":      {float64(after.Mallocs-before.Mallocs) / (reps * msgs), "1/msg"},
			"alloc_bytes_per_msg": {float64(after.TotalAlloc-before.TotalAlloc) / (reps * msgs), "B/msg"},
			"virtual_us":          {loop.first.report.Sched.Elapsed.Micros(), "sim_us"},
		},
	}, nil
}
