// Package scenario executes declarative fault-injection scenarios: a JSON
// document is a run spec (internal/workload: the program, the fleet and the
// fault schedule — link drop / duplication / jitter rules, node pause
// windows, node crashes that recover from coordinated checkpoints) plus a
// name and assertions. The runner executes the spec twice with the same seed
// — once with its fault schedule removed, once as written — and checks that
// the faulted run reaches quiescence, computes the same answer, loses no
// messages, and satisfies the document's extra assertions. The reliable
// layer retransmits every record until it is acknowledged, so any fault plan
// the spec validation accepts is expected to pass the first three checks.
//
// The format is intentionally small and declarative (compare the fleet /
// events / assertions scenario files of distributed-system simulators):
// everything a scenario can express is reproducible from (spec, seed)
// alone.
package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"sort"

	abcl "repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Assert lists the optional assertions of a scenario. Quiescence, an
// answer identical to the fault-free baseline and zero lost messages (in a
// plan without crashes) are always checked — they are the point of the
// reliable-delivery subsystem, not an option.
type Assert struct {
	// MinRetries requires at least this many retransmissions (proof the
	// faults actually bit).
	MinRetries uint64 `json:"min_retries,omitempty"`
	// MinDrops requires at least this many injected link drops.
	MinDrops uint64 `json:"min_drops,omitempty"`
	// MinDupSuppressed requires at least this many suppressed duplicates.
	MinDupSuppressed uint64 `json:"min_dup_suppressed,omitempty"`
	// MinPauses requires at least this many node-pause activations.
	MinPauses uint64 `json:"min_pauses,omitempty"`
	// MinRestarts requires at least this many crash restarts (proof the
	// declared crashes fired before the workload finished).
	MinRestarts uint64 `json:"min_restarts,omitempty"`
	// MinCkptRounds requires at least this many completed coordinated
	// checkpoint rounds in the faulted run.
	MinCkptRounds uint64 `json:"min_ckpt_rounds,omitempty"`
}

// Spec is one scenario document: a run spec with a name and assertions. Its
// keys are the run spec's own — every setting a plain run takes, a scenario
// takes, applied to the baseline and the faulted run alike so the two stay
// comparable (checkpoints cost both runs the same; a positive ack_delay_ns
// forces the reliable protocol on in the fault-free baseline too). Without a
// name and assertions the document is a plain run spec (Plain), which is
// how a runpack's config.json holds either.
type Spec struct {
	Name string `json:"name,omitempty"`
	workload.Spec
	Assert *Assert `json:"assert,omitempty"`
}

// Plain reports whether the document is a bare run spec — no name, no
// assertions: it runs once and is judged by the run spec's rules alone,
// where a scenario runs twice and is held to its assertions.
func (sp Spec) Plain() bool { return sp.Name == "" && sp.Assert == nil }

// Validate rejects a document before anything runs: a Plain one by the run
// spec's rules alone, a scenario also by its own. Like NewSystem's option
// validation, every complaint — missing fields, unknown workloads, bad fault
// schedules — is collected and returned as one joined error, so a broken
// document reports all of its problems at once.
func (sp Spec) Validate() error {
	if sp.Plain() {
		return sp.Spec.Validate()
	}
	var errs []error
	name := sp.Name
	if name == "" {
		name = "(unnamed)"
		errs = append(errs, fmt.Errorf("scenario: missing name"))
	}
	// A fault schedule names nodes, so a scenario states its fleet.
	if sp.Nodes < 1 {
		errs = append(errs, fmt.Errorf("scenario %s: nodes must be >= 1", name))
	}
	if err := sp.Spec.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("scenario %s: %w", name, err))
	}
	return errors.Join(errs...)
}

// Outcome reports a full scenario execution: the fault-free baseline, the
// faulted run, and any assertion violations (empty = pass). Its JSON form
// (a runpack's report.json) leaves out the document, which the pack's
// config.json holds.
type Outcome struct {
	Spec       Spec `json:"-"`
	Baseline   workload.Outcome
	Faulted    workload.Outcome
	Violations []string
}

// OK reports whether every assertion held.
func (o Outcome) OK() bool { return len(o.Violations) == 0 }

// Run executes the scenario: baseline first, then the faulted run, then the
// assertions. extra attaches instrumentation to both runs alike (an observer
// receives every event of the baseline followed by every event of the
// faulted run; the runpack subsystem captures its replayable trace this
// way). The error return is for infrastructure failures (bad spec, workload
// error); assertion failures land in Outcome.Violations.
func Run(sp Spec, extra ...abcl.Option) (Outcome, error) {
	if err := sp.Validate(); err != nil {
		return Outcome{}, err
	}
	// Round-robin placement unless stated, so that the fault-free and the
	// faulted run place their objects alike.
	run := sp.Spec
	run.Placement = cmp.Or(run.Placement, "rr")
	clean := run
	clean.Faults = nil
	base, err := workload.Run(clean, extra...)
	if err != nil {
		return Outcome{}, fmt.Errorf("scenario %s: baseline: %w", sp.Name, err)
	}
	faulted, err := workload.Run(run, extra...)
	if err != nil {
		return Outcome{}, fmt.Errorf("scenario %s: faulted: %w", sp.Name, err)
	}
	o := Outcome{Spec: sp, Baseline: base, Faulted: faulted}
	o.check()
	return o, nil
}

func (o *Outcome) check() {
	crashes := len(o.Spec.FaultPlan().Crashes)
	var want Assert
	if o.Spec.Assert != nil {
		want = *o.Spec.Assert
	}
	c := o.Faulted.Report.Sched.Counters
	fail := func(format string, args ...any) {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
	if o.Faulted.Invariant != o.Baseline.Invariant {
		fail("answer diverged under faults: %s != %s (baseline)", o.Faulted.Invariant, o.Baseline.Invariant)
	}
	// The sent/delivered ledger is only meaningful without crashes: counters
	// are monotonic across a rollback, so a send the restore truncated (sent
	// once, re-sent and delivered once after the rollback) leaves the ledger
	// permanently off by one. Under crashes the delivery guarantee is carried
	// by quiescence and the answer check instead.
	if crashes == 0 {
		if lost := c.LostMessages(); lost != 0 {
			fail("%d messages lost", lost)
		}
	}
	if c.Retransmits < want.MinRetries {
		fail("retransmits = %d, want >= %d", c.Retransmits, want.MinRetries)
	}
	if c.LinkDrops < want.MinDrops {
		fail("link drops = %d, want >= %d", c.LinkDrops, want.MinDrops)
	}
	if c.DupSuppressed < want.MinDupSuppressed {
		fail("dup-suppressed = %d, want >= %d", c.DupSuppressed, want.MinDupSuppressed)
	}
	if c.NodePauses < want.MinPauses {
		fail("node pauses = %d, want >= %d", c.NodePauses, want.MinPauses)
	}
	if c.NodeRestarts < want.MinRestarts {
		fail("node restarts = %d, want >= %d", c.NodeRestarts, want.MinRestarts)
	}
	if c.CkptRounds < want.MinCkptRounds {
		fail("checkpoint rounds = %d, want >= %d", c.CkptRounds, want.MinCkptRounds)
	}
	// Every declared crash must have restarted by quiescence — a crash whose
	// outage outlives the workload would silently weaken the recovery claim.
	if c.NodeRestarts < uint64(crashes) {
		fail("node restarts = %d, want %d (one per declared crash)", c.NodeRestarts, crashes)
	}
}

// Load reads one scenario document from a JSON file; a file without a name
// is a plain run spec, not a scenario.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var sp Spec
	if err := workload.DecodeStrict(data, &sp); err != nil {
		return Spec{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	if sp.Name == "" {
		return Spec{}, fmt.Errorf("scenario %s: missing name", path)
	}
	return sp, sp.Validate()
}

// Report writes a human-readable outcome summary.
func (o Outcome) Report() string {
	c := o.Faulted.Report.Sched.Counters
	s := fmt.Sprintf("scenario %-24s %-9s  %s\n", o.Spec.Name, o.Spec.Workload, o.Faulted.Invariant)
	s += fmt.Sprintf("  baseline %-12v faulted %-12v (%.2fx)\n",
		o.Baseline.Elapsed, o.Faulted.Elapsed, slowdown(o.Baseline.Elapsed, o.Faulted.Elapsed))
	s += fmt.Sprintf("  drops=%d dups=%d pauses=%d retransmits=%d dup-suppressed=%d held=%d lost=%d\n",
		c.LinkDrops, c.LinkDups, c.NodePauses,
		c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder, c.LostMessages())
	if c.CkptRounds > 0 || c.NodeCrashes > 0 {
		s += fmt.Sprintf("  checkpoint: rounds=%d stable-bytes=%d crashes=%d restarts=%d replayed=%d\n",
			c.CkptRounds, c.CkptBytes, c.NodeCrashes, c.NodeRestarts, c.ReplayedMsgs)
	}
	if o.Spec.ProfileWindowNs != 0 {
		s += profileDigest(o.Faulted.Report)
	}
	if o.OK() {
		s += "  PASS\n"
	} else {
		for _, v := range o.Violations {
			s += fmt.Sprintf("  FAIL: %s\n", v)
		}
	}
	return s
}

// profileDigest condenses a report's profile into two "where did the time
// go" lines: the heaviest attribution paths, and the busiest time slice.
// A report prints it when the spec asks for a profile window.
func profileDigest(r *abcl.Report) string {
	p := r.Profile
	paths := append([]abcl.PathStat(nil), p.Paths...)
	sort.Slice(paths, func(i, j int) bool { return paths[i].Instr > paths[j].Instr })
	if len(paths) > 3 {
		paths = paths[:3]
	}
	s := fmt.Sprintf("  profile: dormant=%.0f%% of local deliveries; heaviest paths:", r.Sched.Counters.DormantFraction()*100)
	for _, ps := range paths {
		s += fmt.Sprintf(" %s %.0f%%", ps.Path, ps.InstrShare*100)
	}
	s += "\n"
	if len(p.Slices) > 0 {
		busy := 0
		for i, sl := range p.Slices {
			if sl.Instr > p.Slices[busy].Instr {
				busy = i
			}
		}
		sl := p.Slices[busy]
		s += fmt.Sprintf("  profile: %d slices of %v; busiest [%v,%v) instr=%d packets=%d\n",
			len(p.Slices), p.Window, sl.Start, sl.Start+p.Window, sl.Instr, sl.Packets)
	}
	return s
}

func slowdown(base, faulted sim.Time) float64 {
	if base <= 0 {
		return 0
	}
	return float64(faulted) / float64(base)
}
