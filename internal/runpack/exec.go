package runpack

import (
	"bytes"
	"encoding/json"
	"fmt"

	abcl "repro"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExecResult is one reproducible execution of a run spec: the canonical
// workload answer, the full instrumented event trace, and the report
// document that lands in the archive byte-for-byte.
type ExecResult struct {
	// Answer is the canonical workload answer (solutions, residual, op
	// ledger, ...), comparable across re-executions.
	Answer    string
	ElapsedNs int64
	// System is the grouped report of the instrumented sequential run
	// (profile section included); nil for scenario packs.
	System *abcl.Report
	// Outcome is set for scenario packs: the full baseline-vs-faulted
	// outcome including assertion violations.
	Outcome *scenario.Outcome
	// Trace is the JSONL runtime event stream of the sequential run;
	// TraceSHA256/TraceEvents digest it.
	Trace       []byte
	TraceSHA256 string
	TraceEvents int
	// ParallelChecked records that the configuration also ran on the
	// configured parallel executor and produced an identical answer and
	// report; Executor names the strategy that was cross-checked.
	ParallelChecked bool
	Executor        string
	// ReportJSON is the canonical report document (answer + system or
	// scenario report), the bytes stored in the archive's report.json.
	ReportJSON []byte
}

// reportDoc is the schema of the archive's report.json section.
type reportDoc struct {
	Answer          string            `json:"answer"`
	ElapsedNs       int64             `json:"elapsed_ns"`
	ParallelChecked bool              `json:"parallel_checked,omitempty"`
	Executor        string            `json:"executor,omitempty"`
	System          *abcl.Report      `json:"system,omitempty"`
	Scenario        *scenario.Outcome `json:"scenario,omitempty"`
}

// Profile returns the cost-attribution report captured by the run (the
// faulted run's, for scenario packs), or nil.
func (r *ExecResult) Profile() *profile.Report {
	switch {
	case r.System != nil:
		return r.System.Profile
	case r.Outcome != nil:
		return r.Outcome.Faulted.Report.Profile
	}
	return nil
}

// ProfileJSONL renders the profile as a typed JSONL series (summary, path,
// class, group and slice rows) — the archive's profile.jsonl section, which
// Diff mines for per-path and per-class cost deltas.
func (r *ExecResult) ProfileJSONL() []byte {
	p := r.Profile()
	if p == nil {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(struct {
		Type            string   `json:"type"`
		WindowNs        sim.Time `json:"window_ns,omitempty"`
		TotalInstr      uint64   `json:"total_instr"`
		DormantFraction float64  `json:"dormant_fraction"`
	}{"summary", p.Window, p.TotalInstr, p.DormantFraction})
	for _, ps := range p.Paths {
		enc.Encode(struct {
			Type string `json:"type"`
			profile.PathStat
		}{"path", ps})
	}
	for _, cs := range p.Classes {
		enc.Encode(struct {
			Type string `json:"type"`
			profile.ClassStat
		}{"class", cs})
	}
	for _, gs := range p.Groups {
		enc.Encode(struct {
			Type string `json:"type"`
			profile.GroupStat
		}{"group", gs})
	}
	for _, sl := range p.Slices {
		enc.Encode(struct {
			Type string `json:"type"`
			profile.Slice
		}{"slice", sl})
	}
	return buf.Bytes()
}

// Execute runs the configuration deterministically and assembles the
// replay evidence. The run is always executed sequentially with a JSONL
// observer and the cost profiler attached (neither perturbs virtual-time
// results); when the conservative executor is configured the
// configuration additionally runs on it, and its answer and report must
// match the sequential run exactly — the byte-identical-to-sequential
// guarantee, certified at pack time and re-certified by every verify.
func Execute(cfg scenario.Spec) (*ExecResult, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	seq, err := runOnce(cfg, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("runpack: trace stream: %w", err)
	}
	res := seq
	res.Trace = buf.Bytes()
	res.TraceSHA256 = sum(res.Trace)
	res.TraceEvents = bytes.Count(res.Trace, []byte{'\n'})
	if cfg.ParallelConfigured() {
		spec := abcl.Conservative(cfg.Workers)
		par, err := runOnce(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("runpack: %s cross-run: %w", spec, err)
		}
		if par.Answer != res.Answer {
			return nil, fmt.Errorf("runpack: %s executor diverged from sequential: answer %q != %q", spec, par.Answer, res.Answer)
		}
		seqJSON, parJSON := stripProfile(res.System), stripProfile(par.System)
		if !bytes.Equal(seqJSON, parJSON) {
			return nil, fmt.Errorf("runpack: %s executor diverged from sequential: reports differ:\nsequential: %s\nparallel:   %s", spec, seqJSON, parJSON)
		}
		res.ParallelChecked = true
		res.Executor = spec.String()
	}
	res.ReportJSON, err = json.MarshalIndent(reportDoc{
		Answer:          res.Answer,
		ElapsedNs:       res.ElapsedNs,
		ParallelChecked: res.ParallelChecked,
		Executor:        res.Executor,
		System:          res.System,
		Scenario:        res.Outcome,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	res.ReportJSON = append(res.ReportJSON, '\n')
	return res, nil
}

// stripProfile marshals a report with the profiler section removed, for the
// parallel-vs-sequential comparison (the parallel run is never profiled).
func stripProfile(r *abcl.Report) []byte {
	if r == nil {
		return nil
	}
	c := *r
	c.Profile = nil
	b, _ := json.Marshal(c)
	return b
}

// runOnce executes the configuration once. With a sink it is the
// instrumented sequential run: the observer and the cost profiler attached,
// the configured executor left out. Without one it is the bare cross-run on
// the configured parallel executor, which admits neither.
func runOnce(cfg scenario.Spec, sink trace.Sink) (*ExecResult, error) {
	var extra []abcl.Option
	if sink != nil {
		cfg.Executor, cfg.Workers = "", 0
		extra = []abcl.Option{
			abcl.WithObserver(sink),
			abcl.WithProfiler(abcl.ProfileOptions{Window: sim.Time(cfg.ProfileWindowNs)}),
		}
	} else {
		cfg.ProfileWindowNs = 0
	}
	if !cfg.Plain() {
		out, err := scenario.Run(cfg, extra...)
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer:    fmt.Sprintf("%s violations=%d", out.Faulted.Invariant, len(out.Violations)),
			ElapsedNs: int64(out.Faulted.Elapsed),
			Outcome:   &out,
		}, nil
	}
	out, err := workload.Run(cfg.Spec, extra...)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Answer: out.Answer, ElapsedNs: int64(out.Elapsed), System: out.Report}, nil
}
