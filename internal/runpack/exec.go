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
	// ReportJSON is the canonical report document (answer + system or
	// scenario report), the bytes stored in the archive's report.json.
	ReportJSON []byte
}

// reportDoc is the schema of the archive's report.json section.
type reportDoc struct {
	Answer    string            `json:"answer"`
	ElapsedNs int64             `json:"elapsed_ns"`
	System    *abcl.Report      `json:"system,omitempty"`
	Scenario  *scenario.Outcome `json:"scenario,omitempty"`
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
// replay evidence. The run is executed with a JSONL observer and the cost
// profiler attached (neither perturbs virtual-time results).
func Execute(cfg scenario.Spec) (*ExecResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	res, err := runOnce(cfg, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("runpack: trace stream: %w", err)
	}
	res.Trace = buf.Bytes()
	res.TraceSHA256 = sum(res.Trace)
	res.TraceEvents = bytes.Count(res.Trace, []byte{'\n'})
	res.ReportJSON, err = json.MarshalIndent(reportDoc{
		Answer:    res.Answer,
		ElapsedNs: res.ElapsedNs,
		System:    res.System,
		Scenario:  res.Outcome,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	res.ReportJSON = append(res.ReportJSON, '\n')
	return res, nil
}

// runOnce executes the configuration once, with the observer sink and the
// cost profiler attached.
func runOnce(cfg scenario.Spec, sink trace.Sink) (*ExecResult, error) {
	extra := []abcl.Option{
		abcl.WithObserver(sink),
		abcl.WithProfiler(abcl.ProfileOptions{Window: sim.Time(cfg.ProfileWindowNs)}),
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
