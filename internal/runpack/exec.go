package runpack

import (
	"bytes"
	"encoding/json"
	"fmt"

	abcl "repro"
	"repro/internal/profile"
	"repro/internal/scenario"
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
	// Trace is the JSONL runtime event stream of the sequential run.
	Trace []byte
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

// profile returns the cost-attribution report the document holds (the
// faulted run's, for scenario packs), or nil.
func (d *reportDoc) profile() *profile.Report {
	switch {
	case d.System != nil:
		return d.System.Profile
	case d.Scenario != nil && d.Scenario.Faulted.Report != nil:
		return d.Scenario.Faulted.Report.Profile
	}
	return nil
}

// Execute runs the configuration deterministically and assembles the
// replay evidence. The run is executed with a JSONL observer attached (it
// does not perturb virtual-time results).
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

// runOnce executes the configuration once, with the observer sink attached.
func runOnce(cfg scenario.Spec, sink trace.Sink) (*ExecResult, error) {
	obs := abcl.WithObserver(sink)
	if !cfg.Plain() {
		out, err := scenario.Run(cfg, obs)
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer:    fmt.Sprintf("%s violations=%d", out.Faulted.Invariant, len(out.Violations)),
			ElapsedNs: int64(out.Faulted.Elapsed),
			Outcome:   &out,
		}, nil
	}
	out, err := workload.Run(cfg.Spec, obs)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Answer: out.Answer, ElapsedNs: int64(out.Elapsed), System: out.Report}, nil
}
