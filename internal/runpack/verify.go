package runpack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Divergence pinpoints the first trace event where two executions part
// ways. Event numbers are 1-based; an empty side means that stream ended
// before the other.
type Divergence struct {
	Event int    `json:"event"`
	A     string `json:"a"`
	B     string `json:"b"`
}

// firstDivergence compares two JSONL streams line by line.
func firstDivergence(a, b []byte) *Divergence {
	if bytes.Equal(a, b) {
		return nil
	}
	al := splitLines(a)
	bl := splitLines(b)
	n := len(al)
	if len(bl) > n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		var av, bv string
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return &Divergence{Event: i + 1, A: av, B: bv}
		}
	}
	return nil
}

func splitLines(b []byte) []string {
	s := strings.TrimSuffix(string(b), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// VerifyResult reports one re-execution of a pack's configuration.
type VerifyResult struct {
	// OK is true when the fresh execution reproduced the pack exactly.
	OK bool
	// Mismatches lists every disagreement (answer, trace digest, report).
	Mismatches []string
	// TraceDivergence names the first trace event where the fresh run left
	// the packed trace (A = packed, B = fresh); nil when traces agree.
	TraceDivergence *Divergence
	// Fresh is the re-execution's evidence, for further inspection.
	Fresh *ExecResult
}

// Verify re-executes the pack's configuration and asserts the run is still
// byte-identical: same trace digest, same report document, same answer. It
// assumes the pack itself is intact (Open already checked the manifest
// sums); a failure here means the code base no longer reproduces the run.
func Verify(p *Pack) (*VerifyResult, error) {
	fresh, err := Execute(p.Config)
	if err != nil {
		return nil, fmt.Errorf("runpack verify: re-execution failed: %w", err)
	}
	v := &VerifyResult{OK: true, Fresh: fresh}
	fail := func(format string, args ...any) {
		v.OK = false
		v.Mismatches = append(v.Mismatches, fmt.Sprintf(format, args...))
	}
	if fresh.TraceSHA256 != p.Manifest.TraceSHA256 {
		fail("trace digest %s (%d events) != packed %s (%d events)",
			short(fresh.TraceSHA256), fresh.TraceEvents,
			short(p.Manifest.TraceSHA256), p.Manifest.TraceEvents)
		v.TraceDivergence = firstDivergence(p.TraceJSONL, fresh.Trace)
	}
	if !bytes.Equal(fresh.ReportJSON, p.ReportJSON) {
		fail("report document differs from packed report.json")
	}
	if packed := packedAnswer(p); packed != "" && packed != fresh.Answer {
		fail("answer %q != packed %q", fresh.Answer, packed)
	}
	return v, nil
}

// packedAnswer extracts the answer field from the packed report document.
func packedAnswer(p *Pack) string {
	var doc reportDoc
	if err := json.Unmarshal(p.ReportJSON, &doc); err != nil {
		return ""
	}
	return doc.Answer
}

// Summary renders a human-readable pass/fail report.
func (v *VerifyResult) Summary(p *Pack) string {
	var b strings.Builder
	if v.OK {
		fmt.Fprintf(&b, "PASS runpack %s: %s reproduced byte-identically (%d trace events, digest %s)\n",
			p.Manifest.ID, p.Config.Workload, p.Manifest.TraceEvents, short(p.Manifest.TraceSHA256))
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL runpack %s: %s no longer reproduces\n", p.Manifest.ID, p.Config.Workload)
	for _, m := range v.Mismatches {
		fmt.Fprintf(&b, "  %s\n", m)
	}
	if d := v.TraceDivergence; d != nil {
		fmt.Fprintf(&b, "  first divergent trace event (#%d):\n", d.Event)
		fmt.Fprintf(&b, "    packed: %s\n", orEnd(d.A))
		fmt.Fprintf(&b, "    fresh:  %s\n", orEnd(d.B))
	}
	return b.String()
}

func orEnd(s string) string {
	if s == "" {
		return "(stream ended)"
	}
	return s
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
