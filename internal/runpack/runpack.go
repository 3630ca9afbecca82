// Package runpack implements verifiable run artifacts: an integrity-checked
// archive (`runpack_<id>.zip`) that captures everything needed to reproduce
// one simulated run — the full configuration (workload, seed, fleet, fault
// schedule, comms and recovery options), the complete runtime event trace
// and the grouped Report with its cost-attribution profile, each stored
// once under a SHA-256 sum — plus three operations over archives:
//
//   - Pack (Create): execute a configuration and emit the archive;
//   - Verify: re-execute the packed configuration and assert that the fresh
//     trace, Report JSON and workload answer are byte-identical,
//     reporting the first divergent trace event on failure;
//   - Diff: explain how two packs diverge — differing configuration fields,
//     the first differing trace event, and per-path/per-class cost deltas
//     from the reports' profiles.
//
// Archives double as CI regression tests: Regress re-verifies every pack
// under a directory (testdata/runpacks in this repository), so a determinism
// regression fails the build with a pinpointed first-divergent event instead
// of a vague flake. Packs are written deterministically (fixed zip metadata,
// content-derived id), so packing the same configuration twice produces
// byte-identical archives.
package runpack

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	abcl "repro"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Format identifies the archive layout; bump on incompatible changes.
// Layout 2 dropped layout 1's profile.jsonl, a re-rendering of the profile
// report.json holds. Layout 3 dropped the manifest's workload, trace_events
// and trace_sha256, which restated config.json and the trace's section sum,
// and the scenario document report.json repeated from config.json.
const Format = "abcl-runpack/3"

// Section names inside the archive.
const (
	SecManifest = "manifest.json"
	SecConfig   = "config.json"
	SecTrace    = "trace.jsonl"
	SecReport   = "report.json"
)

// SectionSum records one section's integrity digest.
type SectionSum struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Manifest is the archive's integrity record: the format tag, the
// content-derived pack id and a SHA-256 sum for every section. Open
// re-hashes each section against it.
type Manifest struct {
	Format   string                `json:"format"`
	ID       string                `json:"id"`
	Sections map[string]SectionSum `json:"sections"`
}

// Pack is one archive, opened or freshly built.
type Pack struct {
	Manifest Manifest
	// Config is config.json: the run spec of a plain pack, the whole
	// document — name and assertions included — of a scenario pack.
	Config scenario.Spec
	// TraceJSONL is the full runtime event stream (one JSON object per
	// line); ReportJSON the canonical report document (see ExecResult).
	TraceJSONL []byte
	ReportJSON []byte
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sections returns the archive payload (everything but the manifest).
func (p *Pack) sections() (map[string][]byte, error) {
	cfg, err := json.MarshalIndent(p.Config, "", "  ")
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		SecConfig: append(cfg, '\n'),
		SecTrace:  p.TraceJSONL,
		SecReport: p.ReportJSON,
	}, nil
}

// seal computes the manifest from the current sections. The pack id is
// derived from the section digests alone, so identical content ⇒ identical
// id, regardless of where or when the pack was written.
func (p *Pack) seal() error {
	secs, err := p.sections()
	if err != nil {
		return err
	}
	m := Manifest{Format: Format, Sections: make(map[string]SectionSum, len(secs))}
	names := make([]string, 0, len(secs))
	for name, b := range secs {
		m.Sections[name] = SectionSum{SHA256: sum(b), Bytes: int64(len(b))}
		names = append(names, name)
	}
	sort.Strings(names)
	id := sha256.New()
	for _, name := range names {
		fmt.Fprintf(id, "%s:%s\n", name, m.Sections[name].SHA256)
	}
	m.ID = hex.EncodeToString(id.Sum(nil))[:12]
	p.Manifest = m
	return nil
}

// DefaultName is the canonical file name of a sealed pack.
func (p *Pack) DefaultName() string { return "runpack_" + p.Manifest.ID + ".zip" }

// WriteFile seals the pack and writes the archive. A directory path (or a
// path ending in a separator) selects the canonical runpack_<id>.zip name
// inside it; the final path is returned. Output is deterministic: fixed zip
// metadata, sections in fixed order.
func (p *Pack) WriteFile(path string) (string, error) {
	if err := p.seal(); err != nil {
		return "", err
	}
	if st, err := os.Stat(path); (err == nil && st.IsDir()) || strings.HasSuffix(path, string(os.PathSeparator)) {
		path = filepath.Join(path, p.DefaultName())
	}
	secs, err := p.sections()
	if err != nil {
		return "", err
	}
	man, err := json.MarshalIndent(p.Manifest, "", "  ")
	if err != nil {
		return "", err
	}
	secs[SecManifest] = append(man, '\n')

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	order := []string{SecManifest, SecConfig, SecTrace, SecReport}
	for _, name := range order {
		b, ok := secs[name]
		if !ok {
			continue
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Deflate})
		if err != nil {
			return "", err
		}
		if _, err := w.Write(b); err != nil {
			return "", err
		}
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// maxSection bounds every archive entry Open reads and every section Build
// packs: 512 MiB, about 16 times the trace of an N11 n-queens run on 256
// nodes (33 MB), the largest that `figures -pack` writes.
const maxSection = 512 << 20

// Open reads an archive and checks its integrity: the format tag, every
// section's SHA-256 sum, and the content-derived id must all match the
// manifest, and the trace must restate the report (checkTrace). A pack
// that fails here is corrupt or hand-edited — distinct from a pack that
// fails Verify, which is intact but no longer reproducible.
func Open(path string) (*Pack, error) {
	zr, err := zip.OpenReader(path)
	if err != nil {
		return nil, fmt.Errorf("runpack %s: %w", path, err)
	}
	defer zr.Close()
	raw := make(map[string][]byte, len(zr.File))
	for _, f := range zr.File {
		b, err := readEntry(f)
		if err != nil {
			return nil, fmt.Errorf("runpack %s: %s: %w", path, f.Name, err)
		}
		raw[f.Name] = b
	}
	manBytes, ok := raw[SecManifest]
	if !ok {
		return nil, fmt.Errorf("runpack %s: no %s section", path, SecManifest)
	}
	p := &Pack{}
	// The decoder reads on past an unknown field, so another layout's pack
	// is named by its format tag before its fields are judged.
	err = workload.DecodeStrict(manBytes, &p.Manifest)
	if f := p.Manifest.Format; f != Format && (f != "" || err == nil) {
		return nil, fmt.Errorf("runpack %s: format %q, want %q", path, f, Format)
	}
	if err != nil {
		return nil, fmt.Errorf("runpack %s: %s: %w", path, SecManifest, err)
	}
	for name, want := range p.Manifest.Sections {
		b, ok := raw[name]
		if !ok {
			return nil, fmt.Errorf("runpack %s: integrity: section %s missing", path, name)
		}
		if got := sum(b); got != want.SHA256 {
			return nil, fmt.Errorf("runpack %s: integrity: section %s sha256 %s, manifest says %s", path, name, got[:12], want.SHA256[:12])
		}
	}
	for name := range raw {
		if name == SecManifest {
			continue
		}
		if _, ok := p.Manifest.Sections[name]; !ok {
			return nil, fmt.Errorf("runpack %s: integrity: unmanifested section %s", path, name)
		}
	}
	if err := workload.DecodeStrict(raw[SecConfig], &p.Config); err != nil {
		return nil, fmt.Errorf("runpack %s: %s: %w", path, SecConfig, err)
	}
	p.TraceJSONL = raw[SecTrace]
	p.ReportJSON = raw[SecReport]
	// Re-derive the id from the (now authenticated) sections; a mismatch
	// means the manifest itself was edited.
	want := p.Manifest.ID
	if err := p.seal(); err != nil {
		return nil, err
	}
	if p.Manifest.ID != want {
		return nil, fmt.Errorf("runpack %s: integrity: id %s, recomputed %s", path, want, p.Manifest.ID)
	}
	if err := checkTrace(p.TraceJSONL, p.ReportJSON); err != nil {
		return nil, fmt.Errorf("runpack %s: %w", path, err)
	}
	return p, nil
}

// readEntry reads one archive entry, refusing one that declares more than
// maxSection bytes before reading any of it. The zip reader fails an entry
// that holds more than it declares, and the read stops at maxSection
// regardless, so a deflate bomb costs at most maxSection bytes.
func readEntry(f *zip.File) ([]byte, error) {
	if f.UncompressedSize64 > maxSection {
		return nil, fmt.Errorf("declares %d bytes, past the %d-byte section limit", f.UncompressedSize64, maxSection)
	}
	rc, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(io.LimitReader(rc, maxSection))
}

// restated pairs each trace kind whose lines restate a counter with that
// counter: the runtime increments it where it emits the kind's event, so a
// pack's trace and its report hold two records of one fact. The send,
// buffer, ack and ack-coalesce kinds restate none.
var restated = [...]struct {
	kind    trace.Kind
	counter string // a stats.Counters field
}{
	{trace.EvSchedule, "SchedEnqueues"},
	{trace.EvDispatch, "SchedDequeues"},
	{trace.EvLinkDrop, "LinkDrops"},
	{trace.EvLinkDup, "LinkDups"},
	{trace.EvNodePause, "NodePauses"},
	{trace.EvRetry, "Retransmits"},
	{trace.EvDupMsg, "DupSuppressed"},
	{trace.EvHold, "HeldOutOfOrder"},
	{trace.EvBatch, "BatchesSent"},
	{trace.EvCkptSave, "CkptSaves"},
	{trace.EvCkptRound, "CkptRounds"},
	{trace.EvCrash, "NodeCrashes"},
	{trace.EvRestore, "NodeRestarts"},
}

// checkTrace holds a trace section to the JSONL schema and the line count
// of each restated kind to its counter in the report section. A scenario
// pack's trace holds the fault-free run's events and then the faulted
// run's, so its counts are held to the sum of the two runs' counters.
func checkTrace(traceJSONL, reportJSON []byte) error {
	lines, err := trace.CheckJSONL(bytes.NewReader(traceJSONL))
	if err != nil {
		return fmt.Errorf("%s: %w", SecTrace, err)
	}
	var doc reportDoc
	if err := json.Unmarshal(reportJSON, &doc); err != nil {
		return fmt.Errorf("%s: %w", SecReport, err)
	}
	var runs []*abcl.Report
	switch {
	case doc.System != nil:
		runs = []*abcl.Report{doc.System}
	case doc.Scenario != nil && doc.Scenario.Baseline.Report != nil && doc.Scenario.Faulted.Report != nil:
		runs = []*abcl.Report{doc.Scenario.Baseline.Report, doc.Scenario.Faulted.Report}
	default:
		return fmt.Errorf("%s: no report of the run", SecReport)
	}
	for _, r := range restated {
		var want uint64
		for _, rep := range runs {
			want += reflect.ValueOf(rep.Sched.Counters).FieldByName(r.counter).Uint()
		}
		if got := lines[r.kind]; got != want {
			return fmt.Errorf("%s has %d %s lines, %s counts %s = %d", SecTrace, got, r.kind, SecReport, r.counter, want)
		}
	}
	return nil
}

// Build assembles a sealed pack from a configuration and its execution,
// refusing one whose trace does not restate its report, or is too long for
// Open to read (the other sections are a few kilobytes).
func Build(cfg scenario.Spec, res *ExecResult) (*Pack, error) {
	if len(res.Trace) > maxSection {
		return nil, fmt.Errorf("runpack: %s is %d bytes, past the %d-byte section limit", SecTrace, len(res.Trace), maxSection)
	}
	if err := checkTrace(res.Trace, res.ReportJSON); err != nil {
		return nil, fmt.Errorf("runpack: %w", err)
	}
	p := &Pack{Config: cfg, TraceJSONL: res.Trace, ReportJSON: res.ReportJSON}
	return p, p.seal()
}

// Create executes the configuration and writes its archive; the final path
// and the sealed pack are returned.
func Create(cfg scenario.Spec, path string) (*Pack, string, error) {
	res, err := Execute(cfg)
	if err != nil {
		return nil, "", err
	}
	p, err := Build(cfg, res)
	if err != nil {
		return nil, "", err
	}
	out, err := p.WriteFile(path)
	return p, out, err
}
