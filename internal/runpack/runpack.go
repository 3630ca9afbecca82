// Package runpack implements verifiable run artifacts: an integrity-checked
// archive (`runpack_<id>.zip`) that captures everything needed to reproduce
// one simulated run — the full configuration (workload, seed, fleet, fault
// schedule, comms and recovery options), the complete runtime event trace
// with its SHA-256 digest, the cost-attribution profile series, and the
// grouped Report — plus three operations over archives:
//
//   - Pack (Create): execute a configuration and emit the archive;
//   - Verify: re-execute the packed configuration and assert that the fresh
//     trace digest, Report JSON and workload answer are byte-identical,
//     reporting the first divergent trace event on failure;
//   - Diff: explain how two packs diverge — differing configuration fields,
//     the first differing trace event, and per-path/per-class cost deltas
//     from the profile sections.
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
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// Format identifies the archive layout; bump on incompatible changes.
const Format = "abcl-runpack/1"

// Section names inside the archive.
const (
	SecManifest = "manifest.json"
	SecConfig   = "config.json"
	SecTrace    = "trace.jsonl"
	SecProfile  = "profile.jsonl"
	SecReport   = "report.json"
)

// SectionSum records one section's integrity digest.
type SectionSum struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Manifest is the archive's integrity record: the format tag, the
// content-derived pack id, the headline trace digest, and a SHA-256 sum for
// every section. Open re-hashes each section against it.
type Manifest struct {
	Format   string `json:"format"`
	ID       string `json:"id"`
	Workload string `json:"workload"`
	// TraceEvents and TraceSHA256 summarize the trace section: the digest
	// that Verify re-derives by re-executing the configuration.
	TraceEvents int                   `json:"trace_events"`
	TraceSHA256 string                `json:"trace_sha256"`
	Sections    map[string]SectionSum `json:"sections"`
}

// Pack is one archive, opened or freshly built.
type Pack struct {
	Manifest Manifest
	// Config is config.json: the run spec of a plain pack, the whole
	// document — name and assertions included — of a scenario pack.
	Config scenario.Spec
	// TraceJSONL is the full runtime event stream (one JSON object per
	// line); ReportJSON the canonical report document (see ExecResult);
	// ProfileJSONL the profile series derived from the report.
	TraceJSONL   []byte
	ReportJSON   []byte
	ProfileJSONL []byte
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
		SecConfig:  append(cfg, '\n'),
		SecTrace:   p.TraceJSONL,
		SecProfile: p.ProfileJSONL,
		SecReport:  p.ReportJSON,
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
	m := Manifest{
		Format:      Format,
		Workload:    p.Config.Workload,
		TraceEvents: bytes.Count(p.TraceJSONL, []byte{'\n'}),
		TraceSHA256: sum(p.TraceJSONL),
		Sections:    make(map[string]SectionSum, len(secs)),
	}
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
	order := []string{SecManifest, SecConfig, SecTrace, SecProfile, SecReport}
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

// Open reads an archive and checks its integrity: the format tag, every
// section's SHA-256 sum, and the content-derived id must all match the
// manifest. A pack that fails here is corrupt or hand-edited — distinct
// from a pack that fails Verify, which is intact but no longer reproducible.
func Open(path string) (*Pack, error) {
	zr, err := zip.OpenReader(path)
	if err != nil {
		return nil, fmt.Errorf("runpack %s: %w", path, err)
	}
	defer zr.Close()
	raw := make(map[string][]byte, len(zr.File))
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("runpack %s: %s: %w", path, f.Name, err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
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
	if err := json.Unmarshal(manBytes, &p.Manifest); err != nil {
		return nil, fmt.Errorf("runpack %s: %s: %w", path, SecManifest, err)
	}
	if p.Manifest.Format != Format {
		return nil, fmt.Errorf("runpack %s: format %q, want %q", path, p.Manifest.Format, Format)
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
	p.ProfileJSONL = raw[SecProfile]
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
	return p, nil
}

// Build assembles a sealed pack from a configuration and its execution.
func Build(cfg scenario.Spec, res *ExecResult) (*Pack, error) {
	p := &Pack{
		Config:       cfg,
		TraceJSONL:   res.Trace,
		ReportJSON:   res.ReportJSON,
		ProfileJSONL: res.ProfileJSONL(),
	}
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
