package runpack

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// plain wraps a run spec as the document of a plain pack.
func plain(sp workload.Spec) scenario.Spec { return scenario.Spec{Spec: sp} }

// testConfigs are the acceptance matrix: two fault-free workloads, a lossy
// batched scenario and a crash-recovery scenario.
func testConfigs(t *testing.T) map[string]scenario.Spec {
	t.Helper()
	lossy, err := scenario.Find("nqueens-lossy-batched")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := scenario.Find("nqueens-crash-recover")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]scenario.Spec{
		"nqueens-plain":  plain(workload.Spec{Workload: "nqueens", N: 6, Nodes: 8, Seed: 1}),
		"scenario-lossy": lossy,
		"scenario-crash": crash,
		"hotkey-plain":   plain(workload.Spec{Workload: "hotkey", Nodes: 8, Clients: 4, Ops: 10, Seed: 1}),
	}
}

// TestRoundTrip packs each acceptance configuration, reopens the archive,
// and verifies it: the re-execution must reproduce the packed trace, report
// and answer byte-for-byte. Packing the same configuration twice must also
// produce byte-identical archives (deterministic zip output).
func TestRoundTrip(t *testing.T) {
	for name, cfg := range testConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			p, path, err := Create(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if reopened.Manifest.ID != p.Manifest.ID {
				t.Fatalf("reopened id %s != packed %s", reopened.Manifest.ID, p.Manifest.ID)
			}
			v, err := Verify(reopened)
			if err != nil {
				t.Fatal(err)
			}
			if !v.OK {
				t.Fatalf("verify failed: %v", v.Mismatches)
			}
			// Determinism: a second pack of the same config is byte-identical.
			_, path2, err := Create(cfg, filepath.Join(dir, "again"))
			if err != nil {
				t.Fatal(err)
			}
			b1, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(path2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Error("packing the same configuration twice produced different archives")
			}
		})
	}
}

// TestVerifyNamesFirstDivergentEvent perturbs a packed trace (resealing the
// manifest, so the archive itself stays intact) and asserts Verify fails
// naming exactly the perturbed event.
func TestVerifyNamesFirstDivergentEvent(t *testing.T) {
	cfg := plain(workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1})
	res, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(p.TraceJSONL), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace too short to perturb: %d lines", len(lines))
	}
	lines[2] = strings.Replace(lines[2], `"at":`, `"at":9`, 1) // event #3
	p.TraceJSONL = []byte(strings.Join(lines, ""))

	path, err := p.WriteFile(filepath.Join(t.TempDir(), "perturbed.zip"))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("a resealed perturbed pack must still open: %v", err)
	}
	v, err := Verify(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("perturbed pack passed verification")
	}
	if v.TraceDivergence == nil {
		t.Fatal("no trace divergence reported")
	}
	if v.TraceDivergence.Event != 3 {
		t.Errorf("first divergent event = %d, want 3", v.TraceDivergence.Event)
	}
	sum := v.Summary(reopened)
	if !strings.Contains(sum, "first divergent trace event (#3)") {
		t.Errorf("summary does not name the divergent event:\n%s", sum)
	}
}

// readSections returns the raw bytes of every section of an archive.
func readSections(t *testing.T, path string) map[string][]byte {
	t.Helper()
	zr, err := zip.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	secs := map[string][]byte{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		secs[f.Name] = buf.Bytes()
	}
	return secs
}

// TestCheckedInPacksReseal opens every pack under testdata/runpacks and
// compares the manifest on disk with the one Open re-derived by marshalling
// the decoded config: a change to the JSON shape of a run spec, a scenario
// document or a fault schedule moves a section digest, and with it the id the
// pack is filed under.
func TestCheckedInPacksReseal(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/runpacks/*.zip")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in packs found (err %v)", err)
	}
	for _, path := range paths {
		p, err := Open(path)
		if err != nil {
			t.Error(err)
			continue
		}
		var onDisk Manifest
		if err := json.Unmarshal(readSections(t, path)[SecManifest], &onDisk); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Manifest, onDisk) {
			t.Errorf("%s: re-sealed manifest differs from the archive's:\n got %+v\nwant %+v", path, p.Manifest, onDisk)
		}
		if filepath.Base(path) != p.DefaultName() {
			t.Errorf("%s re-seals to %s", path, p.DefaultName())
		}
	}
}

// TestOpenRejectsTampering rewrites one section's bytes: Open must refuse
// the archive (an integrity failure, not a verify failure). With the
// manifest's section sum left stale that is a checksum mismatch; with the sum
// brought up to date — a hand-edited or older-format pack — a key the
// configuration does not declare is refused by name, rather than dropped and
// the pack verified as a different configuration.
func TestOpenRejectsTampering(t *testing.T) {
	lossy, err := scenario.Find("nqueens-lossy-batched")
	if err != nil {
		t.Fatal(err)
	}
	run := plain(workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1})
	cases := []struct {
		name     string
		cfg      scenario.Spec
		section  string
		old, new string
		resum    bool
		want     string
	}{
		{"stale sum", run, SecTrace, `"at":`, `"at":7`, false, "integrity"},
		{"misspelt config key", run, SecConfig, `"seed"`, `"checkpoint_interval": 500000, "seed"`, true, `config.json: json: unknown field "checkpoint_interval"`},
		{"removed config key", run, SecConfig, `"seed"`, `"parallel_sim": 4, "seed"`, true, `config.json: json: unknown field "parallel_sim"`},
		{"removed executor key", run, SecConfig, `"seed"`, `"executor": "conservative", "seed"`, true, `config.json: json: unknown field "executor"`},
		{"removed workers key", run, SecConfig, `"seed"`, `"workers": 4, "seed"`, true, `config.json: json: unknown field "workers"`},
		{"retired flat fault key", run, SecConfig, `"seed"`, `"drop": 0.1, "seed"`, true, `config.json: json: unknown field "drop"`},
		{"retired flat crash key", run, SecConfig, `"seed"`, `"crashes": [], "seed"`, true, `config.json: json: unknown field "crashes"`},
		{"removed scenario key", lossy, SecConfig, `"name"`, `"optimistic_window_ns": 9, "name"`, true, `config.json: json: unknown field "optimistic_window_ns"`},
	}
	for _, tc := range cases {
		_, path, err := Create(tc.cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		secs := readSections(t, path)
		edited := bytes.Replace(secs[tc.section], []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(edited, secs[tc.section]) {
			t.Fatalf("%s: %s does not contain %s", tc.name, tc.section, tc.old)
		}
		secs[tc.section] = edited
		if tc.resum {
			var man Manifest
			if err := json.Unmarshal(secs[SecManifest], &man); err != nil {
				t.Fatal(err)
			}
			man.Sections[tc.section] = SectionSum{SHA256: sum(edited), Bytes: int64(len(edited))}
			if secs[SecManifest], err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		zw := zip.NewWriter(&out)
		for name, b := range secs {
			w, err := zw.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		tampered := filepath.Join(t.TempDir(), "tampered.zip")
		if err := os.WriteFile(tampered, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(tampered); err == nil {
			t.Errorf("%s: Open accepted the archive", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tampered) {
			t.Errorf("%s: error %q does not name %q and the file", tc.name, err, tc.want)
		}
	}
}

// FuzzRunpackOpen feeds Open arbitrary archive bytes, seeded with each
// checked-in pack whole, cut in half and with one byte flipped. Open must
// never panic, and what it accepts must be intact: a pack whose id is one
// of the checked-in ones (zip metadata outside the sections is not sealed,
// so a flip there may still open).
func FuzzRunpackOpen(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/runpacks/*.zip")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no checked-in packs found (err %v)", err)
	}
	ids := make(map[string]bool)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		ids[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "runpack_"), ".zip")] = true
		flipped := bytes.Clone(b)
		flipped[len(b)/3] ^= 0xff
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.zip")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := Open(path); err == nil && !ids[p.Manifest.ID] {
			t.Errorf("Open accepted a pack with the unknown id %s", p.Manifest.ID)
		}
	})
}

// TestDiff packs two configurations differing in one knob and asserts the
// diff reports the config delta and a first divergent trace event.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	a, _, err := Create(plain(workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}), dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Create(plain(workload.Spec{Workload: "nqueens", N: 6, Nodes: 4, Seed: 1}), filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(a, b)
	if d.Identical {
		t.Fatal("different configs reported identical")
	}
	found := false
	for _, c := range d.ConfigDeltas {
		if strings.HasPrefix(c, "n: ") {
			found = true
		}
	}
	if !found {
		t.Errorf("config deltas missed the board size: %v", d.ConfigDeltas)
	}
	if d.TraceDivergence == nil {
		t.Error("no trace divergence between different runs")
	}
	if d.AnswerA == d.AnswerB {
		t.Error("answers should differ between N=5 and N=6")
	}
	if len(d.PathDeltas) == 0 {
		t.Error("no per-path cost deltas between different runs")
	}
	same := Diff(a, a)
	if !same.Identical {
		t.Error("a pack diffed against itself is not identical")
	}
}

// TestRegress exercises the directory gate: all-good passes, one perturbed
// pack fails the run and is named in the error.
func TestRegress(t *testing.T) {
	dir := t.TempDir()
	cfg := plain(workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1})
	if _, _, err := Create(cfg, dir); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := Regress(dir, &out); err != nil {
		t.Fatalf("all-good regress failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1/1 packs reproduced") {
		t.Errorf("regress summary missing:\n%s", out.String())
	}

	// Add a perturbed-but-resealed pack: it opens fine but fails Verify.
	res, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	p.TraceJSONL = bytes.Replace(p.TraceJSONL, []byte(`"at":`), []byte(`"at":5`), 1)
	if _, err := p.WriteFile(filepath.Join(dir, "zz_bad.zip")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = Regress(dir, &out)
	if err == nil {
		t.Fatalf("regress passed with a perturbed pack:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "zz_bad.zip") {
		t.Errorf("regress error does not name the failing pack: %v", err)
	}
}

// TestValidateRejections pins the configuration validator's error cases.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  scenario.Spec
		want string
	}{
		{"unknown workload", plain(workload.Spec{Workload: "quicksort"}), "unknown workload"},
		{"retired pseudo-workload", plain(workload.Spec{Workload: "scenario"}), `unknown workload "scenario" (want diffusion | forkjoin | hotkey | nqueens | orderbook)`},
		{"assertions without a name", scenario.Spec{Spec: workload.Spec{Workload: "nqueens", Nodes: 2}, Assert: &scenario.Assert{}}, "missing name"},
		{"bad policy", plain(workload.Spec{Workload: "nqueens", Policy: "fifo"}), "unknown policy"},
		{"bad placement", plain(workload.Spec{Workload: "nqueens", Placement: "hash"}), "unknown placement"},
		{"bad scenario-pack placement", scenario.Spec{Name: "x", Spec: workload.Spec{Workload: "forkjoin", Nodes: 2, Placement: "hash"}}, "unknown placement"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioPackConfigIsTheDocument pins what the (cfg, sc) pair got wrong:
// a scenario pack's config.json states the fleet, seed and workload that
// actually ran — the ones its report shows — and there is no second config
// section beside it.
func TestScenarioPackConfigIsTheDocument(t *testing.T) {
	_, path, err := Create(testConfigs(t)["scenario-crash"], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	secs := readSections(t, path)
	if _, ok := secs["scenario.json"]; ok || len(secs) != 5 {
		t.Errorf("%d sections (scenario.json present: %v), want manifest, config, trace, profile, report", len(secs), ok)
	}
	var cfg struct {
		Name, Workload string
		Nodes          int
		Seed           int64
	}
	if err := json.Unmarshal(secs[SecConfig], &cfg); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenario struct {
			Faulted struct {
				Report abcl.Report
			}
		}
	}
	if err := json.Unmarshal(secs[SecReport], &rep); err != nil {
		t.Fatal(err)
	}
	ran := rep.Scenario.Faulted.Report.Sched
	if cfg.Name != "nqueens-crash-recover" || cfg.Workload != "nqueens" || cfg.Nodes != 8 || cfg.Seed != 7 || ran.Nodes != cfg.Nodes {
		t.Errorf("config.json says %+v; the report ran on %d nodes", cfg, ran.Nodes)
	}
}
