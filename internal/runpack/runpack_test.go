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

// packCase is one packable configuration: the run spec plus, for a scenario
// pack, its embedded spec.
type packCase struct {
	cfg workload.Spec
	sc  *scenario.Spec
}

// testConfigs are the acceptance matrix: a fault-free workload, a lossy
// batched scenario, a crash-recovery scenario and a conservative-executor
// run.
func testConfigs(t *testing.T) map[string]packCase {
	t.Helper()
	lossy, err := scenario.Find("nqueens-lossy-batched")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := scenario.Find("nqueens-crash-recover")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]packCase{
		"nqueens-plain":  {cfg: workload.Spec{Workload: "nqueens", N: 6, Nodes: 8, Seed: 1}},
		"scenario-lossy": {workload.Spec{Workload: "scenario"}, &lossy},
		"scenario-crash": {workload.Spec{Workload: "scenario"}, &crash},
		"hotkey-cons":    {cfg: workload.Spec{Workload: "hotkey", Nodes: 8, Clients: 4, Ops: 10, Seed: 1, Executor: "conservative", Workers: 4}},
	}
}

// TestRoundTrip packs each acceptance configuration, reopens the archive,
// and verifies it: the re-execution must reproduce the packed trace, report
// and answer byte-for-byte. Packing the same configuration twice must also
// produce byte-identical archives (deterministic zip output).
func TestRoundTrip(t *testing.T) {
	for name, pc := range testConfigs(t) {
		cfg, sc := pc.cfg, pc.sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			p, path, err := Create(cfg, sc, dir)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.ParallelConfigured() {
				if !p.Manifest.ParallelChecked {
					t.Error("parallel run was not cross-checked")
				}
				if want := cfg.Executor; !strings.HasPrefix(p.Manifest.Executor, want) {
					t.Errorf("manifest executor %q, want %s(…)", p.Manifest.Executor, want)
				}
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
			_, path2, err := Create(cfg, sc, filepath.Join(dir, "again"))
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
	cfg := workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, nil, res)
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
// the decoded config and scenario structs: a change to the JSON shape of a
// run spec, a scenario or a fault schedule moves a section digest, and with
// it the id the pack is filed under.
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
	plain := packCase{cfg: workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}}
	cases := []struct {
		name     string
		pc       packCase
		section  string
		old, new string
		resum    bool
		want     string
	}{
		{"stale sum", plain, SecTrace, `"at":`, `"at":7`, false, "integrity"},
		{"misspelt config key", plain, SecConfig, `"seed"`, `"checkpoint_interval": 500000, "seed"`, true, `config.json: json: unknown field "checkpoint_interval"`},
		{"removed config key", plain, SecConfig, `"seed"`, `"parallel_sim": 4, "seed"`, true, `config.json: json: unknown field "parallel_sim"`},
		{"removed scenario key", packCase{workload.Spec{Workload: "scenario"}, &lossy}, SecScenario,
			`"name"`, `"optimistic_window_ns": 9, "name"`, true, `scenario.json: json: unknown field "optimistic_window_ns"`},
	}
	for _, tc := range cases {
		_, path, err := Create(tc.pc.cfg, tc.pc.sc, t.TempDir())
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

// TestDiff packs two configurations differing in one knob and asserts the
// diff reports the config delta and a first divergent trace event.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	a, _, err := Create(workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Create(workload.Spec{Workload: "nqueens", N: 6, Nodes: 4, Seed: 1}, nil, filepath.Join(dir, "b"))
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
	cfg := workload.Spec{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}
	if _, _, err := Create(cfg, nil, dir); err != nil {
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
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, nil, res)
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
		cfg  workload.Spec
		sc   *scenario.Spec
		want string
	}{
		{"unknown workload", workload.Spec{Workload: "quicksort"}, nil, "unknown workload"},
		{"scenario without spec", workload.Spec{Workload: "scenario"}, nil, "needs an embedded spec"},
		{"spec outside scenario", workload.Spec{Workload: "nqueens"}, &scenario.Spec{}, "must not embed"},
		{"parallel pingpong", workload.Spec{Workload: "pingpong", Executor: "conservative", Workers: 4}, nil, "sequentially"},
		{"parallel crash", workload.Spec{Workload: "nqueens", Executor: "conservative", Workers: 4, Crashes: []abcl.NodeCrash{{Node: 1, At: 5, RestartAfter: 5}}}, nil, "incompatible with checkpoints"},
		{"conservative ckpt", workload.Spec{Workload: "nqueens", Executor: "conservative", Workers: 4, CkptIntervalNs: 100}, nil, "incompatible with checkpoints"},
		{"unknown executor", workload.Spec{Workload: "nqueens", Executor: "timewarp", Workers: 4}, nil, "unknown executor"},
		{"removed executor", workload.Spec{Workload: "nqueens", Executor: "optimistic", Workers: 4}, nil, "unknown executor"},
		{"workers sequential", workload.Spec{Workload: "nqueens", Workers: 4}, nil, "requires a parallel executor"},
		{"bad policy", workload.Spec{Workload: "nqueens", Policy: "fifo"}, nil, "unknown policy"},
		{"bad placement", workload.Spec{Workload: "nqueens", Placement: "hash"}, nil, "unknown placement"},
		{"bad scenario-pack placement", workload.Spec{Workload: "scenario", Placement: "hash"}, &scenario.Spec{Name: "x", Workload: "forkjoin", Nodes: 2}, "unknown placement"},
	}
	for _, tc := range cases {
		err := validate(tc.cfg, tc.sc)
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}
