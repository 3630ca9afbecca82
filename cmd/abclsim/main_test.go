package main

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestFlagsMarshalToPackedConfig pins the flag → spec binding against a
// checked-in artifact: the flags that packed runpack_bd7e87b6d506 must still
// marshal to its config.json byte for byte (same keys, order and defaults),
// or re-packing would no longer reproduce the archive's id.
func TestFlagsMarshalToPackedConfig(t *testing.T) {
	zr, err := zip.OpenReader("../../testdata/runpacks/runpack_bd7e87b6d506.zip")
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	f, err := zr.Open("config.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseFlags(strings.Fields("-workload hotkey -nodes 16 -clients 8 -ops 20"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(c.spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("flags marshal to\n%s\nthe pack's config.json is\n%s", got, want)
	}
}

// TestRunEveryWorkload drives each workload at its smallest size through the
// whole command and checks the app's own header plus the lines every
// workload shares (a scenario prints its own report instead).
func TestRunEveryWorkload(t *testing.T) {
	for _, tc := range []struct {
		args   string
		header string
	}{
		{"-workload nqueens -n 4 -nodes 2", "N-queens N=4 on 2 nodes (stack scheduling, random placement)"},
		{"-workload forkjoin -depth 3 -nodes 2", "fork-join depth=3 on 2 nodes: 8 leaves (expected 8)"},
		{"-workload diffusion -grid 4 -grid-iters 2 -nodes 2", "diffusion 4x4, 2 iterations on 2 nodes (block placement)"},
		{"-workload hotkey -nodes 2 -clients 2 -ops 4", "hotkey: 2 clients x 4 ops on 2 nodes (coverage full, 20% writes)"},
		{"-workload orderbook -nodes 2 -clients 2 -ops 4", "orderbook: 2 clients x 4 ops on 2 nodes (grouped=true)"},
		{"-scenario forkjoin-dup-jitter", "scenario forkjoin-dup-jitter"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		if !strings.HasPrefix(out.String(), tc.header) {
			t.Errorf("%s: output does not open with %q:\n%s", tc.args, tc.header, out.String())
		}
		shared := !strings.HasPrefix(tc.args, "-scenario")
		for _, line := range []string{"  comms: unbatched\n", "  runtime counters:\n"} {
			if strings.Contains(out.String(), line) != shared {
				t.Errorf("%s: shared line %q present=%v, want %v", tc.args, line, !shared, shared)
			}
		}
	}
}

// TestSystemFlagsReachEveryWorkload pins the bugs the single dispatcher
// fixed: orderbook used to run fault-free under -drop, and hotkey used to
// ignore -cost-table, -policy, -batch-window and -trace.
func TestSystemFlagsReachEveryWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-workload orderbook -nodes 4 -clients 4 -ops 10 -drop 0.3"), &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`faults: drops=(\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no faults line:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Error("-drop 0.3 dropped nothing")
	}

	out.Reset()
	if err := run(strings.Fields("-workload hotkey -nodes 4 -clients 4 -ops 6 -cost-table -batch-window 10000 -trace 3"), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"per-path cost attribution", "comms: batch=10.000µs/", "last 3 trace events:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("hotkey output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCrashUnderRandomPlacement runs crashes through the command under the
// default random placement. In n-queens a create request replayed from the
// cut names a chunk the rolled-back timeline initialized; the order book
// checks a ledger of counts that a rollback must rewind with the balances.
// Each run must recover the fault-free answer after one restart.
func TestCrashUnderRandomPlacement(t *testing.T) {
	for _, tc := range []struct{ args, answer string }{
		{"-workload nqueens -n 8 -nodes 8 -checkpoint-interval 200us -crash 2@1ms+300us", `solutions\s+92 \(expected 92\)`},
		{"-workload orderbook -nodes 8 -checkpoint-interval 100us -crash 1@400us+100us", `ops\s+397 reads, 183 deposits, 60 transfers`},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		for _, want := range []string{tc.answer, `restarts=1 `} {
			if !regexp.MustCompile(want).MatchString(out.String()) {
				t.Errorf("%s: output lacks %q:\n%s", tc.args, want, out.String())
			}
		}
	}
}

// TestUnknownNamesAreErrors pins that a misspelt setting fails on every
// path instead of falling back to a default, and a size no run can finish
// (a negative fork-join depth never reaches a leaf) instead of hanging.
func TestUnknownNamesAreErrors(t *testing.T) {
	for args, want := range map[string]string{
		"-workload nqueens -n 4 -policy naiv":                            `unknown policy "naiv"`,
		"-workload hotkey -placement rand":                               `unknown placement "rand"`,
		"-workload forkjoin -executor conservative:2":                    "flag provided but not defined: -executor",
		"-scenario forkjoin-dup-jitter -policy naiv":                     "states the run itself; drop -policy",
		"-scenario all -nodes 4 -seed 9":                                 "drop -nodes -seed",
		"-scenario nqueens-lossy -drop 0.2 -cost-table":                  "drop -drop",
		"-scenario hotkey-lossy -workload hotkey -pack " + t.TempDir():   "drop -workload",
		"-workload scenario":                                             `unknown workload "scenario" (want diffusion | forkjoin | hotkey | nqueens | orderbook)`,
		"-scenario no-such-scenario":                                     `no bundled scenario named "no-such-scenario"`,
		"-workload nqueens -policy naiv -pack " + t.TempDir():            `unknown policy "naiv"`,
		"-workload quicksort":                                            `unknown workload "quicksort"`,
		"-executor sequential":                                           "flag provided but not defined: -executor",
		"-workload nqueens -n 4 -trace -3":                               "-trace -3: event count must be a non-negative integer",
		"-workload hotkey -nodes 4 -reorder -1":                          "reorder bound must be >= 0, got -1",
		"-workload forkjoin -nodes 4 -batch-bytes 64":                    "batch_bytes requires batch_window_ns",
		"-workload forkjoin -nodes 4 -profile-window -5us":               "window must be non-negative",
		"-workload forkjoin -nodes 4 -batch-window 1000 -batch-bytes -3": "byte budget must be non-negative",
		"-bench-json out.json":                                           "flag provided but not defined",
		"-workload forkjoin -depth -1 -nodes 4":                          "forkjoin depth must be >= 0",
		"-workload forkjoin -depth -1 -pack " + t.TempDir():              "forkjoin depth must be >= 0",
		"tables -table 9":                                                "usage: abclsim tables [-table 1-8]",
		"figures -csv":                                                   "flag provided but not defined: -csv",
		"figures -figure 7":                                              "usage: abclsim figures",
		"validate run.json run.jsonl":                                    "usage: abclsim validate",
		"profcheck run.jsonl":                                            `unknown subcommand "profcheck"`,
	} {
		err := run(strings.Fields(args), io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", args)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q lacks %q", args, err, want)
		}
	}
}

// TestDocumentedCommandsParse extracts every abclsim command line from the
// fenced blocks of README.md, DESIGN.md and EXPERIMENTS.md and from this
// package's doc comment, and requires the command to accept it: flags parse,
// the spec they bind validates, a named scenario exists, a subcommand is one
// run knows and its own flags and arguments parse. A flag or a spelling
// retired without its documentation fails here.
func TestDocumentedCommandsParse(t *testing.T) {
	var lines []string
	for _, name := range []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md"} {
		md, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(md), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			} else if fenced {
				lines = append(lines, line)
			}
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	lines = append(lines, strings.Split(doc, "\n")...)
	checked := 0
	for _, line := range lines {
		cmd, ok := strings.CutPrefix(strings.TrimPrefix(strings.TrimLeft(line, "/ \t"), "go run ./cmd/"), "abclsim ")
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "#")
		args := strings.Fields(cmd)
		checked++
		if !strings.HasPrefix(args[0], "-") {
			if _, err := subcommand(args[0], args[1:]); err != nil {
				t.Errorf("%q: %v", line, err)
			}
			continue
		}
		c, err := parseFlags(args)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if c.scenario == "" {
			err = c.spec.Validate()
		} else if !strings.HasSuffix(c.scenario, ".json") {
			_, err = c.scenarios()
		}
		if err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
	// The count the three documents and the doc comment hold today: fewer
	// means the extraction broke or a documented command was dropped.
	if checked < 44 {
		t.Errorf("found only %d documented abclsim commands, want at least 44", checked)
	}
}

// TestValidateSubcommand pins validate on each kind of file it takes: it
// prints ok for a plain spec, every bundled scenario and every checked-in
// pack, names the file and the key for a retired one, applies the scenario's
// rules only to a document that is one, and refuses what a run refuses, in
// the run's words.
func TestValidateSubcommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		write("spec.json", `{"workload":"hotkey","nodes":4}`):                                      "",
		write("executor.json", `{"workload":"hotkey","executor":"conservative"}`):                  `executor.json: json: unknown field "executor"`,
		write("flat.json", `{"workload":"nqueens","drop":0.1}`):                                    `flat.json: json: unknown field "drop"`,
		write("crashes.json", `{"workload":"nqueens","crashes":[]}`):                               `crashes.json: json: unknown field "crashes"`,
		write("lossless.json", `{"workload":"nqueens","nodes":2,"faults":{"links":[{"drop":1}]}}`): "lossless.json: fault: link rule 0: drop probability 1",
		write("anon.json", `{"workload":"nqueens","nodes":2,"assert":{"min_drops":1}}`):            "anon.json: scenario: missing name",
		write("batch.json", `{"workload":"forkjoin","nodes":4,"batch_window_ns":-5}`):              "WithBatching(-5ns, 0): window must be positive",
		write("prof.json", `{"workload":"forkjoin","nodes":4,"profile_window_ns":-5}`):             "WithProfiler: window must be non-negative",
		write("ack.json", `{"workload":"forkjoin","nodes":4,"ack_delay_ns":-7}`):                   "WithDelayedAcks(-7ns): delay must be positive",
		write("ckpt.json", `{"workload":"forkjoin","nodes":4,"checkpoint_interval_ns":-7}`):        "WithCheckpoint(-7ns): interval must be positive",
		write("grid.json", `{"workload":"diffusion","nodes":4,"grid":1}`):                          "diffusion: grid 1x1 invalid",
		write("iters.json", `{"workload":"diffusion","nodes":4,"grid_iters":-2}`):                  "diffusion: iterations must be >= 1",
		write("pct.json", `{"workload":"hotkey","nodes":4,"write_pct":150}`):                       "write percentage 150 out of range",
		write("clients.json", `{"workload":"hotkey","nodes":4,"clients":-1}`):                      "clients and ops must be >= 1",
		write("book.json", `{"workload":"orderbook","nodes":1}`):                                   "orderbook: need >= 2 nodes, got 1",
		write("workers.json", `{"workload":"forkjoin","nodes":4,"workers":2}`):                     `workers.json: json: unknown field "workers"`,
		write("pingpong.json", `{"workload":"pingpong","nodes":4,"batch_window_ns":-5}`):           `unknown workload "pingpong"`,
	}
	for _, glob := range []string{"../../internal/scenario/scenarios/*.json", "../../testdata/runpacks/*.zip"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %d files, %v", glob, len(paths), err)
		}
		for _, path := range paths {
			cases[path] = ""
		}
	}
	for path, want := range cases {
		var out bytes.Buffer
		err := run([]string{"validate", path}, &out)
		switch {
		case want == "" && (err != nil || out.String() != path+": ok\n"):
			t.Errorf("%s: err %v, output %q", path, err, out.String())
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: error %v lacks %q", path, err, want)
		}
	}
}

// TestProfileSinksValidate runs a workload with both event exporters
// attached and validates what they wrote: the -profile stream against its
// schema, and the -metrics summary against the stream, field for field.
func TestProfileSinksValidate(t *testing.T) {
	dir := t.TempDir()
	stream, summary := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.json")
	if err := run([]string{"-workload", "nqueens", "-n", "8", "-nodes", "8", "-profile", stream, "-metrics", summary}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"validate", stream}, {"validate", stream, summary}} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if want := stream + ": ok ("; !strings.HasPrefix(out.String(), want) {
			t.Errorf("%v printed %q, want it to open with %q", args, out.String(), want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks by running the command each names")

// goldenBlock is a generated block of EXPERIMENTS.md: the abclsim command
// that prints it, then its output, then the end marker.
var goldenBlock = regexp.MustCompile(`(?s)<!-- abclsim ([^>]*?) -->\n(.*?)<!-- end -->`)

// TestExperimentsAreGoldenOutput holds EXPERIMENTS.md to the program: each
// block between `<!-- abclsim <command> -->` and `<!-- end -->` is what that
// command prints. Tables 1–8 are re-rendered in full. Of the figures, whose
// N = 11 sweeps with their packs take half a minute, the N = 8 rows of
// Figure 5 and the N = 9 row of Figure 6 are rendered, pack ids included,
// and each line must appear in the block. With -update every block is
// rewritten by running its command in full:
//
//	go test ./cmd/abclsim -run Golden -update
func TestExperimentsAreGoldenOutput(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	subset := map[string]func(w io.Writer, packDir string) error{
		"figures -figure 5 -pack out/": func(w io.Writer, dir string) error { return exp.WriteFigure5(w, []int{8}, dir) },
		"figures -figure 6 -pack out/": func(w io.Writer, dir string) error { return exp.WriteFigure6(w, []int{9}, dir) },
	}
	var want []string
	for n := 1; n <= exp.NumTables; n++ {
		want = append(want, fmt.Sprintf("tables -table %d", n))
	}
	for cmd := range subset {
		want = append(want, cmd)
	}
	seen := map[string]bool{}
	var rewritten bytes.Buffer
	last := 0
	for _, m := range goldenBlock.FindAllSubmatchIndex(doc, -1) {
		cmd, body := string(doc[m[2]:m[3]]), string(doc[m[4]:m[5]])
		seen[cmd] = true
		args := strings.Fields(cmd)
		for i := range args {
			if i > 0 && args[i-1] == "-pack" {
				args[i] = t.TempDir()
			}
		}
		var got bytes.Buffer
		render := subset[cmd]
		switch {
		case *update || render == nil:
			err = run(args, &got)
		default:
			err = render(&got, t.TempDir())
		}
		if err != nil {
			t.Fatalf("abclsim %s: %v", cmd, err)
		}
		switch {
		case *update:
			rewritten.Write(doc[last:m[4]])
			fmt.Fprintf(&rewritten, "\n%s\n\n", bytes.TrimSpace(got.Bytes()))
			last = m[5]
		case render == nil:
			if g, b := strings.TrimSpace(got.String()), strings.TrimSpace(body); g != b {
				t.Errorf("EXPERIMENTS.md's block for `abclsim %s` is\n%s\nthe command prints\n%s", cmd, b, g)
			}
		default:
			for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
				if !strings.Contains("\n"+body, "\n"+line+"\n") {
					t.Errorf("EXPERIMENTS.md's block for `abclsim %s` lacks the line\n%s", cmd, line)
				}
			}
		}
	}
	for _, cmd := range want {
		if !seen[cmd] {
			t.Errorf("EXPERIMENTS.md has no block <!-- abclsim %s -->", cmd)
		}
	}
	if *update {
		rewritten.Write(doc[last:])
		if err := os.WriteFile(path, rewritten.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
