// Command abclsim runs an ABCL workload on the simulated multicomputer and
// reports virtual-time performance and runtime statistics.
//
//	abclsim -workload nqueens -n 11 -nodes 512
//	abclsim -workload nqueens -n 10 -nodes 64 -policy naive
//	abclsim -workload forkjoin -depth 12 -nodes 64
//
// Every system flag applies to every workload. A faulty interconnect, for
// one, switches the inter-node layer to its reliable ack/retry protocol:
//
//	abclsim -workload forkjoin -depth 10 -nodes 16 -drop 0.1 -dup 0.05
//
// The wire-path optimisations — per-link packet batching, delayed
// cumulative acks, the remote-location cache — are controlled by
// -batch-window, -batch-bytes, -ack-delay, -reliable and -no-loc-cache;
// each workload echoes the effective comms configuration:
//
//	abclsim -workload nqueens -n 10 -nodes 256 -batch-window 10000 -ack-delay 500000
//
// Periodic coordinated checkpoints and crash faults exercise the recovery
// subsystem: -checkpoint-interval snapshots the whole machine on a virtual
// cadence, and each (repeatable) -crash kills a node and restarts it from
// the latest checkpoint:
//
//	abclsim -workload nqueens -n 8 -nodes 8 -checkpoint-interval 500us -crash 3@1500us+400us
//
// A scenario document is a run spec plus a name and assertions; -scenario
// runs it fault-free and faulted and checks the assertions. The document
// states the run, so no run-spec flag may accompany it:
//
//	abclsim -scenario all
//	abclsim -scenario nqueens-lossy
//	abclsim -scenario path/to/scenario.json
//
// Any run, plain or scenario, can be captured as a verifiable artifact:
// -pack writes an integrity-checked runpack archive (config + full trace +
// profile + report); verify/diff/regress replay and compare archives, and
// validate checks a spec file, a scenario file or a pack without running it
// — or a -profile stream against the schema and its run's -metrics summary:
//
//	abclsim -workload hotkey -coverage full -pack out/
//	abclsim verify out/runpack_<id>.zip
//	abclsim diff a.zip b.zip
//	abclsim regress testdata/runpacks
//	abclsim validate path/to/spec.json
//	abclsim validate run.jsonl run.json
//
// tables and figures print the paper's evaluation and ablation tables 6–8
// as the markdown EXPERIMENTS.md embeds; figures -pack packs each sweep
// point and prints its runpack id; -big runs the paper's full sizes (minutes):
//
//	abclsim tables
//	abclsim tables -table 2
//	abclsim tables -table 6
//	abclsim figures -figure 5 -pack out/
//	abclsim figures -big
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/runpack"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cli is one parsed command line: the run spec the system flags bind into
// directly (or, instead, the scenario documents -scenario names), plus what
// only this front end knows — where output goes and which instrumentation
// to attach.
type cli struct {
	spec     workload.Spec
	scenario string
	traceN   int

	cpuprofile, memprofile string
	packOut                string
	profileOut, metricsOut string
	costTable              bool
}

// parseFlags binds the flag set into a cli. Flag defaults for sizes come
// from the spec's own defaults function, so the two cannot drift.
func parseFlags(args []string) (*cli, error) {
	c := &cli{}
	sp := &c.spec
	def := workload.Spec{}.WithDefaults()
	fs := flag.NewFlagSet("abclsim", flag.ContinueOnError)
	fs.StringVar(&sp.Workload, "workload", "nqueens", "workload: nqueens | forkjoin | diffusion | hotkey | orderbook")
	fs.StringVar(&c.scenario, "scenario", "", "run scenario documents instead of the flags' spec: all | <bundled name> | <path to .json>")
	fs.IntVar(&sp.N, "n", def.N, "N-queens board size")
	fs.IntVar(&sp.Depth, "depth", def.Depth, "fork-join tree depth")
	fs.IntVar(&sp.Grid, "grid", def.Grid, "diffusion grid edge length")
	fs.IntVar(&sp.GridIters, "grid-iters", def.GridIters, "diffusion iterations")
	block := fs.Bool("block", true, "diffusion: block placement (vs scatter)")
	fs.IntVar(&sp.Clients, "clients", def.Clients, "hotkey/orderbook: closed-loop client objects")
	fs.IntVar(&sp.Ops, "ops", def.Ops, "hotkey/orderbook: operations per client")
	fs.IntVar(&sp.WritePct, "write-pct", 20, "hotkey: percentage of operations that are writes")
	fs.StringVar(&sp.Coverage, "coverage", def.Coverage, "hotkey: annotation coverage none | partial | full")
	grouped := fs.Bool("grouped", true, "orderbook: declare compatibility groups on the book")
	fs.IntVar(&sp.Reorder, "reorder", 0, "hotkey/orderbook: bounded-reordering annotation (0 = strict)")
	fs.IntVar(&sp.Nodes, "nodes", def.Nodes, "number of processing nodes")
	fs.StringVar(&sp.Policy, "policy", "stack", "scheduling policy: stack | naive")
	fs.StringVar(&sp.Placement, "placement", "random", "placement: random | rr | local | load | depth")
	fs.Int64Var(&sp.Seed, "seed", 1, "random placement seed")
	fs.IntVar(&sp.Stock, "stock", 2, "chunk-stock depth (-1 disables)")
	fs.IntVar(&c.traceN, "trace", 0, "dump the last N runtime trace events")

	drop := fs.Float64("drop", 0, "link fault: per-packet drop probability [0,1)")
	dup := fs.Float64("dup", 0, "link fault: per-packet duplication probability [0,1]")
	jitter := fs.Int64("jitter", 0, "link fault: max extra latency per packet (ns)")
	var crashes crashList
	fs.Var((*timeFlag)(&sp.CkptIntervalNs), "checkpoint-interval",
		"coordinated checkpoint cadence, as ns or a Go duration (e.g. 200us); 0 disables periodic checkpoints")
	fs.Var(&crashes, "crash",
		"crash fault node@at+restartAfter (ns or Go durations, e.g. 2@1ms+300us); repeatable; implies checkpoint support")

	fs.Int64Var(&sp.BatchWindowNs, "batch-window", 0, "per-link packet batching window (ns); 0 disables batching")
	fs.IntVar(&sp.BatchBytes, "batch-bytes", 0, "batch early-flush byte budget (0 selects the default)")
	fs.Int64Var(&sp.AckDelayNs, "ack-delay", 0, "delayed cumulative ack interval (ns); 0 keeps immediate acks; implies -reliable")
	fs.BoolVar(&sp.Reliable, "reliable", false, "run the ack/retry protocol even on a fault-free network")
	fs.BoolVar(&sp.NoLocCache, "no-loc-cache", false, "disable the post-migration remote-location cache")

	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")

	fs.StringVar(&c.packOut, "pack", "", "execute the configured run and write a verifiable runpack archive to this file or directory")
	fs.StringVar(&c.profileOut, "profile", "", "stream runtime events as JSON Lines to this file (any workload)")
	fs.StringVar(&c.metricsOut, "metrics", "", "write an event-count metrics summary (JSON) to this file (any workload)")
	fs.BoolVar(&c.costTable, "cost-table", false, "enable the cost-attribution profiler and print the per-path cost table")
	fs.Var((*timeFlag)(&sp.ProfileWindowNs), "profile-window",
		"cost-profiler time-series slice width, as ns or a Go duration; implies -cost-table")

	if err := parse(fs, args); err != nil {
		return nil, err
	}
	if c.scenario != "" {
		// The scenario document states the run: a run-spec flag beside it
		// would be silently ignored, so it is an error instead.
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !instrumentFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return nil, fmt.Errorf("-scenario %s states the run itself; drop %s", c.scenario, strings.Join(stray, " "))
		}
	}
	sp.Scatter, sp.Ungrouped = !*block, !*grouped
	var plan abcl.FaultPlan
	if *drop != 0 || *dup != 0 || *jitter != 0 {
		plan = abcl.UniformFaults(*drop, *dup, abcl.Time(*jitter))
	}
	if plan.Crashes = crashes; plan.Enabled() {
		sp.Faults = &plan
	}
	if c.traceN < 0 {
		return nil, fmt.Errorf("-trace %d: event count must be a non-negative integer", c.traceN)
	}
	return c, nil
}

// instrumentFlags are the flags that attach output to a run without being
// part of its spec: the only ones -scenario admits beside itself.
var instrumentFlags = map[string]bool{
	"scenario": true, "pack": true, "trace": true, "profile": true, "metrics": true,
	"cost-table": true, "cpuprofile": true, "memprofile": true,
}

// parse parses args into fs. run reports a parse error itself, so the flag
// package prints nothing but the usage that -h asks for.
func parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.Usage()
	}
	return err
}

// timeFlag is a virtual-time flag value accepting either raw nanoseconds
// ("200000") or a Go duration ("200us").
type timeFlag int64

func (t *timeFlag) String() string { return fmt.Sprintf("%d", int64(*t)) }

func (t *timeFlag) Set(s string) error {
	v, err := parseVirtualTime(s)
	*t = timeFlag(v)
	return err
}

// crashList collects repeated -crash flags, each "node@at+restartAfter".
type crashList []abcl.NodeCrash

func (c *crashList) String() string {
	parts := make([]string, len(*c))
	for i, nc := range *c {
		parts[i] = fmt.Sprintf("%d@%d+%d", nc.Node, nc.At, nc.RestartAfter)
	}
	return strings.Join(parts, ",")
}

func (c *crashList) Set(s string) error {
	nodeStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("crash %q: want node@at+restartAfter", s)
	}
	atStr, durStr, ok := strings.Cut(rest, "+")
	if !ok {
		return fmt.Errorf("crash %q: want node@at+restartAfter", s)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad node: %v", s, err)
	}
	at, err := parseVirtualTime(atStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad crash time: %v", s, err)
	}
	dur, err := parseVirtualTime(durStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad restart-after: %v", s, err)
	}
	*c = append(*c, abcl.NodeCrash{Node: node, At: abcl.Time(at), RestartAfter: abcl.Time(dur)})
	return nil
}

// parseVirtualTime reads a virtual-time value as raw nanoseconds or a Go
// duration string.
func parseVirtualTime(s string) (int64, error) {
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ns, nil
	}
	d, err := time.ParseDuration(s)
	return d.Nanoseconds(), err
}

// instrumentation is what the flags attach to a run beyond its spec: the
// -profile/-metrics sinks, the -trace ring and the -cost-table profiler.
type instrumentation struct {
	opts        []abcl.Option
	profileSink *trace.JSONL
	profileFile *os.File
	metricsSink *trace.Metrics
	ring        *trace.Ring
}

// open resolves the instrumentation flags before the workload builds its
// System.
func (c *cli) open() (*instrumentation, error) {
	in := &instrumentation{}
	if c.profileOut != "" {
		f, err := os.Create(c.profileOut)
		if err != nil {
			return nil, err
		}
		in.profileFile, in.profileSink = f, trace.NewJSONL(f)
		in.opts = append(in.opts, abcl.WithObserver(in.profileSink))
	}
	if c.metricsOut != "" {
		in.metricsSink = trace.NewMetrics()
		in.opts = append(in.opts, abcl.WithObserver(in.metricsSink))
	}
	if c.traceN > 0 {
		in.ring = trace.NewRing(c.traceN)
		in.opts = append(in.opts, abcl.WithObserver(in.ring))
	}
	if c.costTable {
		in.opts = append(in.opts, abcl.WithProfiler(abcl.ProfileOptions{Window: abcl.Time(c.spec.ProfileWindowNs)}))
	}
	return in, nil
}

// close flushes the -profile stream and writes the -metrics summary after
// the workload finished.
func (c *cli) close(in *instrumentation) error {
	if in.profileSink != nil {
		err := in.profileSink.Err()
		if cerr := in.profileFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("profile stream %s: %w", c.profileOut, err)
		}
	}
	if in.metricsSink != nil {
		b, err := json.MarshalIndent(in.metricsSink.Summary(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.metricsOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "abclsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: args are the command line after the program
// name, stdout receives everything a successful run prints.
func run(args []string, stdout io.Writer) error {
	// A command line that does not open with a flag names a subcommand.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		do, err := subcommand(args[0], args[1:])
		if err != nil {
			return err
		}
		return do(stdout)
	}
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	if c.packOut != "" && (c.profileOut != "" || c.metricsOut != "") {
		return fmt.Errorf("-pack captures its own trace; drop -profile/-metrics")
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	in, err := c.open()
	if err != nil {
		return err
	}
	switch {
	case c.packOut != "":
		err = c.runPack(stdout)
	case c.scenario != "":
		err = c.runScenarios(stdout, in)
	default:
		err = c.runWorkload(stdout, in)
	}
	if err == nil && in.ring != nil {
		fmt.Fprintf(stdout, "  last %d trace events:\n", in.ring.Len())
		err = in.ring.Dump(stdout)
	}
	if cerr := c.close(in); err == nil {
		err = cerr
	}
	if c.memprofile != "" {
		if perr := writeMemProfile(c.memprofile); err == nil {
			err = perr
		}
	}
	return err
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// subcommand parses a positional command into the action run executes:
// verify replays one pack, diff explains two, regress re-verifies a
// directory of them, validate checks a file and runs nothing, tables and
// figures print the paper's evaluation. Parsing alone runs nothing, which is
// what TestDocumentedCommandsParse holds every documented line to.
func subcommand(cmd string, args []string) (func(io.Writer) error, error) {
	fs := flag.NewFlagSet("abclsim "+cmd, flag.ContinueOnError)
	switch cmd {
	case "verify":
		if len(args) != 1 {
			return nil, errors.New("usage: abclsim verify <pack.zip>")
		}
		return func(w io.Writer) error {
			p, err := runpack.Open(args[0])
			if err != nil {
				return err
			}
			v, err := runpack.Verify(p)
			if err != nil {
				return err
			}
			fmt.Fprint(w, v.Summary(p))
			if !v.OK {
				return fmt.Errorf("runpack %s failed verification", p.Manifest.ID)
			}
			return nil
		}, nil
	case "diff":
		if len(args) != 2 {
			return nil, errors.New("usage: abclsim diff <a.zip> <b.zip>")
		}
		return func(w io.Writer) error {
			a, err := runpack.Open(args[0])
			if err != nil {
				return err
			}
			b, err := runpack.Open(args[1])
			if err != nil {
				return err
			}
			fmt.Fprint(w, runpack.Diff(a, b).Summary(a, b))
			return nil
		}, nil
	case "regress":
		if len(args) > 1 {
			return nil, errors.New("usage: abclsim regress [dir]")
		}
		dir := "testdata/runpacks"
		if len(args) == 1 {
			dir = args[0]
		}
		return func(w io.Writer) error { return runpack.Regress(dir, w) }, nil
	case "validate":
		if len(args) != 1 && (len(args) != 2 || !strings.HasSuffix(args[0], ".jsonl")) {
			return nil, errors.New("usage: abclsim validate <spec.json | scenario.json | pack.zip | run.jsonl [run.json]>")
		}
		return func(w io.Writer) error { return validate(w, args) }, nil
	case "tables":
		table := fs.Int("table", 0, fmt.Sprintf("table to print, 1-%d; 0 prints all", exp.NumTables))
		if err := parse(fs, args); err != nil {
			return nil, err
		}
		if fs.NArg() > 0 || *table < 0 || *table > exp.NumTables {
			return nil, fmt.Errorf("usage: abclsim tables [-table 1-%d]", exp.NumTables)
		}
		return func(w io.Writer) error { return exp.WriteTable(w, *table) }, nil
	case "figures":
		figure := fs.Int("figure", 0, "figure to print, 5 or 6; 0 prints both")
		big := fs.Bool("big", false, "the paper's full sizes: N = 13 in Figure 5, N = 12 added to Figure 6 (minutes of CPU)")
		packDir := fs.String("pack", "", "write a runpack per sweep point into this directory and print its id in the row")
		if err := parse(fs, args); err != nil {
			return nil, err
		}
		if fs.NArg() > 0 || (*figure != 0 && *figure != 5 && *figure != 6) {
			return nil, errors.New("usage: abclsim figures [-figure 5|6] [-big] [-pack dir]")
		}
		return func(w io.Writer) error { return exp.WriteFigure(w, *figure, *big, *packDir) }, nil
	}
	return nil, fmt.Errorf("unknown subcommand %q", cmd)
}

// validate checks one file without running it: a run spec, a scenario
// document or a pack against the run-spec rules, or a -profile stream
// against its schema and, when a second file is given, against the
// -metrics summary of its run.
func validate(w io.Writer, args []string) error {
	path := args[0]
	if strings.HasSuffix(path, ".jsonl") {
		var sum *trace.MetricsSummary
		if len(args) == 2 {
			data, err := os.ReadFile(args[1])
			if err != nil {
				return err
			}
			sum = new(trace.MetricsSummary)
			if err := workload.DecodeStrict(data, sum); err != nil {
				return fmt.Errorf("%s: %w", args[1], err)
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		got, err := trace.CheckJSONL(f, sum)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: ok (%d events, %d kinds)\n", path, got.Total, len(got.ByKind))
		return nil
	}
	var doc scenario.Spec
	if strings.HasSuffix(path, ".zip") {
		p, err := runpack.Open(path)
		if err != nil {
			return err
		}
		doc = p.Config
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := workload.DecodeStrict(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: ok\n", path)
	return nil
}

// scenarios resolves -scenario: all bundled, one bundled by name, or a JSON
// file.
func (c *cli) scenarios() ([]scenario.Spec, error) {
	if c.scenario == "all" {
		return scenario.Bundled()
	}
	load := scenario.Find
	if strings.HasSuffix(c.scenario, ".json") {
		load = scenario.Load
	}
	sp, err := load(c.scenario)
	return []scenario.Spec{sp}, err
}

// runPack executes the configured run under the runpack executor and writes
// the archive. A scenario pack holds one document — "all" has no single
// trace to pin.
func (c *cli) runPack(stdout io.Writer) error {
	doc := scenario.Spec{Spec: c.spec}
	if c.scenario != "" {
		specs, err := c.scenarios()
		if err != nil {
			return err
		}
		if len(specs) != 1 {
			return fmt.Errorf("-pack needs one scenario (-scenario <name|file.json>), not %q", c.scenario)
		}
		doc = specs[0]
	}
	p, path, err := runpack.Create(doc, c.packOut)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "packed %s\n", path)
	fmt.Fprintf(stdout, "  id        %s\n", p.Manifest.ID)
	fmt.Fprintf(stdout, "  workload  %s\n", p.Config.Workload)
	fmt.Fprintf(stdout, "  trace     %d events, sha256 %s...\n",
		p.Manifest.TraceEvents, p.Manifest.TraceSHA256[:12])
	fmt.Fprintf(stdout, "  next      abclsim verify %s\n", path)
	return nil
}

// runWorkload runs the spec through the app table and prints the result:
// the app's own lines, then the effective comms configuration, the runtime
// counters and the cost table when the profiler was on.
func (c *cli) runWorkload(stdout io.Writer, in *instrumentation) error {
	sp := c.spec.WithDefaults()
	out, err := workload.Run(sp, in.opts...)
	if err != nil {
		return err
	}
	printers[sp.Workload](stdout, sp, out)
	fmt.Fprintf(stdout, "  %s\n", commsLine(out.Report))
	printStats(stdout, out.Report.Sched.Counters)
	printCostTable(stdout, out.Report.Profile)
	return nil
}

// printers holds each app's own result lines; everything that applies to
// every workload is printed by runWorkload.
var printers = map[string]func(w io.Writer, sp workload.Spec, out workload.Outcome){
	"nqueens": func(w io.Writer, sp workload.Spec, out workload.Outcome) {
		res := out.Result.(nqueens.Result)
		seq := nqueens.Sequential(sp.N, machine.DefaultConfig(1), 0)
		fmt.Fprintf(w, "N-queens N=%d on %d nodes (%s scheduling, %s placement)\n",
			sp.N, sp.Nodes, sp.Policy, sp.Placement)
		fmt.Fprintf(w, "  solutions        %d (expected %d)\n", res.Solutions, seq.Solutions)
		fmt.Fprintf(w, "  objects created  %d\n", res.Objects)
		fmt.Fprintf(w, "  messages         %d\n", res.Messages)
		fmt.Fprintf(w, "  elapsed          %v (sequential %v)\n", res.Elapsed, seq.Elapsed)
		fmt.Fprintf(w, "  speedup          %.1fx on %d nodes\n",
			float64(seq.Elapsed)/float64(res.Elapsed), sp.Nodes)
		fmt.Fprintf(w, "  utilization      %.1f%%\n", 100*res.Utilization)
		fmt.Fprintf(w, "  memory model     %.0f KB\n", float64(res.MemoryBytes)/1024)
	},
	"forkjoin": func(w io.Writer, sp workload.Spec, out workload.Outcome) {
		fmt.Fprintf(w, "fork-join depth=%d on %d nodes: %d leaves (expected %d)\n",
			sp.Depth, sp.Nodes, out.Result.(int64), int64(1)<<uint(sp.Depth))
	},
	"diffusion": func(w io.Writer, sp workload.Spec, out workload.Outcome) {
		res := out.Result.(diffusion.Result)
		fmt.Fprintf(w, "diffusion %dx%d, %d iterations on %d nodes (%s placement)\n",
			sp.Grid, sp.Grid, sp.GridIters, sp.Nodes, map[bool]string{false: "block", true: "scatter"}[sp.Scatter])
		fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
		fmt.Fprintf(w, "  utilization   %.1f%%\n", 100*res.Utilization)
		fmt.Fprintf(w, "  residual      %.6g (sequential: %.6g)\n",
			res.Residual, diffusion.SequentialResidual(sp.Grid, sp.Grid, sp.GridIters))
	},
	"hotkey": func(w io.Writer, sp workload.Spec, out workload.Outcome) {
		res := out.Result.(hotkey.Result)
		fmt.Fprintf(w, "hotkey: %d clients x %d ops on %d nodes (coverage %s, %d%% writes)\n",
			sp.Clients, sp.Ops, sp.Nodes, sp.Coverage, sp.WritePct)
		fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
		fmt.Fprintf(w, "  throughput    %.1f ops/ms\n", res.Throughput)
		fmt.Fprintf(w, "  peak overlap  %d concurrent invocations\n", res.MaxLive)
		fmt.Fprintf(w, "  final value   %d (= %d writes; %d reads)\n", res.Final, res.Writes, res.Reads)
	},
	"orderbook": func(w io.Writer, sp workload.Spec, out workload.Outcome) {
		res := out.Result.(orderbook.Result)
		fmt.Fprintf(w, "orderbook: %d clients x %d ops on %d nodes (grouped=%v)\n",
			sp.Clients, sp.Ops, sp.Nodes, !sp.Ungrouped)
		fmt.Fprintf(w, "  elapsed       %v\n", res.Elapsed)
		fmt.Fprintf(w, "  throughput    %.1f ops/ms\n", res.Throughput)
		fmt.Fprintf(w, "  peak overlap  %d concurrent invocations\n", res.MaxLive)
		fmt.Fprintf(w, "  ops           %d reads, %d deposits, %d transfers\n", res.Reads, res.Deposits, res.Transfers)
		fmt.Fprintf(w, "  conservation  total %d = initial + deposits %d\n", res.Total, res.WantTotal)
	},
}

// commsLine echoes the wire-path configuration the run actually had, read
// back from its report — how a flag that failed to reach a workload would
// show: batching, ack strategy, location cache.
func commsLine(rep *abcl.Report) string {
	s := "comms:"
	if rep.Wire.BatchWindow > 0 {
		s += fmt.Sprintf(" batch=%v/%dB", rep.Wire.BatchWindow, rep.Wire.BatchMaxBytes)
	} else {
		s += " unbatched"
	}
	switch {
	case rep.Reliable.AckDelay > 0:
		s += fmt.Sprintf(" reliable ackDelay=%v", rep.Reliable.AckDelay)
	case rep.Reliable.Enabled:
		s += " reliable"
	}
	if !rep.Wire.LocationCache {
		s += " locCache=off"
	}
	return s
}

// printCostTable emits the profiler's per-path cost table (Section 6 of the
// paper, measured live; the rows of Table 5) and its per-class lines when
// -cost-table or -profile-window is in effect.
func printCostTable(w io.Writer, p *abcl.ProfileReport) {
	if p == nil {
		return
	}
	fmt.Fprint(w, "  per-path cost attribution:\n\n")
	exp.WriteCostTable(w, p)
	for _, cs := range p.Classes {
		fmt.Fprintf(w, "  class %-20s dormant=%d active=%d restore=%d body-instr=%d\n",
			cs.Class, cs.Dormant, cs.Active, cs.Restore, cs.BodyInstr)
	}
}

// runScenarios executes each resolved spec: fault-free baseline, faulted
// run, assertions. A failed assertion fails the command.
func (c *cli) runScenarios(stdout io.Writer, in *instrumentation) error {
	specs, err := c.scenarios()
	if err != nil {
		return err
	}
	// Each scenario builds its own fault-free and faulted systems, so the
	// suite runs concurrently across GOMAXPROCS, reports printed in spec
	// order. With instrumentation attached the sinks are shared, so the suite
	// runs serially to keep the event stream deterministic.
	outs := make([]scenario.Outcome, len(specs))
	workers := runtime.GOMAXPROCS(0)
	if len(in.opts) > 0 {
		workers = 1
	}
	err = workload.ForEachIndexed(len(specs), workers, func(i int) (err error) {
		outs[i], err = scenario.Run(specs[i], in.opts...)
		return err
	})
	if err != nil {
		return err
	}
	failed := 0
	for _, o := range outs {
		fmt.Fprint(stdout, o.Report())
		if !o.OK() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(specs))
	}
	fmt.Fprintf(stdout, "%d scenarios passed\n", len(specs))
	return nil
}

func printStats(w io.Writer, c abcl.Counters) {
	fmt.Fprintln(w, "  runtime counters:")
	fmt.Fprintf(w, "    local msgs: dormant=%d active=%d restores=%d (dormant fraction %.0f%%)\n",
		c.LocalToDormant, c.LocalToActive, c.LocalRestores, 100*c.DormantFraction())
	fmt.Fprintf(w, "    remote msgs: %d   creations: local=%d remote=%d\n",
		c.RemoteSends, c.LocalCreations, c.RemoteCreations)
	fmt.Fprintf(w, "    chunk stock: hits=%d misses=%d   fault-buffered=%d\n",
		c.StockHits, c.StockMisses, c.FaultBuffered)
	fmt.Fprintf(w, "    scheduling queue: enq=%d deq=%d   preemptions=%d heap frames=%d\n",
		c.SchedEnqueues, c.SchedDequeues, c.Preemptions, c.HeapFrames)
	if c.RelSent > 0 || c.LinkDrops > 0 || c.NodePauses > 0 {
		fmt.Fprintf(w, "    faults: drops=%d dups=%d pauses=%d\n",
			c.LinkDrops, c.LinkDups, c.NodePauses)
		fmt.Fprintf(w, "    reliable: sent=%d delivered=%d retransmits=%d dup-suppressed=%d held=%d lost=%d\n",
			c.RelSent, c.RelDelivered, c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder, c.LostMessages())
	}
	if c.CkptRounds > 0 || c.NodeCrashes > 0 {
		fmt.Fprintf(w, "    checkpoint: rounds=%d stable-bytes=%d   crashes=%d restarts=%d replayed=%d\n",
			c.CkptRounds, c.CkptBytes, c.NodeCrashes, c.NodeRestarts, c.ReplayedMsgs)
	}
}
