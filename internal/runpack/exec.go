package runpack

import (
	"bytes"
	"encoding/json"
	"fmt"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/apps/pingpong"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecResult is one reproducible execution of a RunConfig: the canonical
// workload answer, the full instrumented event trace, and the report
// document that lands in the archive byte-for-byte.
type ExecResult struct {
	// Answer is the canonical workload answer (solutions, residual, op
	// ledger, ...), comparable across re-executions.
	Answer    string
	ElapsedNs int64
	// System is the grouped report of the instrumented sequential run
	// (profile section included); nil for pingpong and scenario packs.
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
		return r.Outcome.Faulted.Profile
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

// executorSpec resolves the configured cross-check executor (only
// meaningful when ParallelConfigured()).
func (c RunConfig) executorSpec() abcl.ExecutorSpec {
	return abcl.Conservative(c.Workers)
}

// Execute runs the configuration deterministically and assembles the
// replay evidence. The run is always executed sequentially with a JSONL
// observer and the cost profiler attached (neither perturbs virtual-time
// results); when the conservative executor is configured the
// configuration additionally runs on it, and its answer and report must
// match the sequential run exactly — the byte-identical-to-sequential
// guarantee, certified at pack time and re-certified by every verify.
func Execute(cfg RunConfig) (*ExecResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	seq, err := runOnce(cfg, sink, false)
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
		spec := cfg.executorSpec()
		par, err := runOnce(cfg, nil, true)
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

// runOnce executes the workload once. A nil sink runs bare; parallel
// selects the configured parallel executor (and implies no sink and no
// profiler, which the engine would reject as incompatible).
func runOnce(cfg RunConfig, sink trace.Sink, parallel bool) (*ExecResult, error) {
	var prof *abcl.ProfileOptions
	if !parallel {
		prof = &abcl.ProfileOptions{Window: sim.Time(cfg.ProfileWindowNs), Classes: true}
	}
	var extra []abcl.Option
	if sink != nil {
		extra = append(extra, abcl.WithObserver(sink))
	}
	if cfg.NoLocCache {
		extra = append(extra, abcl.WithoutLocationCache())
	}
	if parallel {
		extra = append(extra, abcl.WithExecutor(cfg.executorSpec()))
	}
	plan := cfg.faultPlan()
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 64
	}
	reliable := cfg.Reliable || cfg.AckDelayNs > 0

	switch cfg.Workload {
	case "nqueens":
		n := cfg.N
		if n == 0 {
			n = 10
		}
		res, err := nqueens.Run(nqueens.Options{
			N: n, Nodes: nodes, Policy: cfg.policy(), Placement: cfg.placement(),
			Seed: cfg.Seed, StockDepth: cfg.Stock, Faults: plan,
			BatchWindow: sim.Time(cfg.BatchWindowNs), BatchMaxBytes: cfg.BatchBytes,
			Reliable: reliable, AckDelay: sim.Time(cfg.AckDelayNs),
			CheckpointInterval: sim.Time(cfg.CkptIntervalNs),
			Profile:            prof, Extra: extra,
		})
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer: fmt.Sprintf("solutions=%d objects=%d messages=%d",
				res.Solutions, res.Objects, res.Messages),
			ElapsedNs: int64(res.Elapsed),
			System:    &res.Report,
		}, nil

	case "forkjoin":
		depth := cfg.Depth
		if depth == 0 {
			depth = 10
		}
		opts := []abcl.Option{abcl.WithNodes(nodes), abcl.WithPolicy(cfg.policy())}
		if p := cfg.placement(); p != nil {
			opts = append(opts, abcl.WithPlacement(p))
		}
		if cfg.Seed != 0 {
			opts = append(opts, abcl.WithSeed(cfg.Seed))
		}
		switch {
		case cfg.Stock < 0:
			opts = append(opts, abcl.WithoutChunkStock())
		case cfg.Stock > 0:
			opts = append(opts, abcl.WithChunkStock(cfg.Stock))
		}
		if plan.Enabled() {
			opts = append(opts, abcl.WithFaults(plan))
		}
		if cfg.BatchWindowNs > 0 {
			opts = append(opts, abcl.WithBatching(sim.Time(cfg.BatchWindowNs), cfg.BatchBytes))
		}
		if reliable {
			opts = append(opts, abcl.WithReliable())
		}
		if cfg.AckDelayNs > 0 {
			opts = append(opts, abcl.WithDelayedAcks(sim.Time(cfg.AckDelayNs)))
		}
		if cfg.CkptIntervalNs > 0 {
			opts = append(opts, abcl.WithCheckpoint(sim.Time(cfg.CkptIntervalNs)))
		}
		if prof != nil {
			opts = append(opts, abcl.WithProfiler(*prof))
		}
		opts = append(opts, extra...)
		sys, err := abcl.NewSystem(opts...)
		if err != nil {
			return nil, err
		}
		leaves, err := misc.RunForkJoinOn(sys, depth)
		if err != nil {
			return nil, err
		}
		rep := sys.Report()
		return &ExecResult{
			Answer:    fmt.Sprintf("leaves=%d", leaves),
			ElapsedNs: int64(rep.Sched.Elapsed),
			System:    &rep,
		}, nil

	case "diffusion":
		grid, iters := cfg.Grid, cfg.GridIters
		if grid == 0 {
			grid = 16
		}
		if iters == 0 {
			iters = 10
		}
		res, err := diffusion.Run(diffusion.Options{
			W: grid, H: grid, Iters: iters, Nodes: nodes,
			Policy: cfg.policy(), BlockPlace: !cfg.Scatter,
			Seed: cfg.Seed, Faults: plan,
			BatchWindow: sim.Time(cfg.BatchWindowNs), AckDelay: sim.Time(cfg.AckDelayNs),
			Reliable:           reliable,
			CheckpointInterval: sim.Time(cfg.CkptIntervalNs),
			Profile:            prof, Extra: extra,
		})
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer:    fmt.Sprintf("residual=%.9g", res.Residual),
			ElapsedNs: int64(res.Elapsed),
			System:    &res.Report,
		}, nil

	case "hotkey":
		clients, ops := cfg.Clients, cfg.Ops
		if clients == 0 {
			clients = 16
		}
		if ops == 0 {
			ops = 40
		}
		cov := hotkey.CoverFull
		if cfg.Coverage != "" {
			var err error
			if cov, err = hotkey.ParseCoverage(cfg.Coverage); err != nil {
				return nil, err
			}
		}
		res, err := hotkey.Run(hotkey.Options{
			Nodes: nodes, Clients: clients, Ops: ops,
			WritePct: cfg.WritePct, Coverage: cov, Reorder: cfg.Reorder,
			Seed: cfg.Seed, Faults: plan,
			BatchWindow: sim.Time(cfg.BatchWindowNs), AckDelay: sim.Time(cfg.AckDelayNs),
			Reliable:           reliable,
			CheckpointInterval: sim.Time(cfg.CkptIntervalNs),
			Profile:            prof, Extra: extra,
		})
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer: fmt.Sprintf("ops=%d reads=%d writes=%d final=%d",
				res.Ops, res.Reads, res.Writes, res.Final),
			ElapsedNs: int64(res.Elapsed),
			System:    &res.Report,
		}, nil

	case "orderbook":
		clients, ops := cfg.Clients, cfg.Ops
		if clients == 0 {
			clients = 16
		}
		if ops == 0 {
			ops = 40
		}
		res, err := orderbook.Run(orderbook.Options{
			Nodes: nodes, Clients: clients, Ops: ops,
			Grouped: !cfg.Ungrouped, Reorder: cfg.Reorder, Seed: cfg.Seed,
			Profile: prof, Extra: extra,
		})
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer: fmt.Sprintf("ops=%d reads=%d deposits=%d transfers=%d total=%d",
				res.Ops, res.Reads, res.Deposits, res.Transfers, res.Total),
			ElapsedNs: int64(res.Elapsed),
			System:    &res.Report,
		}, nil

	case "pingpong":
		iters := cfg.Iters
		if iters == 0 {
			iters = 1000
		}
		now := iters / 10
		if now == 0 {
			now = 1
		}
		type bench struct {
			name string
			run  func(int, ...abcl.Option) (pingpong.Result, error)
			n    int
		}
		benches := []bench{
			{"past-local", pingpong.PastLocal, iters},
			{"past-active", pingpong.PastLocalActive, iters},
			{"create-local", pingpong.CreateLocal, iters},
			{"past-remote", pingpong.PastRemote, iters},
			{"now-remote", pingpong.NowRemote, now},
		}
		ans := ""
		var total sim.Time
		for _, b := range benches {
			r, err := b.run(b.n, extra...)
			if err != nil {
				return nil, err
			}
			if ans != "" {
				ans += " "
			}
			ans += fmt.Sprintf("%s=%d", b.name, int64(r.PerOp))
			total += r.Total
		}
		return &ExecResult{Answer: ans, ElapsedNs: int64(total)}, nil

	case "scenario":
		out, err := scenario.RunWith(*cfg.Scenario, scenario.RunOpts{
			Observer: sink,
			Profile:  prof,
		})
		if err != nil {
			return nil, err
		}
		return &ExecResult{
			Answer:    fmt.Sprintf("%s violations=%d", out.Faulted.Answer, len(out.Violations)),
			ElapsedNs: int64(out.Faulted.Elapsed),
			Outcome:   &out,
		}, nil
	}
	return nil, fmt.Errorf("runpack: unknown workload %q", cfg.Workload)
}

// faultPlan translates the config's fault schedule into a FaultPlan.
func (c RunConfig) faultPlan() abcl.FaultPlan {
	var p abcl.FaultPlan
	if c.Drop != 0 || c.Dup != 0 || c.JitterNs != 0 {
		p = abcl.UniformFaults(c.Drop, c.Dup, sim.Time(c.JitterNs))
	}
	for _, cr := range c.Crashes {
		p = p.WithCrash(cr.Node, sim.Time(cr.AtNs), sim.Time(cr.RestartAfterNs))
	}
	return p
}

func (c RunConfig) policy() abcl.Policy {
	if c.Policy == "naive" {
		return abcl.Naive
	}
	return abcl.StackBased
}

func (c RunConfig) placement() abcl.Placement {
	switch c.Placement {
	case "random":
		return abcl.PlaceRandom
	case "rr":
		return abcl.PlaceRoundRobin
	case "local":
		return abcl.PlaceLocal
	case "load":
		return abcl.PlaceLoadBased
	case "depth":
		return abcl.PlaceDepthLocal
	}
	return nil
}
