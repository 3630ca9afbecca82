// Package workload is the one place that turns a workload name plus
// declarative settings into a program running on a System: the
// JSON-serialisable Spec, its translation into abcl options, its defaults,
// and the name → app table. abclsim flags, runpack configs and scenario
// documents are adapters over it (DESIGN.md §13, "Run spec and app table").
package workload

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	abcl "repro"
)

// DecodeStrict is json.Unmarshal that also rejects keys v does not declare:
// a misspelt or retired key must not silently run a different configuration.
// Every decoder of a run spec — spec files, scenario documents, a runpack's
// config.json — goes through it.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the top-level value")
	}
	return nil
}

// Spec is the complete, replayable description of one run: together with
// the runtime's determinism guarantee (same seed ⇒ byte-identical traces) it
// pins every byte of the run's trace and report. It is a runpack's
// config.json verbatim, and the body of a scenario document. Field
// conventions follow the abclsim flags: zero
// values select the defaults (WithDefaults for sizes, NewSystem's for system
// settings), Stock -1 disables the chunk stock and any other negative
// depth is an error.
type Spec struct {
	Workload  string `json:"workload"`
	Nodes     int    `json:"nodes,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Policy    string `json:"policy,omitempty"`    // "" | "stack" | "naive"
	Placement string `json:"placement,omitempty"` // "" | "random" | "rr" | "local" | "load" | "depth"
	Stock     int    `json:"stock,omitempty"`     // chunk-stock depth; -1 disables

	// Workload parameters (each workload reads its own).
	N         int    `json:"n,omitempty"`          // nqueens board size
	Depth     int    `json:"depth,omitempty"`      // forkjoin tree depth
	Grid      int    `json:"grid,omitempty"`       // diffusion grid edge
	GridIters int    `json:"grid_iters,omitempty"` // diffusion iterations
	Scatter   bool   `json:"scatter,omitempty"`    // diffusion: scatter placement (default block)
	Clients   int    `json:"clients,omitempty"`    // hotkey/orderbook clients
	Ops       int    `json:"ops,omitempty"`        // hotkey/orderbook ops per client
	WritePct  int    `json:"write_pct,omitempty"`  // hotkey write percentage
	Coverage  string `json:"coverage,omitempty"`   // hotkey: none | partial | full
	Ungrouped bool   `json:"ungrouped,omitempty"`  // orderbook: drop the compatibility groups

	// Faults is the fault schedule: link drop / duplication / jitter rules
	// (first match wins; omitted src/dst match any node), node pause windows
	// and node crashes. Nil injects nothing; a pointer because encoding/json
	// omits no empty struct value, and a fault-free spec must not grow a key.
	Faults *abcl.FaultPlan `json:"faults,omitempty"`

	// Wire-path and recovery options.
	BatchWindowNs  int64 `json:"batch_window_ns,omitempty"`
	AckDelayNs     int64 `json:"ack_delay_ns,omitempty"`
	Reliable       bool  `json:"reliable,omitempty"`
	CkptIntervalNs int64 `json:"checkpoint_interval_ns,omitempty"`
	// ProfileWindowNs, when nonzero, slices the report's cost-attribution
	// profile into a time series of this width (a negative width is an
	// error).
	ProfileWindowNs int64 `json:"profile_window_ns,omitempty"`
}

// FaultPlan returns the spec's fault schedule, empty when it declares none.
func (sp Spec) FaultPlan() abcl.FaultPlan {
	if sp.Faults == nil {
		return abcl.FaultPlan{}
	}
	return *sp.Faults
}

// WithDefaults fills the fleet size and every workload parameter left zero.
// System settings keep their zero values: options leaves them to NewSystem.
func (sp Spec) WithDefaults() Spec {
	sp.Nodes = cmp.Or(sp.Nodes, 64)
	sp.N = cmp.Or(sp.N, 10)
	sp.Depth = cmp.Or(sp.Depth, 10)
	sp.Grid = cmp.Or(sp.Grid, 16)
	sp.GridIters = cmp.Or(sp.GridIters, 10)
	sp.Clients = cmp.Or(sp.Clients, 16)
	sp.Ops = cmp.Or(sp.Ops, 40)
	sp.Coverage = cmp.Or(sp.Coverage, "full")
	return sp
}

var policies = map[string]abcl.Policy{"stack": abcl.StackBased, "naive": abcl.Naive}

var placements = map[string]abcl.Placement{
	"random": abcl.PlaceRandom,
	"rr":     abcl.PlaceRoundRobin,
	"local":  abcl.PlaceLocal,
	"load":   abcl.PlaceLoadBased,
	"depth":  abcl.PlaceDepthLocal,
}

// lookup resolves a name in its table; the error lists the names the table
// knows. It is the one parser behind every workload, policy and placement
// name, whichever front end supplied it.
func lookup[T any](kind string, table map[string]T, name string) (T, error) {
	v, ok := table[name]
	if ok {
		return v, nil
	}
	return v, fmt.Errorf("workload: unknown %s %q (want %s)", kind, name, strings.Join(names(table), " | "))
}

// names returns a table's names, sorted.
func names[T any](table map[string]T) []string {
	out := make([]string, 0, len(table))
	for n := range table {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// options translates the spec's system settings into abcl options — the one
// such translation in the repository. Names it does not know are errors,
// all of them reported at once; out-of-range values and combinations flow
// through, for abcl.CheckOptions to judge as NewSystem would.
func (sp Spec) options() ([]abcl.Option, error) {
	var errs []error
	opts := []abcl.Option{abcl.WithNodes(sp.Nodes)}
	if sp.Policy != "" {
		if pol, err := lookup("policy", policies, sp.Policy); err != nil {
			errs = append(errs, err)
		} else {
			opts = append(opts, abcl.WithPolicy(pol))
		}
	}
	if sp.Placement != "" {
		if pl, err := lookup("placement", placements, sp.Placement); err != nil {
			errs = append(errs, err)
		} else {
			opts = append(opts, abcl.WithPlacement(pl))
		}
	}
	if sp.Seed != 0 {
		opts = append(opts, abcl.WithSeed(sp.Seed))
	}
	switch {
	case sp.Stock == -1:
		opts = append(opts, abcl.WithChunkStock(0))
	case sp.Stock != 0: // a depth below -1 is no depth: WithChunkStock refuses it
		opts = append(opts, abcl.WithChunkStock(sp.Stock))
	}
	if sp.Faults != nil {
		opts = append(opts, abcl.WithFaults(*sp.Faults))
	}
	if sp.BatchWindowNs != 0 {
		opts = append(opts, abcl.WithBatching(abcl.Time(sp.BatchWindowNs), 0))
	}
	if sp.Reliable {
		opts = append(opts, abcl.WithReliable())
	}
	if sp.AckDelayNs != 0 {
		opts = append(opts, abcl.WithDelayedAcks(abcl.Time(sp.AckDelayNs)))
	}
	if sp.CkptIntervalNs != 0 {
		opts = append(opts, abcl.WithCheckpoint(abcl.Time(sp.CkptIntervalNs)))
	}
	if sp.ProfileWindowNs != 0 {
		opts = append(opts, abcl.WithProfileWindow(abcl.Time(sp.ProfileWindowNs)))
	}
	return opts, errors.Join(errs...)
}

// resolve is the one judgement of a spec, which Validate and Run share: the
// defaults filled in, the workload and setting names looked up, the app's
// own parameter check and abcl.CheckOptions over the translated options —
// everything a run would reject for its configuration, found without
// building a machine. Every complaint is collected into one joined error.
func (sp Spec) resolve() (runner, []abcl.Option, error) {
	sp = sp.WithDefaults()
	opts, err := sp.options()
	errs := []error{err, abcl.CheckOptions(opts...)}
	var run runner
	a, err := lookup("workload", apps, sp.Workload)
	if err == nil {
		run, err = a(sp)
	}
	return run, opts, errors.Join(append(errs, err)...)
}

// Validate rejects, before anything is built, exactly the specs Run would
// reject for their configuration.
func (sp Spec) Validate() error {
	_, _, err := sp.resolve()
	return err
}

// Outcome is what one run of a spec produced.
type Outcome struct {
	// Answer is everything the program computed, in canonical form: equal
	// across re-executions of the same spec, the string a replay compares.
	Answer string
	// Invariant is the part of the answer no fault schedule may change: what
	// a scenario compares between its fault-free and its faulted run.
	Invariant string
	// Elapsed is the app-defined completion time in virtual ns.
	Elapsed abcl.Time
	// Report is the grouped report of the system the program ran on.
	Report *abcl.Report
	// Lines writes the app's own result lines, as abclsim prints them; they
	// are rendered only when called (the n-queens lines run the sequential
	// baseline). They repeat what Answer and Report hold, so a scenario
	// report leaves them out.
	Lines func(w io.Writer) `json:"-"`
}

// Run executes the spec: defaults, then the spec's options followed by extra
// (later options win), then the app. extra carries what the spec has no key
// for: observer sinks, and the abcl options of exp's ablation rows — a
// WithMachine there replaces the machine config the spec's options built.
func Run(sp Spec, extra ...abcl.Option) (Outcome, error) {
	run, opts, err := sp.resolve()
	if err != nil {
		return Outcome{}, err
	}
	return run(append(opts, extra...))
}

// ForEachIndexed runs fn(i) for i in [0, n) on up to workers goroutines and
// returns the first error by index. Each run of a sweep or a suite builds its
// own System, so runs share no state; results land in pre-indexed slots, which
// keeps output order (and therefore printed tables) identical to the
// sequential loop — which one worker (the minimum) is.
func ForEachIndexed(n, workers int, fn func(i int) error) error {
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
