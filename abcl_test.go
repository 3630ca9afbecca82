package abcl_test

import (
	"strings"
	"testing"

	abcl "repro"
	"repro/internal/machine"
	"repro/internal/trace"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := abcl.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes() != 1 {
		t.Errorf("default nodes = %d, want 1", sys.Nodes())
	}
	if got := sys.Report().Sched.Elapsed; got != 0 {
		t.Errorf("fresh system elapsed = %v, want 0", got)
	}
}

func TestNewSystemInvalidMachine(t *testing.T) {
	bad := machine.DefaultConfig(4)
	bad.ClockMHz = -1
	if _, err := abcl.NewSystem(abcl.WithNodes(4), abcl.WithMachine(bad)); err == nil {
		t.Fatal("invalid machine config must be rejected")
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	bad := machine.DefaultConfig(4)
	bad.CPI = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSystem must panic on bad config")
		}
	}()
	abcl.MustNewSystem(abcl.WithNodes(4), abcl.WithMachine(bad))
}

func TestEndToEndFacade(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(2), abcl.WithSeed(7))
	echo := sys.Pattern("echo", 1)
	kick := sys.Pattern("kick", 0)

	var target abcl.Address
	var got string
	svc := sys.Class("svc", 0, nil)
	svc.Method(echo, func(ctx *abcl.Ctx) { ctx.Reply(ctx.Arg(0)) })
	drv := sys.Class("drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		ctx.SendNow(target, echo, []abcl.Value{abcl.Str("hi")}, func(ctx *abcl.Ctx, v abcl.Value) {
			got = v.Str()
		})
	})

	target = sys.NewObjectOn(1, svc)
	d := sys.NewObjectOn(0, drv)
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hi" {
		t.Fatalf("echo = %q, want hi", got)
	}
	rep := sys.Report()
	if rep.Sched.Elapsed == 0 {
		t.Error("elapsed must advance")
	}
	if rep.Wire.Packets == 0 {
		t.Error("cross-node run must produce packets")
	}
	if rep.Sched.TotalInstructions == 0 {
		t.Error("instructions must be accounted")
	}
	if sys.InstrTime(25) != 2300 {
		t.Errorf("InstrTime(25) = %v, want 2.3µs", sys.InstrTime(25))
	}
}

func TestChunkStockOptions(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(2), abcl.WithoutChunkStock())
	if sys.Net.StockDepth() != 0 {
		t.Errorf("WithoutChunkStock: depth = %d, want 0", sys.Net.StockDepth())
	}
	sys2 := abcl.MustNewSystem(abcl.WithNodes(2))
	if sys2.Net.StockDepth() != abcl.DefaultStockDepth {
		t.Errorf("default stock depth = %d, want %d", sys2.Net.StockDepth(), abcl.DefaultStockDepth)
	}
	sys3 := abcl.MustNewSystem(abcl.WithNodes(2), abcl.WithChunkStock(5))
	if sys3.Net.StockDepth() != 5 {
		t.Errorf("explicit stock depth = %d, want 5", sys3.Net.StockDepth())
	}
	if _, err := abcl.NewSystem(abcl.WithChunkStock(0)); err == nil {
		t.Error("WithChunkStock(0) must be rejected (use WithoutChunkStock)")
	}
}

// NewSystem validates everything up front and reports all complaints in
// one joined error.
func TestOptionValidationAggregated(t *testing.T) {
	_, err := abcl.NewSystem(
		abcl.WithNodes(0),                       // bad argument
		abcl.WithSeed(0),                        // bad argument
		abcl.WithBatching(abcl.Microsecond, -3), // bad argument
		abcl.WithDelayedAcks(0),                 // bad argument
	)
	if err == nil {
		t.Fatal("misconfigured NewSystem must fail")
	}
	for _, frag := range []string{
		"WithNodes(0)", "WithSeed(0)", "WithBatching", "WithDelayedAcks",
	} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("aggregated error misses %q:\n%v", frag, err)
		}
	}
}

// Incompatible combinations are construction-time errors, not latent
// misbehaviour.
func TestOptionCombinationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []abcl.Option
	}{
		{"crash beyond the fleet", []abcl.Option{abcl.WithNodes(2), abcl.WithFaults(abcl.FaultPlan{Crashes: []abcl.NodeCrash{{Node: 5, At: 1000, RestartAfter: 100}}})}},
	}
	for _, tc := range cases {
		if _, err := abcl.NewSystem(tc.opts...); err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
	// Delayed acks alone bring the reliable protocol they are a mode of.
	sys, err := abcl.NewSystem(abcl.WithNodes(2), abcl.WithDelayedAcks(abcl.Time(50)))
	if err != nil {
		t.Fatalf("delayed acks must construct: %v", err)
	}
	if rel := sys.Report().Reliable; !rel.Enabled || rel.AckDelay != 50 {
		t.Errorf("delayed acks alone: reliable report %+v, want enabled with a 50ns delay", rel)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  abcl.Option
	}{
		{"WithNodes(0)", abcl.WithNodes(0)},
		{"WithNodes(-3)", abcl.WithNodes(-3)},
		{"WithNodes(70000)", abcl.WithNodes(70000)}, // past the engine's 65 535
		{"WithSeed(0)", abcl.WithSeed(0)},
		{"WithObserver(nil)", abcl.WithObserver(nil)},
		{"WithPlacement(nil)", abcl.WithPlacement(nil)},
		{"WithMaxStackDepth(0)", abcl.WithMaxStackDepth(0)},
		{"WithChunkStock(-1)", abcl.WithChunkStock(-1)},
		{"WithPolicy(99)", abcl.WithPolicy(abcl.Policy(99))},
		{"WithBatching(1µs, -3)", abcl.WithBatching(abcl.Microsecond, -3)},
		{"WithProfiler(window -5ns)", abcl.WithProfiler(abcl.ProfileOptions{Window: -5})},
		{"nil option", nil},
	}
	for _, tc := range cases {
		if _, err := abcl.NewSystem(tc.opt); err == nil || abcl.CheckOptions(tc.opt) == nil {
			t.Errorf("%s: want an error from NewSystem and CheckOptions, got %v", tc.name, err)
		}
	}
	// Invalid fault plans are rejected at construction.
	if _, err := abcl.NewSystem(abcl.WithNodes(2), abcl.WithFaults(abcl.UniformFaults(1.0, 0, 0))); err == nil {
		t.Error("drop probability 1.0 must be rejected")
	}
	if _, err := abcl.NewSystem(abcl.WithNodes(2), abcl.WithFaults(abcl.UniformFaults(-0.1, 0, 0))); err == nil {
		t.Error("negative drop probability must be rejected")
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := abcl.MustNewSystem().Seed(); got != abcl.DefaultSeed {
		t.Errorf("default seed = %d, want %d", got, abcl.DefaultSeed)
	}
	if got := abcl.MustNewSystem(abcl.WithSeed(1234)).Seed(); got != 1234 {
		t.Errorf("seed = %d, want 1234", got)
	}
}

func TestWithFaultsEnablesReliability(t *testing.T) {
	sys := abcl.MustNewSystem(abcl.WithNodes(2), abcl.WithFaults(abcl.UniformFaults(0.1, 0, 0)))
	if !sys.Report().Reliable.Enabled {
		t.Error("WithFaults must enable the reliable protocol")
	}
	if sys.M.Faults() == nil {
		t.Error("WithFaults must install the injector on the machine")
	}
	plain := abcl.MustNewSystem(abcl.WithNodes(2))
	if plain.Report().Reliable.Enabled || plain.M.Faults() != nil {
		t.Error("fault-free system must not pay for reliability")
	}
}

func TestPolicyConstants(t *testing.T) {
	if abcl.StackBased.String() != "stack" || abcl.Naive.String() != "naive" {
		t.Error("policy constants mis-exported")
	}
}

func TestPlacementExports(t *testing.T) {
	for _, p := range []abcl.Placement{
		abcl.PlaceRoundRobin, abcl.PlaceRandom, abcl.PlaceLocal,
		abcl.PlaceLoadBased, abcl.PlaceDepthLocal,
	} {
		if p.Name() == "" {
			t.Error("placement must have a name")
		}
	}
}

func TestValueConstructors(t *testing.T) {
	if abcl.Int(3).Int() != 3 {
		t.Error("Int")
	}
	if !abcl.Bool(true).Bool() {
		t.Error("Bool")
	}
	if abcl.Float(1.5).Float() != 1.5 {
		t.Error("Float")
	}
	if abcl.Str("x").Str() != "x" {
		t.Error("Str")
	}
	if abcl.Any([]int{1}).Any().([]int)[0] != 1 {
		t.Error("Any")
	}
}

func TestCustomMachineConfig(t *testing.T) {
	cfg := machine.DefaultConfig(8)
	cfg.ClockMHz = 50 // a faster processor: everything halves
	sys := abcl.MustNewSystem(abcl.WithNodes(8), abcl.WithMachine(cfg))
	if got := sys.InstrTime(25); got != 1150 {
		t.Errorf("InstrTime at 50MHz = %v, want 1.15µs", got)
	}
}

func TestTracing(t *testing.T) {
	ring := trace.NewRing(256)
	sys := abcl.MustNewSystem(abcl.WithNodes(1), abcl.WithObserver(ring))
	ping := sys.Pattern("ping", 1)
	cls := sys.Class("cls", 0, nil)
	cls.Method(ping, func(ctx *abcl.Ctx) {
		if n := ctx.Arg(0).Int(); n > 0 {
			ctx.SendPast(ctx.Self(), ping, abcl.Int(n-1))
		}
	})
	o := sys.NewObjectOn(0, cls)
	sys.Send(o, ping, abcl.Int(10))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	var sends, scheds, dispatches int
	for _, e := range ring.Events() {
		switch e.Kind.String() {
		case "send":
			sends++
		case "schedule":
			scheds++
		case "dispatch":
			dispatches++
		}
	}
	if sends == 0 || scheds == 0 || dispatches == 0 {
		t.Errorf("trace kinds missing: sends=%d scheds=%d dispatches=%d",
			sends, scheds, dispatches)
	}
}
