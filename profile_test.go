package abcl_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestProfilerEquivalence asserts the profile window's only-observe
// contract: slicing the profile into a time series changes no virtual-time
// result — solutions, elapsed time, packet counts, every runtime counter,
// every path and class row and the JSONL trace bytes match the unsliced run
// bit for bit.
func TestProfilerEquivalence(t *testing.T) {
	run := func(opts ...abcl.Option) (nqueens.Result, []byte) {
		var buf bytes.Buffer
		res, err := nqueens.Run(nqueens.Options{N: 8}, append([]abcl.Option{abcl.WithNodes(8), abcl.WithSeed(7),
			abcl.WithObserver(trace.NewJSONL(&buf))}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	plain, plainTrace := run()
	sliced, slicedTrace := run(abcl.WithProfileWindow(100 * abcl.Microsecond))
	if sliced.Solutions != plain.Solutions {
		t.Errorf("solutions: sliced %d, plain %d", sliced.Solutions, plain.Solutions)
	}
	if sliced.Elapsed != plain.Elapsed {
		t.Errorf("elapsed: sliced %v, plain %v", sliced.Elapsed, plain.Elapsed)
	}
	if sliced.Packets != plain.Packets {
		t.Errorf("packets: sliced %d, plain %d", sliced.Packets, plain.Packets)
	}
	if sliced.Stats != plain.Stats {
		t.Errorf("counters diverge:\nsliced %+v\nplain  %+v", sliced.Stats, plain.Stats)
	}
	if !bytes.Equal(slicedTrace, plainTrace) {
		t.Errorf("JSONL traces differ: %d bytes sliced, %d plain", len(slicedTrace), len(plainTrace))
	}
	ps, pp := sliced.Report.Profile, plain.Report.Profile
	if pp == nil || ps == nil {
		t.Fatal("a run returned no profile report")
	}
	if !reflect.DeepEqual(ps.Paths, pp.Paths) || !reflect.DeepEqual(ps.Classes, pp.Classes) {
		t.Errorf("profile rows diverge:\nsliced %+v %+v\nplain  %+v %+v", ps.Paths, ps.Classes, pp.Paths, pp.Classes)
	}
	if len(ps.Slices) < 2 || pp.Slices != nil || pp.Window != 0 {
		t.Errorf("slices: %d with a window, %d without; want several and none", len(ps.Slices), len(pp.Slices))
	}
}

// TestProfilerCompleteness is the end-to-end view of attribution on a run
// that exercises the remote, reliable, checkpoint and retransmission
// subsystems: every subsystem's path has a row (the rows sum to the
// machine's instruction count by construction — the node clock and the
// profile advance in one call; machine's TestProfileRowsSumToInstrCount
// holds that). The counters that restate a path's event count agree with its
// row there, on a grouped hot-key run and on a multiactive object reached by
// local sends (checkPathCounts).
func TestProfilerCompleteness(t *testing.T) {
	res, err := nqueens.Run(nqueens.Options{N: 8}, abcl.WithNodes(8), abcl.WithSeed(3),
		abcl.WithFaults(abcl.UniformFaults(0.05, 0.02, 0)),
		abcl.WithBatching(10*abcl.Microsecond, 0),
		abcl.WithDelayedAcks(50*abcl.Microsecond),
		abcl.WithCheckpoint(500*abcl.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if abcl.MustNewSystem().Report().Profile == nil {
		t.Error("a system with no options reports no profile")
	}
	p := res.Report.Profile
	if f := res.Report.Sched.Counters.DormantFraction(); f < 0.5 || f > 0.95 {
		t.Errorf("dormant fraction = %.2f, want the paper's ~0.75 neighbourhood", f)
	}
	paths := make(map[string]abcl.PathStat, len(p.Paths))
	for _, ps := range p.Paths {
		paths[ps.Path] = ps
	}
	for _, want := range []string{"local-dormant", "remote-send", "remote-recv", "create", "ckpt", "retransmit", "ack", "body"} {
		if _, ok := paths[want]; !ok {
			t.Errorf("path %q missing from the report", want)
		}
	}
	if rt := paths["retransmit"]; rt.Packets == 0 {
		t.Error("faulty run attributed no retransmitted packets")
	}
	if ck := paths["ckpt"]; ck.StableBytes == 0 {
		t.Error("checkpointing run attributed no stable-store bytes")
	}
	// An n-queens run creates its root, its collector and one object per
	// search-tree node.
	tree, _ := nqueens.CountTree(8)
	checkPathCounts(t, "nqueens", res.Report, uint64(tree)+2)

	hot, err := hotkey.Run(hotkey.Options{Clients: 8, Ops: 20, Coverage: hotkey.CoverFull}, abcl.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	// A hot-key run on 8 nodes creates 7 store shards, the counter, the
	// collector and its 8 clients.
	checkPathCounts(t, "grouped hotkey", hot.Report, 7+1+1+8)

	// Three local sends to a multiactive object: three multi events.
	sys := abcl.MustNewSystem(abcl.WithNodes(2))
	get, kick := sys.Pattern("get", 0), sys.Pattern("kick", 0)
	reader := sys.NewObjectOn(0, sys.Class("reader", 0, nil).Method(get, func(*abcl.Ctx) {}).Group("reads", get))
	driver := sys.Class("driver", 0, nil).Method(kick, func(ctx *abcl.Ctx) {
		for i := 0; i < 3; i++ {
			ctx.SendPast(reader, get)
		}
	})
	sys.Send(sys.NewObjectOn(0, driver), kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	local := sys.Report()
	if got := local.Sched.Counters.LocalToMulti; got != 3 {
		t.Errorf("local multiactive sends: LocalToMulti = %d, want 3", got)
	}
	checkPathCounts(t, "local multiactive", local, 2)
}

// checkPathCounts asserts the equalities a report's profile relies on:
// every counter that restates a path's event count equals that path's
// Events, the counts kept apart from the path events agree with them, and
// the multi row, whose instructions are those of its deliveries, has events
// whenever it has instructions. creations is the number of objects the
// program makes, counted from the program itself.
func checkPathCounts(t *testing.T, run string, rep abcl.Report, creations uint64) {
	t.Helper()
	events, packets, instr := map[string]uint64{}, map[string]uint64{}, map[string]uint64{}
	for _, ps := range rep.Profile.Paths {
		events[ps.Path], packets[ps.Path], instr[ps.Path] = ps.Events, ps.Packets, ps.Instr
	}
	if instr["multi"] > 0 && events["multi"] == 0 {
		t.Errorf("%s: multi row has %d instructions and no events", run, instr["multi"])
	}
	c := rep.Sched.Counters
	for _, row := range []struct {
		counter string
		got     uint64
		path    string
	}{
		{"LocalToDormant", c.LocalToDormant, "local-dormant"},
		{"LocalToActive", c.LocalToActive, "local-active"},
		{"LocalRestores", c.LocalRestores, "restore"},
		{"LocalToMulti", c.LocalToMulti, "multi"},
		{"RemoteSends", c.RemoteSends, "remote-send"},
		{"RemoteDelivers", c.RemoteDelivers, "remote-recv"},
		{"CkptSaves", c.CkptSaves, "ckpt"},
		{"NowFastPath+NowBlocked", c.NowFastPath + c.NowBlocked, "now-blocked"},
	} {
		if row.got != events[row.path] {
			t.Errorf("%s: %s = %d, %s events = %d", run, row.counter, row.got, row.path, events[row.path])
		}
	}
	// Each remote send launches one wire record, and with no crash each is
	// delivered once.
	if s, p, r := events["remote-send"], packets["remote-send"], events["remote-recv"]; s != p || s != r {
		t.Errorf("%s: remote-send events %d, packets %d, remote-recv events %d; want equal", run, s, p, r)
	}
	// A create event is a creation: Creations() restates the create
	// events, so both are held to the program's own count.
	if cr := events["create"]; cr != creations || c.Creations() != creations {
		t.Errorf("%s: create events %d, Creations() %d, objects made by the program %d", run, cr, c.Creations(), creations)
	}
	// Every completed round saved every node.
	if want := uint64(rep.Ckpt.Rounds) * uint64(rep.Sched.Nodes); c.CkptSaves < want {
		t.Errorf("%s: %d checkpoint saves for %d rounds of %d nodes", run, c.CkptSaves, rep.Ckpt.Rounds, rep.Sched.Nodes)
	}
}

// TestObserverEquivalence asserts the Sink contract's passive side: an
// attached observer changes no virtual-time result, and observers attached
// side by side each see the whole stream a lone one sees.
func TestObserverEquivalence(t *testing.T) {
	base := []abcl.Option{abcl.WithNodes(4), abcl.WithSeed(5)}
	plain, err := nqueens.Run(nqueens.Options{N: 8}, base...)
	if err != nil {
		t.Fatal(err)
	}
	var solo bytes.Buffer
	if _, err := nqueens.Run(nqueens.Options{N: 8}, append(base, abcl.WithObserver(trace.NewJSONL(&solo)))...); err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(16)
	var a, b bytes.Buffer
	res, err := nqueens.Run(nqueens.Options{N: 8}, append(base, abcl.WithObserver(ring),
		abcl.WithObserver(trace.NewJSONL(&a)), abcl.WithObserver(trace.NewJSONL(&b)))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != plain.Elapsed || res.Stats != plain.Stats {
		t.Error("attaching an observer changed virtual-time results")
	}
	if ring.Total() == 0 || solo.Len() == 0 {
		t.Error("observer saw no events")
	}
	if !bytes.Equal(a.Bytes(), solo.Bytes()) || !bytes.Equal(b.Bytes(), solo.Bytes()) {
		t.Errorf("side-by-side JSONL sinks got %d and %d bytes, a lone sink %d: want the identical stream",
			a.Len(), b.Len(), solo.Len())
	}
}

// traceForkJoin runs a small deterministic fork-join workload with a JSONL
// observer and returns the emitted stream.
func traceForkJoin(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sys, err := abcl.NewSystem(
		abcl.WithNodes(4),
		abcl.WithSeed(2),
		abcl.WithObserver(trace.NewJSONL(&buf)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := misc.RunForkJoinOn(sys, 5); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLGolden pins the profile stream format and its determinism: the
// same seed must produce a byte-identical JSON Lines stream, equal to the
// golden file. Regenerate with `go test -run TestJSONLGolden -update .`
// after an intentional event or format change.
func TestJSONLGolden(t *testing.T) {
	got := traceForkJoin(t)
	if again := traceForkJoin(t); !bytes.Equal(got, again) {
		t.Fatal("same-seed runs produced different JSONL streams")
	}
	golden := filepath.Join("testdata", "forkjoin_trace.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSONL stream differs from %s (%d vs %d bytes); regenerate with -update if the change is intentional",
			golden, len(got), len(want))
	}
}
