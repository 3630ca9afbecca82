package profile

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestSliceBucketingAtWindowBoundaries(t *testing.T) {
	// A bucket is [Start, Start+Window): the boundary instant belongs to the
	// bucket it opens, and buckets nothing touched are still emitted, empty.
	p := New(1, Options{Window: 100})
	p.ChargeInstr(0, 1, 0)
	p.ChargeInstr(0, 2, 99)
	p.ChargeInstr(0, 4, 100)
	p.Event(199)
	p.Packet(0, RemoteSend, 16, 200)
	p.QueueDepth(3, 450)
	p.QueueDepth(2, 460) // a bucket keeps its deepest sample
	want := []Slice{
		{Start: 0, Instr: 3},
		{Start: 100, Instr: 4, Events: 1},
		{Start: 200, Packets: 1},
		{Start: 300},
		{Start: 400, MaxQueue: 3},
	}
	if got := p.Report(&Counts{}).Slices; !reflect.DeepEqual(got, want) {
		t.Errorf("slices = %+v\nwant     %+v", got, want)
	}
	// Without a window there is no time series at all.
	q := New(1, Options{})
	q.ChargeInstr(0, 7, 12345)
	c := Counts{}
	c.Instr[Body] = 7
	if r := q.Report(&c); r.Slices != nil || r.TotalInstr != 7 {
		t.Errorf("unwindowed report: slices %v, total %d; want none, 7", r.Slices, r.TotalInstr)
	}
}

func TestMergeSlicesAcrossNodes(t *testing.T) {
	// Nodes stop at different buckets: the series runs to the latest, sums
	// the counts of every node, takes the deepest queue, and derives
	// utilization from InstrNs over the whole machine's capacity for the
	// window; each node keeps its own instruction and packet totals.
	p := New(2, Options{Window: 1000, InstrNs: 100})
	p.ChargeInstr(0, 4, 10)
	p.QueueDepth(2, 10)
	p.ChargeInstr(1, 6, 500)
	p.QueueDepth(5, 500)
	p.ChargeInstr(1, 10, 2500)
	p.Packet(1, Create, 8, 2500)
	want := []Slice{
		{Start: 0, Instr: 10, MaxQueue: 5, Utilization: 100 * 10.0 / (1000 * 2)},
		{Start: 1000},
		{Start: 2000, Instr: 10, Packets: 1, Utilization: 100 * 10.0 / (1000 * 2)},
	}
	r := p.Report(&Counts{})
	if !reflect.DeepEqual(r.Slices, want) {
		t.Errorf("slices = %+v\nwant     %+v", r.Slices, want)
	}
	if wantNodes := []NodeStat{{Node: 0, Instr: 4}, {Node: 1, Instr: 16, Packets: 1}}; !reflect.DeepEqual(r.Nodes, wantNodes) {
		t.Errorf("node totals = %+v, want %+v", r.Nodes, wantNodes)
	}
	// InstrNs zero leaves utilization out rather than guessing a clock.
	q := New(1, Options{Window: sim.Microsecond})
	q.ChargeInstr(0, 50, 1)
	if u := q.Report(&Counts{}).Slices[0].Utilization; u != 0 {
		t.Errorf("utilization without InstrNs = %v, want 0", u)
	}
}

func TestUnattributedChargeIsTheOtherRow(t *testing.T) {
	// The zero Path is Other: a charge made before anything set a path gets a
	// visible row of its own, in taxonomy order, and counts in the total.
	var unset Path
	c := Counts{}
	c.Instr[unset] += 30
	c.Instr[Body] += 70
	r := New(1, Options{}).Report(&c)
	if r.TotalInstr != 100 || len(r.Paths) != 2 {
		t.Fatalf("report = %+v, want two rows summing to 100", r)
	}
	if got := r.Paths[0]; got.Path != "other" || got.Instr != 30 || got.InstrShare != 0.3 {
		t.Errorf("first row = %+v, want other/30/0.3", got)
	}
	if got := r.Paths[1]; got.Path != "body" || got.Instr != 70 {
		t.Errorf("second row = %+v, want body/70", got)
	}
}
