package profile

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestSliceBucketingAtWindowBoundaries(t *testing.T) {
	// A bucket is [Start, Start+Window): the boundary instant belongs to the
	// bucket it opens, and buckets nothing touched are still emitted, empty.
	p := New(1, 100, 0)
	p.Instr(1, 0)
	p.Instr(2, 99)
	p.Instr(4, 100)
	p.Event(199)
	p.Packet(200)
	p.QueueDepth(3, 450)
	p.QueueDepth(2, 460) // a bucket keeps its deepest sample
	want := []Slice{
		{Start: 0, Instr: 3},
		{Start: 100, Instr: 4, Events: 1},
		{Start: 200, Packets: 1},
		{Start: 300},
		{Start: 400, MaxQueue: 3},
	}
	r := (&Counts{}).Report(p)
	if !reflect.DeepEqual(r.Slices, want) || r.Window != 100 {
		t.Errorf("slices of %v = %+v\nwant           %+v", r.Window, r.Slices, want)
	}
	// Without a window there is no time series at all.
	c := Counts{}
	c.Instr[Body] = 7
	if r := c.Report(nil); r.Slices != nil || r.Window != 0 || len(r.Paths) != 1 || r.Paths[0].Instr != 7 {
		t.Errorf("unwindowed report = %+v; want no slices and one body row of 7", r)
	}
}

func TestMergeSlicesAcrossNodes(t *testing.T) {
	// Nodes stop at different buckets: the series runs to the latest, sums
	// the counts of every node, takes the deepest queue, and derives
	// utilization from the ns per instruction over the whole machine's
	// capacity for the window.
	p := New(2, 1000, 100)
	p.Instr(4, 10) // node 0
	p.QueueDepth(2, 10)
	p.Instr(6, 500) // node 1
	p.QueueDepth(5, 500)
	p.Instr(10, 2500)
	p.Packet(2500)
	want := []Slice{
		{Start: 0, Instr: 10, MaxQueue: 5, Utilization: 100 * 10.0 / (1000 * 2)},
		{Start: 1000},
		{Start: 2000, Instr: 10, Packets: 1, Utilization: 100 * 10.0 / (1000 * 2)},
	}
	if got := (&Counts{}).Report(p).Slices; !reflect.DeepEqual(got, want) {
		t.Errorf("slices = %+v\nwant     %+v", got, want)
	}
	// No ns per instruction leaves utilization out rather than guessing a clock.
	q := New(1, sim.Microsecond, 0)
	q.Instr(50, 1)
	if u := (&Counts{}).Report(q).Slices[0].Utilization; u != 0 {
		t.Errorf("utilization without a clock = %v, want 0", u)
	}
}

func TestUnattributedChargeIsTheOtherRow(t *testing.T) {
	// The zero Path is Other: a charge made before anything set a path gets a
	// visible row of its own, in taxonomy order, and counts in the total.
	var unset Path
	c := Counts{}
	c.Instr[unset] += 30
	c.Instr[Body] += 70
	r := c.Report(nil)
	if c.TotalInstr() != 100 || len(r.Paths) != 2 {
		t.Fatalf("report = %+v, want two rows summing to 100", r)
	}
	if got := r.Paths[0]; got.Path != "other" || got.Instr != 30 || got.InstrShare != 0.3 {
		t.Errorf("first row = %+v, want other/30/0.3", got)
	}
	if got := r.Paths[1]; got.Path != "body" || got.Instr != 70 {
		t.Errorf("second row = %+v, want body/70", got)
	}
}

func TestClassRows(t *testing.T) {
	// A class row is kept in class-id order once anything was counted to it,
	// under the name the runtime gave it; an untouched class has no row.
	c := Counts{Classes: []Class{{Name: "idle"}, {Name: "worker"}, {Name: "hub"}}}
	c.Classes[1].Deliv[DeliverActive] += 2
	c.Classes[1].Body += 40
	c.Classes[2].Deliv[DeliverMulti]++
	want := []ClassStat{{Class: "worker", Active: 2, BodyInstr: 40}, {Class: "hub", Multi: 1}}
	if got := c.Report(nil).Classes; !reflect.DeepEqual(got, want) {
		t.Errorf("class rows = %+v, want %+v", got, want)
	}
}
