package sim

import (
	"testing"
	"unsafe"
)

type slabRec struct {
	id   int
	data *int
	next *slabRec
}

func (r *slabRec) PoolLink() **slabRec { return &r.next }

func TestQueueEntrySizes(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 32 {
		t.Errorf("event is %d bytes, want <= 32: lane heaps hold these by value", sz)
	}
	if sz := unsafe.Sizeof(entry{}); sz > 24 {
		t.Errorf("tournament entry is %d bytes, want <= 24: every comparison reads two", sz)
	}
	if sz := unsafe.Sizeof(lane{}); sz > 104 {
		t.Errorf("lane is %d bytes, want <= 104: a deep lane's radix state lives out of line", sz)
	}
}

// Records are carved from blocks of 8, 16, ... 256, 256: consecutive carves
// inside a block are adjacent in memory, a new block starts elsewhere.
func TestSlabBlockGrowth(t *testing.T) {
	var s Slab[slabRec, *slabRec]
	var blocks []int
	var prev *slabRec
	for i := 0; i < 8+16+32+64+128+256+256; i++ {
		r := s.Get()
		if prev != nil && unsafe.Pointer(r) == unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(*r)) {
			blocks[len(blocks)-1]++
		} else {
			blocks = append(blocks, 1)
		}
		prev = r
	}
	want := []int{8, 16, 32, 64, 128, 256, 256}
	if len(blocks) != len(want) {
		t.Fatalf("block sizes = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("block sizes = %v, want %v", blocks, want)
		}
	}
}

func TestSlabReuse(t *testing.T) {
	var a, b Slab[slabRec, *slabRec]
	x := 7
	out := make(map[*slabRec]bool)
	var recs []*slabRec
	for i := 0; i < 100; i++ {
		r := a.Get()
		if out[r] {
			t.Fatalf("record %p handed out twice", r)
		}
		if *r != (slabRec{}) {
			t.Fatalf("fresh record not zero: %+v", *r)
		}
		r.id, r.data = i+1, &x
		out[r] = true
		recs = append(recs, r)
	}

	// Release-then-acquire returns the same record, zeroed.
	last := recs[len(recs)-1]
	a.Put(last)
	if last.id != 0 || last.data != nil {
		t.Errorf("Put left the record dirty: %+v", *last)
	}
	if r := a.Get(); r != last || *r != (slabRec{}) {
		t.Errorf("Get after Put = %p %+v, want the zeroed %p back", r, *r, last)
	}

	// Records migrate: released into another slab, they come back out of it
	// most recent first, each exactly once, before it carves anything new.
	for _, r := range recs {
		b.Put(r)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := b.Get()
		if r != recs[i] || *r != (slabRec{}) {
			t.Fatalf("migrated Get #%d = %p %+v, want zeroed %p", len(recs)-1-i, r, *r, recs[i])
		}
	}
	if r := b.Get(); out[r] {
		t.Errorf("drained slab handed out %p again", r)
	}
}

// A Pool is one slab per worker, and records cross between workers: under
// RunParallel(2), each lane takes a record from its worker's slab, marks it
// with its own number and passes it to the next lane, which checks the mark
// and releases the record into its own worker's slab before taking one to
// pass on. A record handed out while another lane still held it would carry
// a foreign mark; run under the race detector (make vet-race), this is also
// the test that the hand-off across the window barrier is ordered. Each hop
// also carves a record from an Arena on the same engine and marks it with its
// lane and hop: the carves of two workers inside one window must never share
// a record, so every mark reads back intact at the end.
func TestPoolAcrossWorkers(t *testing.T) {
	const lanes, hops, look = 8, 400, Time(10)
	e := NewEngine()
	e.SetLanes(lanes)
	p := NewPool[slabRec](e)
	a := NewArena[slabRec](e)
	var (
		gets, puts [lanes]int
		carved     [lanes][]*slabRec
		worker1    [lanes]bool // a lane ran on worker slot 1
		pass       Kind
	)
	send := func(l int, at Time, left int) {
		r := p.Get(l)
		if r.id != 0 || r.data != nil {
			t.Errorf("lane %d was handed a record still marked %+v", l, *r)
		}
		gets[l]++
		c := a.New(l)
		if *c != (slabRec{}) {
			t.Errorf("lane %d carved a record already marked %+v", l, *c)
		}
		c.id = l*hops + left
		carved[l] = append(carved[l], c)
		r.id, r.data = l+1, &left
		e.ScheduleOn(l, (l+1)%lanes, at+look, pass, r)
	}
	pass = e.Register(func(l int, at Time, arg any) {
		r := arg.(*slabRec)
		if from := (l + lanes - 1) % lanes; r.id != from+1 {
			t.Errorf("lane %d received a record marked %d, want %d", l, r.id, from+1)
		}
		left := *r.data - 1
		p.Put(l, r)
		puts[l]++
		worker1[l] = worker1[l] || e.Worker(l) == 1
		if left > 0 {
			send(l, at, left)
		}
	})
	for l := 0; l < lanes; l++ {
		e.ScheduleFuncOn(l, l, Time(l), func() { send(l, Time(l), hops) })
	}
	if _, err := e.RunParallel(2, look); err != nil {
		t.Fatal(err)
	}
	var got, put int
	parallel := false
	for l := 0; l < lanes; l++ {
		got, put, parallel = got+gets[l], put+puts[l], parallel || worker1[l]
	}
	if got != lanes*hops || put != got {
		t.Errorf("%d records taken and %d released, want %d each", got, put, lanes*hops)
	}
	if !parallel {
		t.Error("no lane ran on the second worker")
	}
	if len(p.slots) != 2 || len(a.slots) != 2 {
		t.Errorf("pool holds %d slabs and arena %d slots under two workers, want 2", len(p.slots), len(a.slots))
	}
	seen := make(map[*slabRec]bool)
	for l := range carved {
		if len(carved[l]) != hops {
			t.Errorf("lane %d carved %d records, want %d", l, len(carved[l]), hops)
		}
		for i, c := range carved[l] {
			if seen[c] || c.id != l*hops+hops-i {
				t.Fatalf("lane %d's carve #%d reads %d: two carves shared a record", l, i, c.id)
			}
			seen[c] = true
		}
	}
}

// Four record types share the slab; releasing any of them twice would hand
// one record to two owners. Put catches it at the second release — also when
// the record is the only one on the free list.
func TestSlabPutTwicePanics(t *testing.T) {
	for _, others := range []int{0, 3} {
		var s Slab[slabRec, *slabRec]
		r := s.Get()
		for i := 0; i < others; i++ {
			s.Put(s.Get())
		}
		s.Put(r)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second Put with %d other free records did not panic", others)
				}
			}()
			s.Put(r)
		}()
		// The list is intact: the record comes back exactly once.
		if got := s.Get(); got != r {
			t.Errorf("Get after the rejected Put = %p, want %p", got, r)
		}
		if got := s.Get(); got == r {
			t.Errorf("record %p handed out twice", r)
		}
	}
}
