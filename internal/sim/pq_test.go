package sim

import (
	"container/heap"
	"reflect"
	"testing"
)

// The lane queue is exactly a priority queue: whatever mix of scheduling,
// timers, stops and reserved-position moves a program performs, the engine
// fires events in the (time, sequence number) order of a plain reference heap
// that numbers them the way the engine promises to — one number per
// ScheduleOn and ReserveSeq, none for StartTimerAt — and drops a stopped
// timer's item.

// pqQueue is the scheduling surface the program drives: the engine, or the
// reference model.
type pqQueue interface {
	post(src, dst int, at Time, id int)
	arm(l int, d Time, id int) // a fresh timer on lane l, d from now
	stop(l, h int)             // the h-th fresh timer armed on lane l
	reserve(l int, into *uint64)
	move(l int, at Time, seq uint64, id int) // the lane's one movable timer
}

type pqFire struct {
	lane int
	at   Time
	id   int
}

// pqLane is one lane's program state; under RunParallel only the lane's own
// events touch it.
type pqLane struct {
	rng    uint64
	budget int // children the lane's events may still spawn
	ids    int
	timers int       // fresh timers armed so far
	slots  [4]uint64 // reserved positions for the movable timer
	log    []pqFire
}

func (ln *pqLane) rand(n int) int {
	ln.rng = ln.rng*6364136223846793005 + 1442695040888963407
	return int((ln.rng >> 33) % uint64(n))
}

type pqProg struct {
	q      pqQueue
	look   Time
	lanes  []pqLane
	global []pqFire // firing order across lanes (nil: not kept)
}

func (p *pqProg) newID(l int) int {
	p.lanes[l].ids++
	return l<<20 | p.lanes[l].ids
}

// fired is every event's callback: log it, then maybe act.
func (p *pqProg) fired(l int, now Time, id int) {
	ln := &p.lanes[l]
	f := pqFire{l, now, id}
	ln.log = append(ln.log, f)
	if p.global != nil {
		p.global = append(p.global, f)
	}
	if ln.budget == 0 {
		return
	}
	ln.budget--
	switch r := ln.rand(20); {
	case r < 6:
		p.q.post(l, l, now+Time(ln.rand(40)), p.newID(l))
	case r < 10:
		p.q.post(l, ln.rand(len(p.lanes)), now+p.look+Time(ln.rand(40)), p.newID(l))
	case r < 12:
		p.q.arm(l, Time(1+ln.rand(80)), p.newID(l))
		ln.timers++
	case r < 15:
		if ln.timers > 0 {
			p.q.stop(l, ln.rand(ln.timers))
		}
	case r < 18:
		k := ln.rand(len(ln.slots))
		if ln.rand(2) == 0 {
			p.q.reserve(l, &ln.slots[k])
		}
		p.q.move(l, now+Time(ln.rand(60)), ln.slots[k], p.newID(l))
	}
}

// load queues the program's initial events: a few per lane, 2 100 more on
// each deep lane, and on lane 0 a timer storm, most of it stopped.
func (p *pqProg) load(deep int) {
	for l := range p.lanes {
		ln := &p.lanes[l]
		for k := range ln.slots {
			p.q.reserve(l, &ln.slots[k])
		}
		n := 12
		if l < deep {
			n += 2100
		}
		for i := 0; i < n; i++ {
			p.q.post(ln.rand(len(p.lanes)), l, Time(ln.rand(4000)), p.newID(l))
		}
		p.q.move(l, Time(ln.rand(4000)), ln.slots[ln.rand(len(ln.slots))], p.newID(l))
	}
	ln := &p.lanes[0]
	for i := 0; i < 2600; i++ {
		p.q.arm(0, Time(1+ln.rand(6000)), p.newID(0))
		ln.timers++
	}
	for h := 0; h < ln.timers; h++ {
		if h%13 != 0 {
			p.q.stop(0, h)
		}
	}
}

func newPQProg(lanes int) *pqProg {
	p := &pqProg{look: 50, lanes: make([]pqLane, lanes)}
	for l := range p.lanes {
		p.lanes[l].rng = uint64(l)*7919 + 1
		p.lanes[l].budget = 300
	}
	return p
}

// pqEngine drives the engine.
type pqEngine struct {
	e       *Engine
	kind    Kind
	timers  [][]*Timer
	movable []Timer
}

func newPQEngine(p *pqProg) *pqEngine {
	a := &pqEngine{e: NewEngine(), timers: make([][]*Timer, len(p.lanes)), movable: make([]Timer, len(p.lanes))}
	a.e.SetLanes(len(p.lanes))
	a.kind = a.e.Register(func(l int, at Time, arg any) { p.fired(l, at, arg.(int)) })
	p.q = a
	return a
}

func (a *pqEngine) post(src, dst int, at Time, id int) { a.e.ScheduleOn(src, dst, at, a.kind, id) }
func (a *pqEngine) stop(l, h int)                      { a.timers[l][h].Stop() }
func (a *pqEngine) reserve(l int, into *uint64)        { a.e.ReserveSeq(l, into) }

// arm gives a fresh timer a position of its own, as a ScheduleOn would take.
func (a *pqEngine) arm(l int, d Time, id int) {
	t := new(struct {
		Timer
		seq uint64
	})
	a.timers[l] = append(a.timers[l], &t.Timer)
	a.e.ReserveSeq(l, &t.seq)
	a.e.StartTimerAt(l, &t.Timer, a.e.LaneNow(l)+d, t.seq, a.kind, id)
}

func (a *pqEngine) move(l int, at Time, seq uint64, id int) {
	a.e.StartTimerAt(l, &a.movable[l], at, seq, a.kind, id)
}

// pqModel is the reference: one container/heap over every queued item; a
// stopped or moved timer's item leaves it.
type pqItem struct {
	at   Time
	seq  uint64
	lane int
	id   int
	idx  int // position in the heap, -1 once out of it
}

type pqHeap []*pqItem

func (h pqHeap) Len() int { return len(h) }
func (h pqHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h pqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *pqHeap) Push(x any) {
	x.(*pqItem).idx = len(*h)
	*h = append(*h, x.(*pqItem))
}
func (h *pqHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	it.idx = -1
	*h = old[:len(old)-1]
	return it
}

type pqModel struct {
	seq     uint64
	now     Time
	items   pqHeap
	timers  [][]*pqItem
	movable []*pqItem
}

func newPQModel(p *pqProg) *pqModel {
	m := &pqModel{timers: make([][]*pqItem, len(p.lanes)), movable: make([]*pqItem, len(p.lanes))}
	p.q = m
	return m
}

func (m *pqModel) push(at Time, seq uint64, l, id int) *pqItem {
	it := &pqItem{at: max(at, m.now), seq: seq, lane: l, id: id}
	heap.Push(&m.items, it)
	return it
}

func (m *pqModel) post(src, dst int, at Time, id int) {
	m.seq++
	m.push(at, m.seq, dst, id)
}

func (m *pqModel) arm(l int, d Time, id int) {
	m.seq++
	m.timers[l] = append(m.timers[l], m.push(m.now+d, m.seq, l, id))
}

// stop takes the timer's item out, unless it has fired or left already.
func (m *pqModel) stop(l, h int) { m.remove(m.timers[l][h]) }

func (m *pqModel) remove(it *pqItem) {
	if it != nil && it.idx >= 0 {
		heap.Remove(&m.items, it.idx)
	}
}

func (m *pqModel) reserve(l int, into *uint64) {
	m.seq++
	*into = m.seq
}

func (m *pqModel) move(l int, at Time, seq uint64, id int) {
	m.remove(m.movable[l])
	m.movable[l] = m.push(at, seq, l, id)
}

func (m *pqModel) run(p *pqProg) {
	for len(m.items) > 0 {
		it := heap.Pop(&m.items).(*pqItem)
		m.now = it.at
		p.fired(it.lane, it.at, it.id)
	}
}

func pqLogs(p *pqProg) [][]pqFire {
	out := make([][]pqFire, len(p.lanes))
	for l := range p.lanes {
		out[l] = p.lanes[l].log
	}
	return out
}

func TestLaneQueueIsPriorityQueue(t *testing.T) {
	for _, c := range []struct{ lanes, deep int }{{1, 1}, {4, 2}, {256, 3}} {
		ref := newPQProg(c.lanes)
		ref.global = []pqFire{}
		m := newPQModel(ref)
		ref.load(c.deep)
		m.run(ref)

		seq := newPQProg(c.lanes)
		seq.global = []pqFire{}
		a := newPQEngine(seq)
		seq.load(c.deep)
		if d := len(a.e.lanes[c.lanes-1].heap); c.lanes > 1 && c.deep < c.lanes && d > 100 {
			t.Fatalf("%d lanes: shallow lane %d holds %d events", c.lanes, c.lanes-1, d)
		}
		if d := len(a.e.lanes[c.deep-1].heap); d < 2000 {
			t.Fatalf("%d lanes: deep lane holds only %d events", c.lanes, d)
		}
		if _, err := a.e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(ref.global) < 2100*c.deep {
			t.Fatalf("%d lanes: reference fired only %d events", c.lanes, len(ref.global))
		}
		if !reflect.DeepEqual(seq.global, ref.global) {
			i := 0
			for i < min(len(seq.global), len(ref.global)) && seq.global[i] == ref.global[i] {
				i++
			}
			t.Fatalf("%d lanes: Run diverges from the reference at firing %d of %d/%d", c.lanes, i, len(seq.global), len(ref.global))
		}
		if a.e.Pending() != 0 {
			t.Fatalf("%d lanes: %d events left after Run", c.lanes, a.e.Pending())
		}

		par := newPQProg(c.lanes)
		b := newPQEngine(par)
		par.load(c.deep)
		if _, err := b.e.RunParallel(4, par.look); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pqLogs(par), pqLogs(ref)) {
			t.Fatalf("%d lanes: RunParallel diverges from the reference", c.lanes)
		}
	}
}

// BenchmarkLaneQueueDeep is the all-to-all's queue shape without the
// machine: 256 lanes, each sent 255 × 8 events up front in a seeded order —
// per-sender arrival times rising, senders interleaved — then drained by
// Run. Unlike the harness's isolated driver (one event in flight per chain),
// every lane here is ~2 000 deep, which is where heap sifts miss cache.
func BenchmarkLaneQueueDeep(b *testing.B) {
	const lanes, rounds = 256, 8
	type arrival struct {
		dst int
		at  Time
	}
	evs := make([]arrival, 0, lanes*(lanes-1)*rounds)
	for src := 0; src < lanes; src++ {
		for k := 0; k < (lanes-1)*rounds; k++ {
			dst := (src + 1 + k%(lanes-1)) % lanes
			evs = append(evs, arrival{dst, Time(k)*2300 + 1500 + Time(10*(src%7))})
		}
	}
	rng := pqLane{rng: 1}
	for i := len(evs) - 1; i > 0; i-- {
		j := rng.rand(i + 1)
		evs[i], evs[j] = evs[j], evs[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.SetLanes(lanes)
		k := e.Register(func(int, Time, any) {})
		for _, v := range evs {
			e.ScheduleOn(0, v.dst, v.at, k, nil)
		}
		if n, err := e.Run(); err != nil || n != uint64(len(evs)) {
			b.Fatalf("fired %d of %d: %v", n, len(evs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
