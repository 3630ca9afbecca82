package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// The event queue is exactly a priority queue: whatever mix of scheduling,
// timers, stops and reserved-position moves a program performs, the engine
// fires events in the (time, sequence number) order of a plain reference heap
// that numbers them the way the engine promises to — one number per
// ScheduleOn and ReserveSeq, none for StartTimerAt — and drops a stopped
// timer's item. Every firing is checked for its lane argument, its time, and
// the number of events still pending.

// pqQueue is the scheduling surface the program drives: the engine, or the
// reference model.
type pqQueue interface {
	post(src, dst int, at Time, id int)
	arm(l int, d Time, id int) // a fresh timer on lane l, d from now
	stop(l, h int)             // the h-th fresh timer armed on lane l
	reserve(into *uint64)
	move(l int, at Time, seq uint64, id int) // the lane's one movable timer
	pending() int
}

// pqFire is one firing: seq is the event's sequence number and pend the
// events pending while it fires.
type pqFire struct {
	lane int
	at   Time
	id   int
	seq  uint64
	pend int
}

// pqLane is one lane's program state.
type pqLane struct {
	rng    uint64
	budget int // children the lane's events may still spawn
	ids    int
	timers int       // fresh timers armed so far
	slots  [4]uint64 // reserved positions for the movable timer
}

func (ln *pqLane) rand(n int) int {
	ln.rng = ln.rng*6364136223846793005 + 1442695040888963407
	return int((ln.rng >> 33) % uint64(n))
}

// wideTime is a time below 2^62 whose bit length is about uniform.
func (ln *pqLane) wideTime() Time {
	ln.rand(1)
	return Time(ln.rng>>2) >> ln.rand(63)
}

// pqCfg is one program: its lanes, how many of them are loaded, the events a
// loaded lane is sent (at the start and again by its burst), whether the
// loaded lanes' times spread over the whole int64 range, and the seed of the
// lanes' generators.
type pqCfg struct {
	lanes, loaded int
	load          int
	wide          bool
	seed          uint64
}

type pqProg struct {
	q     pqQueue
	cfg   pqCfg
	lanes []pqLane
	log   []pqFire // firing order across lanes
}

// A loaded lane's burst is the event, at pqBurstAt, that loads the lane
// again once the first load has drained; its id is the lane's bare number.
const pqBurstAt = 8000

func pqBurst(l int) int { return l << 20 }

func (p *pqProg) newID(l int) int {
	p.lanes[l].ids++
	return l<<20 | p.lanes[l].ids
}

// fired is every event's callback: log it, then maybe act.
func (p *pqProg) fired(l int, now Time, id int, seq uint64) {
	ln := &p.lanes[l]
	p.log = append(p.log, pqFire{lane: l, at: now, id: id, seq: seq, pend: p.q.pending()})
	if id == pqBurst(l) && l < p.cfg.loaded {
		for i := 0; i < p.cfg.load; i++ {
			p.q.post(l, l, now+Time(ln.rand(4000)), p.newID(l))
		}
		ln.budget = 300
	}
	if ln.budget == 0 {
		return
	}
	ln.budget--
	switch r := ln.rand(20); {
	case r < 6:
		p.q.post(l, l, now+Time(ln.rand(40)), p.newID(l))
	case r < 10:
		p.q.post(l, ln.rand(len(p.lanes)), now+Time(ln.rand(90)), p.newID(l))
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
			p.q.reserve(&ln.slots[k])
		}
		p.q.move(l, now+Time(ln.rand(60)), ln.slots[k], p.newID(l))
	}
}

// load queues the program's initial events: one at time 0 first, which sets
// the queue's base so that every later time is bucketed, a few per lane,
// cfg.load more and a burst on each loaded lane, and on lane 0 a timer storm,
// most of it stopped. A wide loaded lane's times add every power of two below
// 2^63, so that every digit position holds one, and spread over that range.
func (p *pqProg) load() {
	p.q.post(0, 0, 0, p.newID(0))
	for l := range p.lanes {
		ln := &p.lanes[l]
		for k := range ln.slots {
			p.q.reserve(&ln.slots[k])
		}
		n := 12
		if l < p.cfg.loaded {
			p.q.post(l, l, pqBurstAt, pqBurst(l))
			n += p.cfg.load
			if p.cfg.wide {
				for k := 0; k < 63; k++ {
					p.q.post(l, l, 1<<k, p.newID(l))
				}
			}
		}
		for i := 0; i < n; i++ {
			at := Time(ln.rand(4000))
			if p.cfg.wide && l < p.cfg.loaded {
				at = ln.wideTime()
			}
			p.q.post(ln.rand(len(p.lanes)), l, at, p.newID(l))
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

func newPQProg(c pqCfg) *pqProg {
	p := &pqProg{cfg: c, lanes: make([]pqLane, c.lanes)}
	for l := range p.lanes {
		p.lanes[l].rng = uint64(l)*7919 + 1 + c.seed<<32
		p.lanes[l].budget = 300
	}
	return p
}

// pqEngine drives the engine and notes every event's sequence number (seqOf).
type pqEngine struct {
	e       *Engine
	kind    Kind
	timers  [][]*Timer
	movable []Timer
	seqOf   map[int]uint64
}

func newPQEngine(p *pqProg) *pqEngine {
	n := len(p.lanes)
	a := &pqEngine{e: NewEngine(), timers: make([][]*Timer, n), movable: make([]Timer, n),
		seqOf: map[int]uint64{}}
	a.e.SetLanes(n)
	a.kind = a.e.Register(func(l int, at Time, arg any) {
		p.fired(l, at, arg.(int), a.seqOf[arg.(int)])
	})
	p.q = a
	return a
}

func (a *pqEngine) post(src, dst int, at Time, id int) {
	a.e.ScheduleOn(src, dst, at, a.kind, id)
	a.seqOf[id] = a.e.seq
}

func (a *pqEngine) reserve(into *uint64) { a.e.ReserveSeq(into) }
func (a *pqEngine) stop(l, h int)        { a.timers[l][h].Stop() }
func (a *pqEngine) pending() int         { return a.e.Pending() }

// arm gives a fresh timer a position of its own, as a ScheduleOn would take.
func (a *pqEngine) arm(l int, d Time, id int) {
	t := new(struct {
		Timer
		seq uint64
	})
	a.timers[l] = append(a.timers[l], &t.Timer)
	a.e.ReserveSeq(&t.seq)
	a.e.StartTimerAt(l, &t.Timer, a.e.Now()+d, t.seq, a.kind, id)
	a.seqOf[id] = t.seq
}

func (a *pqEngine) move(l int, at Time, seq uint64, id int) {
	a.e.StartTimerAt(l, &a.movable[l], at, seq, a.kind, id)
	a.seqOf[id] = seq
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

func (m *pqModel) pending() int { return len(m.items) }

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

func (m *pqModel) reserve(into *uint64) {
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
		p.fired(it.lane, it.at, it.id, it.seq)
	}
}

// checkPQ runs program c on the reference model and on the engine, and fails
// unless the engine fires exactly what the reference fires, in its order, and
// leaves no slot queued.
func checkPQ(t testing.TB, c pqCfg) {
	t.Helper()
	ref := newPQProg(c)
	m := newPQModel(ref)
	ref.load()
	m.run(ref)

	sp := newPQProg(c)
	a := newPQEngine(sp)
	sp.load()
	n, err := a.e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, want := sp.log, ref.log
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	if i < max(len(got), len(want)) {
		t.Fatalf("%+v: Run diverges from the reference at firing %d of %d/%d: %+v, want %+v",
			c, i, len(got), len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
	}
	if n != uint64(len(want)) || a.e.Fired() != n {
		t.Fatalf("%+v: Run fired %d, Fired() %d, the reference %d", c, n, a.e.Fired(), len(want))
	}
	if a.e.Pending() != 0 || a.e.q.len() != 0 || a.e.stale != 0 {
		t.Fatalf("%+v: %d events pending, %d slots queued, %d stale after Run", c, a.e.Pending(), a.e.q.len(), a.e.stale)
	}
}

func TestEventQueueIsPriorityQueue(t *testing.T) {
	for _, c := range []pqCfg{
		{lanes: 1, loaded: 1, load: 2100},
		{lanes: 4, loaded: 2, load: 2100},
		{lanes: 256, loaded: 3, load: 2100},
		{lanes: 4, loaded: 2, load: 2100, wide: true},
	} {
		// A loaded program has spread its events over the buckets: the
		// wide one over every digit position, the others over every
		// position its times reach (8 000 < 2^18).
		p := newPQProg(c)
		a := newPQEngine(p)
		p.load()
		want := uint16(1<<3 - 1)
		if c.wide {
			want = 1<<positions - 1
		}
		if q := &a.e.q; q.used != want || q.n < c.loaded*c.load {
			t.Fatalf("%+v: positions %011b in use hold %d events, want %011b and at least %d",
				c, q.used, q.n, want, c.loaded*c.load)
		}
		checkPQ(t, c)
	}
}

// FuzzEventQueue runs checkPQ on fuzzed programs: the seed of the lanes'
// generators, the lane count, how many lanes are loaded and how heavily, and
// whether loaded lanes' times spread over the int64 range.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(2), uint16(2100), false)
	f.Add(uint64(7), uint8(1), uint8(1), uint16(130), true)
	f.Add(uint64(3), uint8(31), uint8(9), uint16(600), false)
	f.Add(uint64(5), uint8(8), uint8(3), uint16(700), false)
	f.Add(uint64(9), uint8(2), uint8(2), uint16(300), true)
	f.Fuzz(func(t *testing.T, seed uint64, lanes, loaded uint8, load uint16, wide bool) {
		c := pqCfg{lanes: 1 + int(lanes)%32, load: int(load) % 4096, wide: wide, seed: seed}
		c.loaded = int(loaded) % (c.lanes + 1)
		checkPQ(t, c)
	})
}

// BenchmarkEventQueue holds the queue at a steady depth: 256 lanes start with
// depth events in all, and every event posts one successor 1–2 µs ahead on a
// seeded random lane until the run has fired its quota (at least eight events
// per starting one). Depth 4 is a nearly idle machine, 128 the n-queens
// shape, 65 536 the all-to-all's.
func BenchmarkEventQueue(b *testing.B) {
	const lanes = 256
	for _, depth := range []int{4, 128, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			total := max(1<<20, 8*depth)
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				e.SetLanes(lanes)
				rng := pqLane{rng: 1}
				left := total - depth
				var k Kind
				k = e.Register(func(l int, at Time, _ any) {
					if left > 0 {
						left--
						e.ScheduleOn(l, rng.rand(lanes), at+1000+Time(rng.rand(1000)), k, nil)
					}
				})
				for j := 0; j < depth; j++ {
					e.ScheduleOn(0, j%lanes, Time(rng.rand(1500)), k, nil)
				}
				if n, err := e.Run(); err != nil || n != uint64(total) {
					b.Fatalf("fired %d of %d: %v", n, total, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/event")
		})
	}
}
