package sim

import (
	"container/heap"
	"fmt"
	"reflect"
	"strings"
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

// wideTime is a time below 2^62 whose bit length is about uniform.
func (ln *pqLane) wideTime() Time {
	ln.rand(1)
	return Time(ln.rng>>2) >> ln.rand(63)
}

// pqCfg is one program: its lanes, how many of them are loaded deep, the
// lookahead of its cross-lane posts, the events a deep lane is loaded with
// (at the start and again by its burst), whether the deep lanes' times spread
// over the whole int64 range, and the seed of the lanes' generators.
type pqCfg struct {
	lanes, deep int
	look        Time
	load        int
	wide        bool
	seed        uint64
}

type pqProg struct {
	q      pqQueue
	cfg    pqCfg
	lanes  []pqLane
	global []pqFire // firing order across lanes (nil: not kept)
}

// pqBurst is the id of a deep lane's burst: the event, at pqBurstAt, that
// loads the lane deep again once it has drained.
const (
	pqBurst   = 0
	pqBurstAt = 8000
)

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
	if id == pqBurst {
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
		p.q.post(l, ln.rand(len(p.lanes)), now+p.cfg.look+Time(ln.rand(40)), p.newID(l))
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

// load queues the program's initial events: a few per lane, cfg.load more
// and a burst on each deep lane, and on lane 0 a timer storm, most of it
// stopped. A wide deep lane's times start with 0 and every power of two below
// 2^63, so each of its buckets holds one, and spread over that range.
func (p *pqProg) load() {
	for l := range p.lanes {
		ln := &p.lanes[l]
		for k := range ln.slots {
			p.q.reserve(l, &ln.slots[k])
		}
		n := 12
		if l < p.cfg.deep {
			n += p.cfg.load
			p.q.post(l, l, pqBurstAt, pqBurst)
			if p.cfg.wide {
				p.q.post(l, l, 0, p.newID(l))
				for k := 0; k < 63; k++ {
					p.q.post(l, l, 1<<k, p.newID(l))
				}
			}
		}
		for i := 0; i < n; i++ {
			at := Time(ln.rand(4000))
			if p.cfg.wide && l < p.cfg.deep {
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

// pqEngine drives the engine and watches each lane's representation: the
// run of deep ('D') and shallow ('S') states its firings saw, and the timer
// arms, stops and moves made while it was deep. Only a lane's own events
// write its row.
type pqEngine struct {
	e       *Engine
	kind    Kind
	timers  [][]*Timer
	movable []Timer
	shapes  []string
	deepOps [][3]int
}

func newPQEngine(p *pqProg) *pqEngine {
	n := len(p.lanes)
	a := &pqEngine{e: NewEngine(), timers: make([][]*Timer, n), movable: make([]Timer, n),
		shapes: make([]string, n), deepOps: make([][3]int, n)}
	a.e.SetLanes(n)
	a.kind = a.e.Register(func(l int, at Time, arg any) {
		st := "S"
		if a.e.lanes[l].deep != nil {
			st = "D"
		}
		if !strings.HasSuffix(a.shapes[l], st) {
			a.shapes[l] += st
		}
		p.fired(l, at, arg.(int))
	})
	p.q = a
	return a
}

// deepOp counts op (0 arm, 1 stop, 2 move) if lane l is deep.
func (a *pqEngine) deepOp(l, op int) {
	if a.e.lanes[l].deep != nil {
		a.deepOps[l][op]++
	}
}

func (a *pqEngine) post(src, dst int, at Time, id int) { a.e.ScheduleOn(src, dst, at, a.kind, id) }
func (a *pqEngine) reserve(l int, into *uint64)        { a.e.ReserveSeq(l, into) }

func (a *pqEngine) stop(l, h int) {
	a.deepOp(l, 1)
	a.timers[l][h].Stop()
}

// arm gives a fresh timer a position of its own, as a ScheduleOn would take.
func (a *pqEngine) arm(l int, d Time, id int) {
	a.deepOp(l, 0)
	t := new(struct {
		Timer
		seq uint64
	})
	a.timers[l] = append(a.timers[l], &t.Timer)
	a.e.ReserveSeq(l, &t.seq)
	a.e.StartTimerAt(l, &t.Timer, a.e.LaneNow(l)+d, t.seq, a.kind, id)
}

func (a *pqEngine) move(l int, at Time, seq uint64, id int) {
	a.deepOp(l, 2)
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

// checkPQ runs program c three ways — the reference model, Run and
// RunParallel(4) — and fails unless both engine runs fire exactly what the
// reference fires: in its global order under Run, lane for lane under
// RunParallel. It returns the two engine drivers.
func checkPQ(t testing.TB, c pqCfg) (seq, par *pqEngine) {
	t.Helper()
	ref := newPQProg(c)
	ref.global = []pqFire{}
	m := newPQModel(ref)
	ref.load()
	m.run(ref)

	sp := newPQProg(c)
	sp.global = []pqFire{}
	seq = newPQEngine(sp)
	sp.load()
	if _, err := seq.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.global, ref.global) {
		i := 0
		for i < min(len(sp.global), len(ref.global)) && sp.global[i] == ref.global[i] {
			i++
		}
		t.Fatalf("%+v: Run diverges from the reference at firing %d of %d/%d", c, i, len(sp.global), len(ref.global))
	}
	if seq.e.Pending() != 0 {
		t.Fatalf("%+v: %d events left after Run", c, seq.e.Pending())
	}

	pp := newPQProg(c)
	par = newPQEngine(pp)
	pp.load()
	if _, err := par.e.RunParallel(4, c.look); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pqLogs(pp), pqLogs(ref)) {
		t.Fatalf("%+v: RunParallel diverges from the reference", c)
	}
	return seq, par
}

func TestLaneQueueIsPriorityQueue(t *testing.T) {
	for _, c := range []pqCfg{
		{lanes: 1, deep: 1, look: 50, load: 2100},
		{lanes: 4, deep: 2, look: 50, load: 2100},
		{lanes: 256, deep: 3, look: 50, load: 2100},
		{lanes: 4, deep: 2, look: 50, load: 2100, wide: true},
	} {
		// A loaded program: its deep lanes have spilled, its shallow ones not.
		p := newPQProg(c)
		a := newPQEngine(p)
		p.load()
		if d := a.e.lanes[c.lanes-1].depth(); c.deep < c.lanes && (d > 100 || a.e.lanes[c.lanes-1].deep != nil) {
			t.Fatalf("%+v: shallow lane %d holds %d events", c, c.lanes-1, d)
		}
		if ln := &a.e.lanes[c.deep-1]; ln.depth() < c.load || ln.deep == nil {
			t.Fatalf("%+v: deep lane holds %d events, spilled %v", c, ln.depth(), ln.deep != nil)
		}
		if c.wide && a.e.lanes[0].deep.mask != ^uint64(1) {
			t.Fatalf("%+v: buckets %064b in use, want 1 to 63", c, a.e.lanes[0].deep.mask)
		}

		seq, par := checkPQ(t, c)
		for _, r := range []*pqEngine{seq, par} {
			for l := 0; l < c.deep && !c.wide; l++ {
				// Spilled at load, drained, spilled at the burst, drained.
				if sh := r.shapes[l]; !strings.HasPrefix(sh, "DSDS") {
					t.Errorf("%+v: lane %d went %q, want deep, shallow, deep, shallow", c, l, sh)
				}
				if ops := r.deepOps[l]; ops[0] == 0 || ops[1] == 0 || ops[2] == 0 {
					t.Errorf("%+v: lane %d armed, stopped and moved timers %v times while deep", c, l, ops)
				}
			}
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

// BenchmarkLaneQueueSteady holds the queue at a steady depth: 256 lanes, each
// starting with depth events, and every event posting one successor 1–2 µs
// ahead on a seeded random lane until the run has fired its quota (at least
// eight events per starting one). Shallow depths are the n-queens shape, where
// lanes stay heaps; at 1 024 every lane is deep, as in the all-to-all.
func BenchmarkLaneQueueSteady(b *testing.B) {
	const lanes = 256
	for _, depth := range []int{4, 32, 128, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			total := max(1<<20, 8*lanes*depth)
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				e.SetLanes(lanes)
				rng := pqLane{rng: 1}
				left := total - lanes*depth
				var k Kind
				k = e.Register(func(l int, at Time, _ any) {
					if left > 0 {
						left--
						e.ScheduleOn(l, rng.rand(lanes), at+1000+Time(rng.rand(1000)), k, nil)
					}
				})
				for l := 0; l < lanes; l++ {
					for j := 0; j < depth; j++ {
						e.ScheduleOn(l, l, Time(rng.rand(1500)), k, nil)
					}
				}
				if n, err := e.Run(); err != nil || n != uint64(total) {
					b.Fatalf("fired %d of %d: %v", n, total, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/event")
		})
	}
}

// FuzzLaneQueue runs checkPQ on fuzzed programs: the seed of the lanes'
// generators, the lane count, how many lanes are loaded deep and how deep,
// the lookahead, and whether deep lanes' times spread over the int64 range.
func FuzzLaneQueue(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(2), uint8(50), uint16(2100), false)
	f.Add(uint64(7), uint8(1), uint8(1), uint8(1), uint16(130), true)
	f.Add(uint64(3), uint8(31), uint8(9), uint8(200), uint16(600), false)
	f.Fuzz(func(t *testing.T, seed uint64, lanes, deep, look uint8, load uint16, wide bool) {
		c := pqCfg{lanes: 1 + int(lanes)%32, look: 1 + Time(look), load: int(load) % 4096, wide: wide, seed: seed}
		c.deep = int(deep) % (c.lanes + 1)
		checkPQ(t, c)
	})
}
