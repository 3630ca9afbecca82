package sim

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"
)

// The lane queue is exactly a priority queue: whatever mix of scheduling,
// timers, stops and reserved-position moves a program performs, the engine
// fires events in the (time, sequence number) order of a plain reference heap
// that numbers them the way the engine promises to — one number per
// ScheduleOn and ReserveSeq, none for StartTimerAt — and drops a stopped
// timer's item.
//
// A program may also hold events (ScheduleHeldOn) and close and open lanes,
// the way the machine holds packet arrivals behind a queued turn: a held
// event on an open lane closes it behind a "turn" that opens it again, and
// one on a closed lane touches only its lane's log. Its reference is the same
// program with every gate left open, and the check is then lane for lane: the
// same events in the same order with the same sequence numbers, each host-lane
// event seeing as many fired events as in the reference, and the same Fired().

// pqQueue is the scheduling surface the program drives: the engine, or the
// reference model.
type pqQueue interface {
	post(src, dst int, at Time, id int)
	hold(src, dst int, at Time, id int) // a post that may wait off the tournament
	arm(l int, d Time, id int)          // a fresh timer on lane l, d from now
	stop(l, h int)                      // the h-th fresh timer armed on lane l
	reserve(l int, into *uint64)
	move(l int, at Time, seq uint64, id int) // the lane's one movable timer
	gate(l int, closed bool)
	seen() uint64 // events fired before the one firing
}

// pqFire is one firing: seq is the event's sequence number and seen how many
// events had fired before a host-lane event of a holding program, one it did
// not hold (0 where not kept).
type pqFire struct {
	lane int
	at   Time
	id   int
	seq  uint64
	seen uint64
}

// pqLane is one lane's program state.
type pqLane struct {
	rng    uint64
	budget int // children the lane's events may still spawn
	ids    int
	timers int       // fresh timers armed so far
	slots  [4]uint64 // reserved positions for the movable timer
	closed bool      // the program's own gate: its decisions never read the engine's
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
// events a deep lane is loaded with
// (at the start and again by its burst), whether the deep lanes' times spread
// over the whole int64 range, the seed of the lanes' generators, and whether
// it holds events — a deep lane's load is then held behind a closed gate.
type pqCfg struct {
	lanes, deep int
	load        int
	wide        bool
	seed        uint64
	held        bool
}

type pqProg struct {
	q      pqQueue
	cfg    pqCfg
	lanes  []pqLane
	global []pqFire // firing order across lanes (nil: not kept)
}

// A deep lane's burst is the event, at pqBurstAt, that loads the lane deep
// again once it has drained; its id is the lane's bare number. Held events
// and turns carry a flag bit.
const (
	pqBurstAt = 8000
	pqHeld    = 1 << 40
	pqTurn    = 1 << 41
)

func pqBurst(l int) int { return l << 20 }

func (p *pqProg) newID(l int) int {
	p.lanes[l].ids++
	return l<<20 | p.lanes[l].ids
}

// closeBehindTurn closes lane l behind a turn at at that opens it again.
func (p *pqProg) closeBehindTurn(l int, at Time) {
	p.lanes[l].closed = true
	p.q.gate(l, true)
	p.q.post(l, l, at, p.newID(l)|pqTurn)
}

// fired is every event's callback: log it, then maybe act.
func (p *pqProg) fired(l int, now Time, id int, seq uint64) {
	ln := &p.lanes[l]
	f := pqFire{lane: l, at: now, id: id, seq: seq}
	if p.cfg.held && l == 0 && id&pqHeld == 0 {
		f.seen = p.q.seen()
	}
	ln.log = append(ln.log, f)
	if p.global != nil {
		p.global = append(p.global, f)
	}
	switch {
	case id&pqHeld != 0 && ln.closed:
		return // a packet joining a busy node's receive queue
	case id&pqHeld != 0:
		p.closeBehindTurn(l, now+Time(ln.rand(200)))
		return
	case id&pqTurn != 0:
		ln.closed = false
		p.q.gate(l, false)
	case id == pqBurst(l) && l < p.cfg.deep:
		post, flag := p.q.post, 0
		if p.cfg.held {
			post, flag = p.q.hold, pqHeld
			if !ln.closed {
				p.closeBehindTurn(l, now+4000)
			}
		}
		for i := 0; i < p.cfg.load; i++ {
			post(l, l, now+Time(ln.rand(4000)), p.newID(l)|flag)
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
			p.q.reserve(l, &ln.slots[k])
		}
		p.q.move(l, now+Time(ln.rand(60)), ln.slots[k], p.newID(l))
	}
	if !p.cfg.held {
		return
	}
	switch r := ln.rand(10); {
	case r < 4:
		p.q.hold(l, ln.rand(len(p.lanes)), now+Time(ln.rand(90)), p.newID(l)|pqHeld)
	case r < 6:
		p.q.hold(l, l, now+Time(ln.rand(40)), p.newID(l)|pqHeld)
	case r < 7:
		// A gate turned with no turn behind it: a closed lane may be left
		// with nothing but held events.
		ln.closed = !ln.closed
		p.q.gate(l, ln.closed)
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
			p.q.post(l, l, pqBurstAt, pqBurst(l))
			if p.cfg.held {
				p.closeBehindTurn(l, 4000)
				for i := 0; i < p.cfg.load; i++ {
					p.q.hold(ln.rand(len(p.lanes)), l, Time(ln.rand(8000)), p.newID(l)|pqHeld)
				}
			} else {
				n += p.cfg.load
			}
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
// run of deep ('D') and shallow ('S') states its firings saw — of its queue,
// or of its held queue for held events — and the timer arms, stops and moves
// made while it was deep, and every event's sequence number (seqOf).
type pqEngine struct {
	e          *Engine
	kind       Kind
	timers     [][]*Timer
	movable    []Timer
	shapes     []string
	heldShapes []string
	deepOps    [][3]int
	seqOf      map[int]uint64
}

func newPQEngine(p *pqProg) *pqEngine {
	n := len(p.lanes)
	a := &pqEngine{e: NewEngine(), timers: make([][]*Timer, n), movable: make([]Timer, n),
		shapes: make([]string, n), heldShapes: make([]string, n), deepOps: make([][3]int, n),
		seqOf: map[int]uint64{}}
	a.e.SetLanes(n)
	a.kind = a.e.Register(func(l int, at Time, arg any) {
		id := arg.(int)
		shapes, q := a.shapes, &a.e.lanes[l].queue
		if id&pqHeld != 0 {
			shapes, q = a.heldShapes, &a.e.held[l]
		}
		st := "S"
		if q.deep != nil {
			st = "D"
		}
		if !strings.HasSuffix(shapes[l], st) {
			shapes[l] += st
		}
		p.fired(l, at, id, a.seqOf[id])
	})
	p.q = a
	return a
}

// numbered notes the sequence number the engine gave event id.
func (a *pqEngine) numbered(id int, seq uint64) { a.seqOf[id] = seq }

// deepOp counts op (0 arm, 1 stop, 2 move) if lane l is deep.
func (a *pqEngine) deepOp(l, op int) {
	if a.e.lanes[l].deep != nil {
		a.deepOps[l][op]++
	}
}

func (a *pqEngine) post(src, dst int, at Time, id int) {
	a.e.ScheduleOn(src, dst, at, a.kind, id)
	a.numbered(id, a.e.seq)
}

func (a *pqEngine) hold(src, dst int, at Time, id int) {
	a.e.ScheduleHeldOn(src, dst, at, a.kind, id)
	a.numbered(id, a.e.seq)
}

func (a *pqEngine) reserve(l int, into *uint64) { a.e.ReserveSeq(l, into) }
func (a *pqEngine) gate(l int, closed bool)     { a.e.SetLaneClosed(l, closed) }
func (a *pqEngine) seen() uint64                { return a.e.Fired() }

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
	a.e.StartTimerAt(l, &t.Timer, a.e.Now()+d, t.seq, a.kind, id)
	a.numbered(id, t.seq)
}

func (a *pqEngine) move(l int, at Time, seq uint64, id int) {
	a.deepOp(l, 2)
	a.e.StartTimerAt(l, &a.movable[l], at, seq, a.kind, id)
	a.numbered(id, seq)
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
	fired   uint64
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

// hold is post, and gate nothing: the reference leaves every gate open.
func (m *pqModel) hold(src, dst int, at Time, id int) { m.post(src, dst, at, id) }
func (m *pqModel) gate(l int, closed bool)            {}
func (m *pqModel) seen() uint64                       { return m.fired }

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
		p.fired(it.lane, it.at, it.id, it.seq)
		m.fired++
	}
}

// firstDiff is the first index at which two firing logs differ.
func firstDiff(a, b []pqFire) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// checkPQ runs program c on the reference model and on the engine, and fails
// unless the engine fires exactly what the reference fires: in its global
// order, or lane for lane for a holding program. It returns the engine's
// driver.
func checkPQ(t testing.TB, c pqCfg) *pqEngine {
	t.Helper()
	ref := newPQProg(c)
	ref.global = []pqFire{}
	m := newPQModel(ref)
	ref.load()
	m.run(ref)

	sp := newPQProg(c)
	sp.global = []pqFire{}
	seq := newPQEngine(sp)
	sp.load()
	n, err := seq.e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.held {
		for l := range ref.lanes {
			got, want := sp.lanes[l].log, ref.lanes[l].log
			if i := firstDiff(got, want); i < max(len(got), len(want)) {
				t.Fatalf("%+v: Run diverges from the reference on lane %d at firing %d of %d/%d: %+v, want %+v", c, l, i, len(got), len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
			}
		}
	} else if i := firstDiff(sp.global, ref.global); i < max(len(sp.global), len(ref.global)) {
		t.Fatalf("%+v: Run diverges from the reference at firing %d of %d/%d", c, i, len(sp.global), len(ref.global))
	}
	if want := uint64(len(ref.global)); n != want || seq.e.Fired() != want {
		t.Fatalf("%+v: Run fired %d, Fired() %d, the reference %d", c, n, seq.e.Fired(), want)
	}
	if seq.e.Pending() != 0 {
		t.Fatalf("%+v: %d events left after Run", c, seq.e.Pending())
	}
	return seq
}

func TestLaneQueueIsPriorityQueue(t *testing.T) {
	for _, c := range []pqCfg{
		{lanes: 1, deep: 1, load: 2100},
		{lanes: 4, deep: 2, load: 2100},
		{lanes: 256, deep: 3, load: 2100},
		{lanes: 4, deep: 2, load: 2100, wide: true},
		{lanes: 1, deep: 1, load: 2100, held: true},
		{lanes: 4, deep: 2, load: 2100, held: true},
		{lanes: 256, deep: 3, load: 2100, held: true},
	} {
		// A loaded program: its deep lanes have spilled — their held queues,
		// if the program holds — its shallow ones not.
		p := newPQProg(c)
		a := newPQEngine(p)
		p.load()
		if d := a.e.lanes[c.lanes-1].depth(); c.deep < c.lanes && (d > 100 || a.e.lanes[c.lanes-1].deep != nil) {
			t.Fatalf("%+v: shallow lane %d holds %d events", c, c.lanes-1, d)
		}
		q := &a.e.lanes[c.deep-1].queue
		if c.held {
			q = &a.e.held[c.deep-1]
		}
		if q.depth() < c.load || q.deep == nil {
			t.Fatalf("%+v: deep lane holds %d events, spilled %v", c, q.depth(), q.deep != nil)
		}
		if c.wide && a.e.lanes[0].deep.mask != ^uint64(1) {
			t.Fatalf("%+v: buckets %064b in use, want 1 to 63", c, a.e.lanes[0].deep.mask)
		}

		r := checkPQ(t, c)
		for l := 0; l < c.deep && !c.wide; l++ {
			// Spilled at load, drained, spilled at the burst, drained.
			sh := r.shapes[l]
			if c.held {
				sh = r.heldShapes[l]
			}
			if !strings.HasPrefix(sh, "DSDS") {
				t.Errorf("%+v: lane %d went %q, want deep, shallow, deep, shallow", c, l, sh)
			}
			if ops := r.deepOps[l]; !c.held && (ops[0] == 0 || ops[1] == 0 || ops[2] == 0) {
				t.Errorf("%+v: lane %d armed, stopped and moved timers %v times while deep", c, l, ops)
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
// whether deep lanes' times spread over the int64 range, and whether the
// program holds events and turns gates.
func FuzzLaneQueue(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(2), uint16(2100), false, false)
	f.Add(uint64(7), uint8(1), uint8(1), uint16(130), true, false)
	f.Add(uint64(3), uint8(31), uint8(9), uint16(600), false, false)
	f.Add(uint64(5), uint8(8), uint8(3), uint16(700), false, true)
	f.Add(uint64(9), uint8(2), uint8(2), uint16(300), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, lanes, deep uint8, load uint16, wide, held bool) {
		c := pqCfg{lanes: 1 + int(lanes)%32, load: int(load) % 4096, wide: wide, seed: seed, held: held}
		c.deep = int(deep) % (c.lanes + 1)
		checkPQ(t, c)
	})
}
