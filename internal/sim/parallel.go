package sim

import (
	"sync"
	"sync/atomic"
)

// Conservative parallel execution.
//
// RunParallel exploits the structure of a multicomputer simulation: every
// cross-lane (cross-node) effect is scheduled at least `lookahead` ahead of
// the scheduling lane's clock — for our machine model, the minimum wire
// latency. Within the virtual-time window [T, T+lookahead), where T is the
// globally earliest pending event, each lane's events depend only on state
// already queued on that lane, so the lanes can fire concurrently on a
// worker pool. At the window barrier the engine replays the window's global
// (time, seq) firing order over the per-lane birth logs to assign final
// sequence numbers exactly as the sequential engine would have, then pushes
// cross-lane births and advances to the next window.
//
// Determinism argument, in brief:
//
//  1. Window closure. Active lanes are those whose head event is < T +
//     lookahead. Any event a lane schedules onto another lane lands at >=
//     lane-now + lookahead >= T + lookahead, i.e. outside the window, so no
//     lane can receive work from another lane inside the window.
//  2. Lane-local order. Same-lane births with an in-window timestamp are
//     inserted immediately with a provisional sequence number provBase+1+
//     birthIndex. Pre-window events carry final sequence numbers <=
//     provBase, so they order before all births (as they would
//     sequentially), and births order among themselves by birth index —
//     which is exactly the order the barrier later assigns their final
//     numbers in. The provisional keys therefore sort the lane identically
//     to the final keys.
//  3. Sequence replay. The sequential engine assigns sequence numbers at
//     Schedule time, i.e. in the global (time, seq) firing order of the
//     scheduling events. The barrier merges the per-lane logs of
//     events-that-scheduled-children by (time, final seq) — resolving a
//     window-born parent's own number through its birth record, which is
//     always already assigned because its parent appears earlier in the
//     same lane's log — and numbers children in birth order, reproducing
//     the sequential assignment exactly.
//
// Event callbacks run on worker goroutines and must only touch state owned
// by their lane: Engine.Now is not safe from inside a window — use LaneNow —
// and a Timer is moved or stopped only from its own lane.

// maxTime is the largest representable virtual time.
const maxTime = Time(1<<63 - 1)

// RunParallel fires all pending events like Run, executing independent
// lanes concurrently on up to `workers` goroutines within successive
// virtual-time windows of width `lookahead`. It falls back to the
// sequential Run when parallelism cannot help (one worker, one lane, or no
// positive lookahead). Results — event order per lane, sequence numbers,
// and all lane-local state — are identical to a sequential Run.
func (e *Engine) RunParallel(workers int, lookahead Time) (uint64, error) {
	if workers <= 1 || lookahead <= 0 || len(e.lanes) <= 1 {
		return e.Run()
	}
	e.growPools(min(workers, len(e.lanes)))
	if e.nheld > 0 { // windows never hold: the lanes take their held events
		for l := range e.held {
			for len(e.held[l].heap) > 0 {
				e.enqueue(l, &e.lanes[l].queue, e.unhold(l))
			}
		}
		e.orderRebuild()
	}
	e.parWins = 0
	var total uint64
	active := make([]int32, 0, len(e.lanes))
	for len(e.order) > 0 {
		e.parWins++
		start := e.order[0].at
		end := start + lookahead
		if end < start { // overflow
			end = maxTime
		}
		active = active[:0]
		for i := range e.lanes {
			if h := e.lanes[i].heap; len(h) > 0 && h[0].at < end {
				active = append(active, int32(i))
			}
		}
		e.provBase = e.seq
		e.winEnd = end
		e.inPar = true
		if len(active) == 1 {
			l := int(active[0])
			e.lanes[l].worker = 0
			e.lanes[l].winFired = e.runLaneWindow(l)
		} else {
			e.runWindowWorkers(active, workers)
		}
		e.inPar = false
		total += e.barrier(active)
	}
	return total, nil
}

// runWindowWorkers distributes the active lanes over a worker pool and
// waits for the window to complete. A panic on any worker is re-raised on
// the calling goroutine after all workers stop.
func (e *Engine) runWindowWorkers(active []int32, workers int) {
	w := workers
	if w > len(active) {
		w = len(active)
	}
	panics := make([]any, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[slot] = r
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(active) {
					return
				}
				l := int(active[k])
				e.lanes[l].worker = int32(slot)
				e.lanes[l].winFired = e.runLaneWindow(l)
			}
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			e.inPar = false
			panic(p)
		}
	}
}

// runLaneWindow fires lane l's events with timestamps inside the current
// window, recording births and the fired log for the barrier. It returns
// the number of events fired.
func (e *Engine) runLaneWindow(l int) uint64 {
	ln := &e.lanes[l]
	end := e.winEnd
	var fired uint64
	for len(ln.heap) > 0 && ln.heap[0].at < end {
		ev := e.dequeue(l, &ln.queue)
		ln.now = ev.at
		seq := ev.seq()
		kidStart := len(ln.births)
		e.fire(l, &ev)
		fired++
		if kidEnd := len(ln.births); kidEnd > kidStart {
			rec := firedRec{at: ev.at, seq: seq, bref: -1,
				kidStart: int32(kidStart), kidEnd: int32(kidEnd)}
			if seq > e.provBase {
				rec.bref = int32(seq - e.provBase - 1)
			}
			ln.log = append(ln.log, rec)
		}
		if seq > e.provBase {
			ln.births[seq-e.provBase-1].consumed = true
		}
	}
	return fired
}

// barrier finishes a window: it replays the global firing order over the
// per-lane logs to assign final sequence numbers to every birth, pushes
// unconsumed births into their destination lanes, folds the per-lane fired
// counts and clocks into the engine, and rebuilds the tournament. It returns
// the number of events the window fired.
func (e *Engine) barrier(active []int32) uint64 {
	if cap(e.heads) < len(active) {
		e.heads = make([]int, len(active))
	}
	heads := e.heads[:len(active)]
	for i := range heads {
		heads[i] = 0
	}
	for {
		best := -1
		var bAt Time
		var bSeq uint64
		for i, l := range active {
			ln := &e.lanes[l]
			if heads[i] >= len(ln.log) {
				continue
			}
			r := &ln.log[heads[i]]
			s := r.seq
			if r.bref >= 0 {
				s = ln.births[r.bref].seq
			}
			if best < 0 || r.at < bAt || (r.at == bAt && s < bSeq) {
				best, bAt, bSeq = i, r.at, s
			}
		}
		if best < 0 {
			break
		}
		ln := &e.lanes[active[best]]
		r := &ln.log[heads[best]]
		heads[best]++
		for k := r.kidStart; k < r.kidEnd; k++ {
			e.seq++
			ln.births[k].seq = e.seq
		}
	}
	// Reserved numbers settle before any birth is pushed: until then the
	// only queued keys above provBase are provisional ones.
	for _, l := range active {
		if ln := &e.lanes[l]; ln.reserved {
			ln.settleReserved(e.provBase)
		}
	}
	var fired uint64
	for _, l := range active {
		ln := &e.lanes[l]
		for i := range ln.births {
			b := &ln.births[i]
			if !b.consumed {
				e.enqueue(int(b.dst), &e.lanes[b.dst].queue, event{at: b.at, key: evKey(b.seq, b.kind), arg: b.arg})
			}
			ln.births[i] = birth{}
		}
		ln.births = ln.births[:0]
		ln.log = ln.log[:0]
		fired += ln.winFired
		ln.winFired = 0
		if ln.now > e.now {
			e.now = ln.now
		}
	}
	e.fired += fired
	e.orderRebuild()
	return fired
}

// settleReserved replaces the provisional sequence numbers ReserveSeq handed
// out in the closing window with the final ones: in each target that still
// holds its provisional number, and in the key of a timer put at one with
// StartTimerAt that has yet to fire. Provisional and final numbers order the
// lane identically, so the heap stays a heap and a bucketed event keeps its
// bucket, which depends on its time alone.
func (ln *lane) settleReserved(provBase uint64) {
	ln.reserved = false
	for i := range ln.births {
		if b := &ln.births[i]; b.kind == kindReserve {
			if into := b.arg.(*uint64); *into == provBase+1+uint64(i) {
				*into = b.seq
			}
		}
	}
	ln.rekey(func(key uint64) uint64 {
		if seq := key >> 8; seq > provBase {
			return evKey(ln.births[seq-provBase-1].seq, Kind(key))
		}
		return key
	})
}
