package remote

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-link packet batching.
//
// The AP1000-style interconnect charges a fixed launch latency (~1.5µs,
// NetConfig.FixedNs) for every hardware packet regardless of size, so the
// small 4-word messages of the paper waste most of a launch on framing. When
// batching is enabled (Options.BatchWindow > 0), wire records headed to the
// same destination node within one aggregation window — or until a byte
// budget fills — are coalesced into a single CatBatch packet: the fixed
// launch cost and the routing header are paid once, while per-byte and
// per-hop costs remain faithful to the records actually carried.
//
// The batch is pure framing: a pooled packet over the chain of its records'
// own headers, linked through Packet.Next. Each record keeps its own receive
// handler and controller hook; at the destination the frame's controller
// hook runs every record's hook at the (shared) arrival instant, and its
// poll-time handler runs the records' software handlers in enqueue order.
// Per-link FIFO order is therefore preserved: records leave in enqueue order
// inside frames that the machine's per-(src,dst) arrival clamp keeps ordered.
//
// Batching is off by default, and the default path is byte-identical to the
// unbatched engine: Layer.send degenerates to machine.Node.Send.

// batchPerMsgBytes is the per-record framing inside a batch: a short
// kind/length tag replacing the full packet header of a standalone send.
const batchPerMsgBytes = 2

// batchHeaderSave is the wire saving per coalesced record: each record drops
// its own packet header, keeping only the tag.
const batchHeaderSave = packetHeaderBytes - batchPerMsgBytes

// DefaultBatchBytes caps a batch's payload when batching is enabled with a
// zero byte budget.
const DefaultBatchBytes = 512

// batcher is the machine-wide batching configuration; the open batch of each
// (src, dst) pair that actually communicates lives in an openBatch record of
// the sender's.
type batcher struct {
	l         *Layer
	window    sim.Time
	maxBytes  int
	flushKind sim.Kind // a flush deadline's callback; arg: *openBatch
}

func newBatcher(l *Layer, window sim.Time, maxBytes int) *batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	b := &batcher{l: l, window: window, maxBytes: maxBytes}
	b.flushKind = l.m.Eng.Register(func(lane int, _ sim.Time, arg any) {
		b.wake(l.m.NodeOnLane(lane), arg.(*openBatch))
	})
	return b
}

// enqueue defers pkt into the open batch of its link k (nil: looked up),
// opening one (and setting its flush deadline) if the link was idle.
func (b *batcher) enqueue(mn *machine.Node, pkt *machine.Packet, k *link) {
	if k == nil {
		k = b.l.link(mn.ID, pkt.Dst)
	}
	ob := b.l.batchFor(mn, k)
	// The window bounds the spread of the records' *write clocks*, not just
	// the flush deadline: a long method body advances the processor clock
	// far beyond the lane's event time, and its flush deadline cannot fire
	// until the event completes. Without this check every send of the body
	// would share one batch no matter how far apart the records were
	// actually written.
	if ob.n > 0 && mn.Clock > ob.firstClock+b.window {
		b.flush(mn, ob)
	}
	if ob.n == 0 {
		ob.firstClock = mn.Clock
		ob.maxClock = 0
		// The flush fires just after the writing event completes (the
		// sender's clock may run far ahead of its lane inside a method
		// body, so the deadline is measured from the record's write clock).
		// Holding the batch open for the full window instead would tax
		// every lone record with the window as pure latency; the records
		// worth coalescing are written close together in one body, and all
		// of those are enqueued before this deadline can fire. The departure
		// is backdated to the last record's write clock in flush, so a
		// lone record leaves (virtually) when an unbatched send would
		// have. A deadline left pending by an earlier flush of this link is
		// an earlier-than-window deadline, and stays: an early flush is
		// merely conservative. Nothing moves or cancels a queued deadline.
		if !ob.armed {
			d := sim.Time(1)
			if ahead := mn.Clock - mn.EventNow(); ahead > 0 {
				d += ahead
			}
			ob.armed = true
			b.l.m.Eng.ScheduleOn(mn.Lane(), mn.Lane(), mn.EventNow()+d, b.flushKind, ob)
		}
		ob.head = pkt
	} else {
		ob.tail.SetNext(pkt)
	}
	ob.tail = pkt
	ob.n++
	ob.bytes += int(pkt.Size)
	if mn.Clock > ob.maxClock {
		ob.maxClock = mn.Clock
	}
	if ob.bytes >= b.maxBytes {
		b.flush(mn, ob)
	}
}

// wake fires at ob's flush deadline on mn, and takes the link's record back
// once its batch is gone.
func (b *batcher) wake(mn *machine.Node, ob *openBatch) {
	ob.armed = false
	b.flush(mn, ob)
	if ob.n == 0 {
		b.l.nodes[mn.ID].closeBatch(ob.k)
	}
}

// flush launches ob's batch from mn. It runs from the flush deadline or an
// overflow; a deadline of an already-flushed batch is a no-op.
func (b *batcher) flush(mn *machine.Node, ob *openBatch) {
	n := ob.n
	if n == 0 {
		return
	}
	l := b.l
	if mn.Down(mn.EventNow()) {
		// The sender crashed with this batch open: a dead node launches
		// nothing. The records stay queued; the restart's global restore
		// tears the batch down and replays what the restored cut still owes.
		return
	}
	// The batch departs when assembly completes: after the last record was
	// written, and no earlier than the deadline event itself. The launch is
	// the message controller's work, so no processor time is charged here —
	// each record's software cost was charged at its original send.
	at := ob.maxClock
	if ev := mn.EventNow(); ev > at {
		at = ev
	}
	head, bytes := ob.head, ob.bytes
	ob.reset()
	if n == 1 {
		// A lone record gains nothing from framing: it departs as the
		// ordinary packet it already is, just window-delayed. It still
		// carries any acknowledgments owed to its destination — request/
		// reply traffic rarely fills a batch, but almost always has a
		// reverse-direction data packet for the ack to ride.
		if l.rel != nil {
			l.rel.piggybackOnPacket(mn, ob.k, head, at)
		}
		mn.ControllerSend(at, head)
		return
	}
	// The frame is a header over the chain of records, which travel as they
	// are: nothing is copied into it.
	pkt := mn.AcquirePacket()
	pkt.Dst = int(ob.k.peer)
	pkt.Size = int32(packetHeaderBytes + bytes - n*batchHeaderSave)
	pkt.Category = CatBatch
	pkt.Payload = head
	pkt.OnArrive = l.hBatchArr
	pkt.Handler = l.hBatchDel
	if l.rel != nil {
		// A reverse-direction batch carries any acknowledgments this node
		// owes the destination for free (plus a few bytes of framing).
		l.rel.piggybackOnPacket(mn, ob.k, pkt, at)
	}
	b.l.m.C.BatchesSent++
	b.l.m.C.BatchedMsgs += uint64(n)
	if l.rt.Tracing() {
		l.rt.Tracef(at, mn.ID, trace.EvBatch, "batch of %d records to n%d (%dB)", n, pkt.Dst, pkt.Size)
	}
	mn.ControllerSend(at, pkt)
}

// reset empties the batch.
func (ob *openBatch) reset() {
	ob.head, ob.tail, ob.n, ob.bytes = nil, nil, 0, 0
}

// handleBatchArrive runs at the destination's message controller the moment
// the batch lands: the piggybacked ack is processed and every record's
// controller hook fires, exactly as if the record had arrived as its own
// packet at the same instant. The one hook a record can carry is the
// reliable layer's ack generation, on the copy it sends in place of the
// record.
func (l *Layer) handleBatchArrive(rn *machine.Node, p *machine.Packet) {
	if p.HasAck {
		l.rel.takeAck(rn, p)
	}
	for sub := p.Payload.(*machine.Packet); sub != nil; sub = sub.Next() {
		sub.Src = p.Src
		sub.Arrival = p.Arrival
		if l.rel != nil {
			l.rel.dataArrived(rn, sub)
		}
	}
}

// handleBatchDeliver runs at poll time: every record's software handler runs
// in enqueue order. The processor pays full extraction for the first record
// (header parse, buffer management) and the reduced BatchRecvExtract for the
// rest; the discount is applied inside handleWire via the node's batchPos
// cursor.
func (l *Layer) handleBatchDeliver(rn *machine.Node, p *machine.Packet) {
	ns := l.nodes[rn.ID]
	// Unlinking and recycling the records is only safe when the fault model
	// cannot have handed out a duplicate frame sharing this chain; under
	// faults the chain stays whole and is left to the garbage collector.
	recycle := l.m.Faults() == nil
	sub := p.Payload.(*machine.Packet)
	for i := 1; sub != nil; i++ {
		next := sub.Next()
		if recycle {
			sub.SetNext(nil)
		}
		ns.batchPos = i
		if sub.Handler != nil {
			sub.Handler(rn, sub)
		}
		if recycle {
			rn.ReleasePacket(sub)
		}
		sub = next
	}
	ns.batchPos = 0
}

// send puts pkt on the physical wire: deferred into the open batch of the
// destination's link k (nil: looked up) when batching is enabled,
// transmitted immediately otherwise. The boolean reports deferral, in which
// case the arrival time is not yet known (zero).
func (l *Layer) send(mn *machine.Node, pkt *machine.Packet, k *link) (sim.Time, bool) {
	if l.bat != nil && pkt.Dst != mn.ID {
		l.bat.enqueue(mn, pkt, k)
		return 0, true
	}
	return mn.Send(pkt), false
}
