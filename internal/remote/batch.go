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
// The batch is pure framing. Each record keeps its own receive handler and
// controller hook; at the destination the container's controller hook runs
// every record's hook at the (shared) arrival instant, and its poll-time
// handler runs the records' software handlers in enqueue order. Per-link
// FIFO order is therefore preserved: records leave in enqueue order inside
// containers that the machine's per-(src,dst) arrival clamp keeps ordered.
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
// the sender's, touched only from the sender's event lane.
type batcher struct {
	l         *Layer
	window    sim.Time
	maxBytes  int
	flushKind sim.Kind // the node's flush timer's callback; arg: *nodeState
}

func newBatcher(l *Layer, window sim.Time, maxBytes int) *batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	b := &batcher{l: l, window: window, maxBytes: maxBytes}
	b.flushKind = l.m.Eng.Register(func(_ int, _ sim.Time, arg any) { b.wake(arg.(*nodeState)) })
	return b
}

// enqueue defers pkt into the link's open batch, opening one (and setting
// its flush deadline) if the link was idle.
func (b *batcher) enqueue(mn *machine.Node, pkt *machine.Packet) {
	ns := b.l.nodes[mn.ID]
	ob := ns.batchFor(b.l.link(mn.ID, pkt.Dst))
	// The window bounds the spread of the records' *write clocks*, not just
	// the flush timer: a long method body advances the processor clock far
	// beyond the lane's event time, and its flush timer cannot fire until the
	// event completes. Without this check every send of the body would share
	// one batch no matter how far apart the records were actually written.
	if len(ob.pkts) > 0 && mn.Clock > ob.firstClock+b.window {
		b.flush(mn, ob)
	}
	if len(ob.pkts) == 0 {
		ob.firstClock = mn.Clock
		ob.maxClock = 0
		// The flush fires just after the writing event completes (the
		// sender's clock may run far ahead of its lane inside a method
		// body, so the deadline is measured from the record's write clock).
		// Holding the batch open for the full window instead would tax
		// every lone record with the window as pure latency; the records
		// worth coalescing are written close together in one body, and all
		// of those are enqueued before this timer can fire. The departure
		// is backdated to the last record's write clock in flush, so a
		// lone record leaves (virtually) when an unbatched send would
		// have. A deadline left pending by an earlier flush of this link is
		// an earlier-than-window deadline, and stays: an early flush is
		// merely conservative.
		if ob.due == 0 {
			d := sim.Time(1)
			if ahead := mn.Clock - mn.EventNow(); ahead > 0 {
				d += ahead
			}
			ns.flushes.add(b.l.m.Eng, mn, ob, mn.EventNow()+d)
			ns.flushes.follow(b.l.m.Eng, mn, b.flushKind, ns)
		}
	}
	ob.pkts = append(ob.pkts, pkt)
	ob.bytes += pkt.Size
	if mn.Clock > ob.maxClock {
		ob.maxClock = mn.Clock
	}
	if ob.bytes >= b.maxBytes {
		b.flush(mn, ob)
	}
}

// wake fires at the node's earliest flush deadline, and takes the link's
// record back once its batch is gone.
func (b *batcher) wake(ns *nodeState) {
	ob := ns.flushes.fired()
	mn := b.l.m.Node(ns.id)
	b.flush(mn, ob)
	if len(ob.pkts) == 0 {
		ns.closeBatch(ob.k)
	}
	ns.flushes.follow(b.l.m.Eng, mn, b.flushKind, ns)
}

// flush launches ob's batch from mn. It runs from the flush deadline or an
// overflow; a deadline of an already-flushed batch is a no-op.
func (b *batcher) flush(mn *machine.Node, ob *openBatch) {
	n := len(ob.pkts)
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
	peer := int(ob.k.peer)
	if n == 1 {
		// A lone record gains nothing from framing: it departs as the
		// ordinary packet it already is, just window-delayed. It still
		// carries any acknowledgments owed to its destination — request/
		// reply traffic rarely fills a batch, but almost always has a
		// reverse-direction data packet for the ack to ride.
		p := ob.pkts[0]
		ob.reset()
		if l.rel != nil {
			p.Size += l.rel.piggybackOnPacket(mn, p, at)
		}
		mn.ControllerSend(at, p)
		return
	}
	wb := l.acquireBatch(mn.ID)
	wb.pkts = append(wb.pkts, ob.pkts...)
	size := packetHeaderBytes + ob.bytes - n*batchHeaderSave
	ob.reset()
	if l.rel != nil {
		// A reverse-direction batch carries any acknowledgments this node
		// owes the destination for free (plus a few bytes of framing).
		size += l.rel.piggybackAck(mn, peer, wb, at)
	}
	pkt := mn.AcquirePacket()
	pkt.Dst = peer
	pkt.Size = size
	pkt.Category = CatBatch
	pkt.Payload = wb
	pkt.OnArrive = l.hBatchArr
	pkt.Handler = l.hBatchDel
	mn.C.BatchesSent++
	mn.C.BatchedMsgs += uint64(n)
	if l.rt.Tracing() {
		l.rt.Tracef(at, mn.ID, trace.EvBatch, "batch of %d records to n%d (%dB)", n, peer, size)
	}
	mn.ControllerSend(at, pkt)
}

// reset empties the batch, keeping its backing.
func (ob *openBatch) reset() {
	clear(ob.pkts)
	ob.pkts = ob.pkts[:0]
	ob.bytes = 0
}

// wireBatch is the payload of a CatBatch packet: the coalesced records in
// enqueue order, plus an optional piggybacked cumulative acknowledgment.
// Containers are pooled like wireMsg records: the sender fills one from its
// node's free list, the receiver recycles it into its own.
type wireBatch struct {
	pkts []*machine.Packet
	// Piggybacked ack (for the reliable layer): the batch source
	// acknowledges every seq < ackCum plus the listed out-of-order seqs on
	// the reverse (batch destination -> batch source) data link.
	hasAck bool
	ackCum uint64
	ackSel []uint64
}

func (l *Layer) acquireBatch(src int) *wireBatch {
	ns := l.nodes[src]
	if last := len(ns.batchFree) - 1; last >= 0 {
		wb := ns.batchFree[last]
		ns.batchFree[last] = nil
		ns.batchFree = ns.batchFree[:last]
		return wb
	}
	return &wireBatch{}
}

func (l *Layer) releaseBatch(dst int, wb *wireBatch) {
	wb.pkts = wb.pkts[:0]
	wb.hasAck = false
	wb.ackCum = 0
	wb.ackSel = wb.ackSel[:0]
	ns := l.nodes[dst]
	ns.batchFree = append(ns.batchFree, wb)
}

// handleBatchArrive runs at the destination's message controller the moment
// the batch lands: the piggybacked ack is processed and every record's
// controller hook (the reliable layer's ack generation) fires, exactly as if
// the record had arrived as its own packet at the same instant.
func (l *Layer) handleBatchArrive(rn *machine.Node, p *machine.Packet) {
	wb := p.Payload.(*wireBatch)
	if wb.hasAck {
		l.rel.ackCumReceived(rn, p.Src, wb.ackCum, wb.ackSel)
	}
	for _, sub := range wb.pkts {
		sub.Src = p.Src
		sub.Arrival = p.Arrival
		if sub.OnArrive != nil {
			sub.OnArrive(rn, sub)
		}
	}
}

// handleBatchDeliver runs at poll time: every record's software handler runs
// in enqueue order. The processor pays full extraction for the first record
// (header parse, buffer management) and the reduced BatchRecvExtract for the
// rest; the discount is applied inside handleWire via the node's batchPos
// cursor.
func (l *Layer) handleBatchDeliver(rn *machine.Node, p *machine.Packet) {
	wb := p.Payload.(*wireBatch)
	ns := l.nodes[rn.ID]
	// Recycling the records and the container is only safe when the fault
	// model cannot have handed out a duplicate copy sharing this payload;
	// under faults both are left to the garbage collector.
	recycle := l.m.Faults() == nil
	for i, sub := range wb.pkts {
		ns.batchPos = i + 1
		if sub.Handler != nil {
			sub.Handler(rn, sub)
		}
		if recycle {
			rn.ReleasePacket(sub)
			wb.pkts[i] = nil
		}
	}
	ns.batchPos = 0
	if recycle {
		l.releaseBatch(rn.ID, wb)
	}
}

// send puts pkt on the physical wire: deferred into the destination link's
// open batch when batching is enabled, transmitted immediately otherwise.
// The boolean reports deferral, in which case the arrival time is not yet
// known (zero).
func (l *Layer) send(mn *machine.Node, pkt *machine.Packet) (sim.Time, bool) {
	if l.bat != nil && pkt.Dst != mn.ID {
		l.bat.enqueue(mn, pkt)
		return 0, true
	}
	return mn.Send(pkt), false
}
