package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/profile"
)

// Checkpoint support for the inter-node layer.
//
// A consistent global snapshot needs three things from this layer:
//
//   - Channel state. Rather than recording in-flight packets receiver-side
//     (Chandy–Lamport's channel recording), the sender retains every
//     transmitted record until it is *stable* — covered by the receiver's
//     sequence cursor in a completed snapshot round. At restore time the
//     channel state of the cut is reconstructed exactly: every retained
//     record the restored receive cursors do not cover is re-pended and
//     retransmitted, and the reliable protocol's per-link sequence numbers
//     deduplicate anything the receiver had in fact already consumed.
//
//   - Per-node state: sequence cursors, chunk stocks, placement state
//     (round-robin position, RNG, load samples), the location cache and the
//     advertisement ledger, all captured into a RelImage and restored in
//     place. Stock entries are restored *through their existing pointers* —
//     entry pointers travel inside wire records across the creation round
//     trip, so identity must survive a rollback.
//
//   - Teardown of the rolled-back timeline: pending retransmissions, reorder
//     buffers, delayed-ack ledgers, open batches and retained records past
//     the restored send cursors all describe traffic of a timeline that,
//     after a restore, never happened.
//
// Checkpoint-protocol control messages (markers, snapshot acks) ride the
// reliable layer itself (CatCkpt; wmMarker, wmSnapAck): they share each
// link's data sequence space, so they are delivered exactly once and *in
// order with the data stream* — which is precisely the marker property the
// consistency of the cut rests on.

// retainLink is the retention buffer of one (src, dst) link, kept in the
// sender's cold record of the link: recs[i] is the record sent under
// sequence number base+i, its header still holding its size and category.
// Records are immutable after the original send (wire-record pooling is
// disabled while checkpointing is on — see wirePooled). Appended at send,
// trimmed at the front as records become stable, truncated at the back by
// a rollback (CkptRestoreNode).
type retainLink struct {
	base uint64
	recs []*wireMsg
}

// EnableCheckpoint switches the layer into checkpoint mode: every reliable
// transmission is retained until stable, and wire-record pooling is disabled
// so retained records stay immutable. onCkpt handles each checkpoint record
// at its receiving node: a marker of the given round, or (ack) a snapshot
// acknowledgment. Requires the reliable protocol.
func (l *Layer) EnableCheckpoint(onCkpt func(node, round int, ack bool)) {
	if l.rel == nil {
		panic("remote: checkpointing requires the reliable protocol")
	}
	l.onCkpt = onCkpt
}

// retain records one transmission on the src -> dst link for
// replay-after-rollback.
func (lk *retainLink) retain(src, dst int, m *relMsg) {
	if len(lk.recs) == 0 {
		lk.base = m.seq
	} else if want := lk.base + uint64(len(lk.recs)); m.seq != want {
		panic(fmt.Sprintf("remote: retention gap on link %d->%d: seq %d, want %d", src, dst, m.seq, want))
	}
	lk.recs = append(lk.recs, m.payload)
}

// truncate drops the records at or past seq: the restored send cursor.
func (lk *retainLink) truncate(seq uint64) {
	if keep := max(int(seq-lk.base), 0); keep < len(lk.recs) {
		clear(lk.recs[keep:])
		lk.recs = lk.recs[:keep]
	}
}

// RelImage is one node's inter-node-layer snapshot.
type RelImage struct {
	node         int
	nextSeq      []uint64
	nextExpected []uint64
	rr, rrNext   int
	rng          uint64
	loads        []int32
	stock        []stockImage
	locCache     map[core.Address]core.Address
	advert       map[advertKey]core.Address
	bytes        int
}

// stockImage captures one chunk-stock entry through its live pointer.
type stockImage struct {
	e *stockEntry
	stockEntry
}

// SizeBytes reports the modelled stable-store footprint of the image.
func (im *RelImage) SizeBytes() int { return im.bytes }

// CaptureRel snapshots one node's inter-node state. Must run between engine
// events.
func (l *Layer) CaptureRel(node int) *RelImage {
	ns := l.nodes[node]
	im := &RelImage{
		node:         node,
		nextSeq:      make([]uint64, len(l.nodes)),
		nextExpected: make([]uint64, len(l.nodes)),
		rr:           ns.rr,
		rrNext:       ns.rrNext,
		rng:          ns.rng,
		loads:        append([]int32(nil), ns.loads...),
	}
	ns.eachLink(func(k *link) {
		im.nextSeq[k.peer], im.nextExpected[k.peer] = k.nextSeq, k.nextExpected
	})
	// Twelve bytes per peer for its load sample, whether or not the placement
	// keeps samples: the modelled node holds the table either way.
	im.bytes = 16*len(im.nextSeq) + 12*len(l.nodes) + 16
	if len(ns.stock) > 0 {
		im.stock = make([]stockImage, 0, len(ns.stock))
		for _, e := range ns.stock {
			im.stock = append(im.stock, stockImage{e: e, stockEntry: *e})
			im.bytes += 8 + 8*int(e.n) // the entry and its chunk addresses
		}
	}
	if len(ns.locCache) > 0 {
		im.locCache = make(map[core.Address]core.Address, len(ns.locCache))
		for k, v := range ns.locCache {
			im.locCache[k] = v
		}
		im.bytes += 16 * len(im.locCache)
	}
	if len(ns.advert) > 0 {
		im.advert = make(map[advertKey]core.Address, len(ns.advert))
		for k, v := range ns.advert {
			im.advert[k] = v
		}
		im.bytes += 16 * len(im.advert)
	}
	return im
}

// CkptRestoreNode rolls one node's inter-node state back to the image. The
// rolled-back timeline's protocol state is forgotten: in-flight records and
// their retry deadlines, reorder buffers, delayed-ack ledgers, open batches,
// and the retained records at or past the restored send cursors, which must
// never replay. The sequence cursors, placement state, load samples,
// location cache and advertisement ledger are overwritten; chunk-stock
// entries are restored through their existing pointers, and entries the
// image does not know (created after the snapshot) are emptied — their
// chunks belong to the forgotten timeline.
//
// The batch-flush and delayed-ack deadlines stay armed: a stale deadline
// firing on an empty batch or ledger is a no-op, and on a refilled one merely
// early.
func (l *Layer) CkptRestoreNode(im *RelImage) {
	ns := l.nodes[im.node]
	mn := l.m.Node(ns.id)
	ns.eachLink(func(k *link) {
		for k.head != nil {
			l.rel.finish(ns, k, k.head)
		}
		if ob := k.batch; ob != nil {
			for p := ob.head; p != nil; {
				next := p.Next()
				p.SetNext(nil)
				mn.ReleasePacket(p)
				p = next
			}
			ob.reset()
			if ob.due == 0 {
				ns.closeBatch(k)
			}
		}
		k.nextSeq, k.nextExpected = im.nextSeq[k.peer], im.nextExpected[k.peer]
		// The delayed-ack ledger restarts from the restored receive cursor:
		// everything below it is consumed, nothing above has arrived in the
		// restored timeline.
		k.cum, k.owed = k.nextExpected, 0
		if lc := ns.coldOf(int(k.peer)); lc != nil {
			lc.held, lc.above = nil, nil
			lc.ret.truncate(k.nextSeq)
		}
	})
	l.rel.schedule(ns)
	clear(ns.rel.owedTo)
	ns.rel.owedTo = ns.rel.owedTo[:0]
	ns.rr, ns.rrNext, ns.rng = im.rr, im.rrNext, im.rng
	copy(ns.loads, im.loads)
	for _, e := range ns.stock {
		*e = stockEntry{}
	}
	for _, si := range im.stock {
		*si.e = si.stockEntry
	}
	ns.locCache = nil
	if len(im.locCache) > 0 {
		ns.locCache = make(map[core.Address]core.Address, len(im.locCache))
		for k, v := range im.locCache {
			ns.locCache[k] = v
		}
	}
	ns.advert = nil
	if len(im.advert) > 0 {
		ns.advert = make(map[advertKey]core.Address, len(im.advert))
		for k, v := range im.advert {
			ns.advert[k] = v
		}
	}
}

// CkptReplayNode reconstructs the channel state of the cut for one sending
// node: every retained record (already truncated to the restored send
// cursors by CkptRestoreNode) that the destination's restored receive cursor
// does not cover is re-pended and retransmitted under its original sequence
// number. Must run inside the rollback, before any event of the restored
// timeline, so the links it re-pends on have nothing else in flight and
// every number lies below their send cursors. Returns the number of replayed
// records.
func (l *Layer) CkptReplayNode(src int, imgs []*RelImage) int {
	r := l.rel
	ns := l.nodes[src]
	mn := l.m.Node(src)
	replayed := 0
	// In destination order, not first-contact order: each replayed record
	// transmits, and the order of transmissions is part of the timeline.
	for dst, lc := range ns.cold {
		if lc == nil || len(lc.ret.recs) == 0 {
			continue
		}
		k, lk := ns.links[dst], &lc.ret
		start := 0
		if from := imgs[dst].nextExpected[src]; from > lk.base {
			start = int(from - lk.base)
		}
		for i := start; i < len(lk.recs); i++ {
			replayed++
			r.xmit(mn, ns, r.pend(ns, k, lk.recs[i], lk.base+uint64(i)))
		}
	}
	return replayed
}

// CkptStableTrim frees retained records that a completed snapshot round has
// made stable: every record below the receiver's captured cursor is part of
// the receiver's snapshot and will never need replaying.
func (l *Layer) CkptStableTrim(imgs []*RelImage) {
	for src, ns := range l.nodes {
		for dst, lc := range ns.cold {
			if lc == nil {
				continue
			}
			lk := &lc.ret
			cur := imgs[dst].nextExpected[src]
			if cur <= lk.base || len(lk.recs) == 0 {
				continue
			}
			drop := min(int(cur-lk.base), len(lk.recs))
			lk.recs = append(lk.recs[:0:0], lk.recs[drop:]...)
			lk.base += uint64(drop)
		}
	}
}

// markerBytes is the wire payload of a checkpoint marker or snapshot
// acknowledgment beyond the packet header: the round number.
const markerBytes = 8

// SendCkpt transmits a checkpoint-protocol control message from src to dst
// through the reliable layer: a marker of the given round, or (ack) a
// snapshot acknowledgment. The message shares the link's data sequence
// space: it is delivered exactly once, in order with the data stream, which
// gives markers the FIFO property the consistency of the cut depends on.
// The handler EnableCheckpoint installed runs at dst when it is polled.
func (l *Layer) SendCkpt(src, dst, round int, ack bool) {
	kind := wmMarker
	if ack {
		kind = wmSnapAck
	}
	mn := l.m.Node(src)
	w := l.record(mn, profile.Ckpt, 0, kind)
	w.setArgs([]core.Value{core.IntV(int64(round))})
	l.launch(mn, w, dst, packetHeaderBytes+markerBytes, CatCkpt)
}
