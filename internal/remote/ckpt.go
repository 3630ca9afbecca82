package remote

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/profile"
)

// Checkpoint support for the inter-node layer.
//
// A consistent global snapshot needs four things from this layer:
//
//   - A colour for every delivery (Lai–Yang). A record is red when its
//     sender has snapshotted in the current round and sent it at or past
//     the send cursor its image holds toward the receiver. Before each
//     in-order delivery the layer asks the Checkpointer, which snapshots an
//     unsnapped receiver before its first red record. The sequence number
//     is the colour: no header bit is added.
//
//   - Channel state. Rather than recording in-flight packets receiver-side,
//     the sender retains every transmitted record until it is *stable* —
//     covered by the receiver's sequence cursor in a completed snapshot
//     round. At restore time the channel state of the cut is reconstructed
//     exactly: every retained record the restored receive cursors do not
//     cover is re-pended and retransmitted, and the reliable protocol's
//     per-link sequence numbers deduplicate anything the receiver had in
//     fact already consumed.
//
//   - Per-node state: the cursors of every link the node has, chunk stocks
//     and placement state (round-robin position, RNG, load samples), all
//     captured into a RelImage and restored in place. A stock slot is
//     reached only by its key (a refill finds it by its sender and class),
//     so the image is a copy of the node's stock slots.
//
//   - Teardown of the rolled-back timeline: pending retransmissions, reorder
//     buffers, delayed-ack ledgers, open batches and retained records past
//     the restored send cursors all describe traffic of a timeline that,
//     after a restore, never happened.

// Checkpointer is the checkpoint subsystem as the layer calls it.
type Checkpointer interface {
	// Colour runs at node before it delivers record seq from src.
	Colour(node, src int, seq uint64)
	// Acked runs at the coordinator for a snapshot acknowledgment of round.
	Acked(round int)
}

// retainLink is the retention buffer of one (src, dst) link, kept in the
// sender's cold record of the link: recs[i] is the record sent under
// sequence number base+i, its header still holding its size and category.
// Records are immutable after the original send: in checkpoint mode they are
// never pooled (record), so a receiver that runs or queues one as its frame
// rewrites only its queue link. Appended at send, trimmed at the front as
// records become stable, truncated at the back by a rollback.
type retainLink struct {
	base uint64
	recs []*core.Frame
}

// EnableCheckpoint switches the layer into checkpoint mode: every reliable
// transmission is retained until stable, records are not pooled, and ck
// colours every delivery and hears every snapshot acknowledgment. Requires
// the reliable protocol.
func (l *Layer) EnableCheckpoint(ck Checkpointer) {
	if l.rel == nil {
		panic("remote: checkpointing requires the reliable protocol")
	}
	l.ckpt = ck
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
	keep := len(lk.recs) - len(lk.from(seq))
	clear(lk.recs[keep:])
	lk.recs = lk.recs[:keep]
}

// from returns the retained records numbered seq and later.
func (lk *retainLink) from(seq uint64) []*core.Frame {
	if seq <= lk.base {
		return lk.recs
	}
	return lk.recs[min(int(seq-lk.base), len(lk.recs)):]
}

// RelImage is one node's inter-node-layer snapshot.
type RelImage struct {
	node    int
	cursors map[int32]cursors // by peer, for each link the node had
	rrNext  int
	rng     uint64
	loads   []int32  // nil unless the placement keeps load samples
	stock   []uint64 // the node's stock slots (stockTable.image)
	bytes   int
}

// cursors are a link's send and receive sequence cursors; zero for a peer
// the node had not yet been in contact with.
type cursors struct{ send, recv uint64 }

// SendCursor returns the sequence number of the first record the node sent
// peer after the image was taken: the first red record of that link.
func (im *RelImage) SendCursor(peer int) uint64 { return im.cursors[int32(peer)].send }

// SizeBytes reports the modelled stable-store footprint of the image.
func (im *RelImage) SizeBytes() int { return im.bytes }

// CaptureRel snapshots one node's inter-node state. Must run between engine
// events.
func (l *Layer) CaptureRel(node int) *RelImage {
	ns := l.nodes[node]
	im := &RelImage{node: node, cursors: make(map[int32]cursors),
		rrNext: ns.rrNext, rng: ns.rng, loads: slices.Clone(ns.loads), stock: ns.stock.image()}
	ns.eachLink(func(k *link) { im.cursors[k.peer] = cursors{k.nextSeq, k.nextExpected} })
	// The modelled node holds both cursors and a load sample for every peer,
	// contacted or not, whether or not the placement keeps samples.
	im.bytes = 16*len(l.nodes) + 12*len(l.nodes) + 16
	for _, s := range im.stock {
		im.bytes += 8 + 8*int(s&stockCount) // the slot and its chunk addresses
	}
	return im
}

// CkptRestoreNode rolls one node's inter-node state back to the image. The
// rolled-back timeline's protocol state is forgotten: in-flight records and
// their retry deadlines, reorder buffers, delayed-ack ledgers, open batches,
// and the retained records at or past the restored send cursors. Cursors
// (zero on a link made after the image), placement state and load samples
// are overwritten. Every stock slot is emptied, then the image's slots are
// copied back: a slot first made after the image stays, empty, and is
// charged in the next image like any other.
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
			if !ob.armed {
				ns.closeBatch(k)
			}
		}
		cur := im.cursors[k.peer]
		k.nextSeq, k.nextExpected = cur.send, cur.recv
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
	ns.rrNext, ns.rng = im.rrNext, im.rng
	copy(ns.loads, im.loads)
	ns.stock.restore(im.stock)
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
		owed := lk.from(imgs[dst].cursors[int32(src)].recv)
		first := lk.base + uint64(len(lk.recs)-len(owed))
		for i, w := range owed {
			r.xmit(mn, ns, r.pend(ns, k, w, first+uint64(i)))
		}
		replayed += len(owed)
	}
	return replayed
}

// CkptStableTrim frees retained records that a completed snapshot round has
// made stable: every record below the receiver's captured cursor is part of
// the receiver's snapshot and will never need replaying.
func (l *Layer) CkptStableTrim(imgs []*RelImage) {
	for src, ns := range l.nodes {
		ns.eachLink(func(k *link) {
			lc := ns.coldOf(int(k.peer))
			if lc == nil {
				return
			}
			lk := &lc.ret
			if keep := lk.from(imgs[k.peer].cursors[int32(src)].recv); len(keep) < len(lk.recs) {
				lk.base += uint64(len(lk.recs) - len(keep))
				lk.recs = slices.Clone(keep)
			}
		})
	}
}

// CkptAppPending reports whether an application record is sent and not yet
// delivered: retained (as every record is until a completed round covers
// it) at or past its receiver's cursor.
func (l *Layer) CkptAppPending() bool {
	for src, ns := range l.nodes {
		for k := ns.linkHead; k != nil; k = k.next {
			lc, rk := ns.coldOf(int(k.peer)), l.nodes[k.peer].peer(src)
			if lc == nil {
				continue
			}
			var delivered uint64
			if rk != nil {
				delivered = rk.nextExpected
			}
			for _, w := range lc.ret.from(delivered) {
				if w.Wire.Category != CatCkpt {
					return true
				}
			}
		}
	}
	return false
}

// ckptBytes is the wire payload of a snapshot request or acknowledgment
// beyond the packet header: the round number.
const ckptBytes = 8

// SendCkpt transmits a snapshot request of the given round from src to dst
// through the reliable layer, or (ack) an acknowledgment for the
// Checkpointer's Acked at dst. A request needs no handler: it is red, so
// its colour snapshots an unsnapped receiver.
func (l *Layer) SendCkpt(src, dst, round int, ack bool) {
	kind := wmSnapReq
	if ack {
		kind = wmSnapAck
	}
	mn := l.m.Node(src)
	w := l.record(mn, profile.Ckpt, 0, kind)
	w.SetArgs([]core.Value{core.IntV(int64(round))})
	l.launch(mn, w, dst, packetHeaderBytes+ckptBytes, CatCkpt)
}
