package remote

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
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
//     buffers, delayed-ack ledgers and open batches all describe traffic of
//     a timeline that, after a restore, never happened.
//
// Checkpoint-protocol control messages (markers, snapshot acks) ride the
// reliable layer itself (CatCkpt, wmCkpt): they share each link's data
// sequence space, so they are delivered exactly once and *in order with the
// data stream* — which is precisely the marker property the consistency of
// the cut rests on.

// ckptRec is one retained transmission: enough to rebuild and re-send the
// relMsg under its original sequence number. Contents are immutable after
// the original send (wire-record pooling is disabled while checkpointing is
// on — see wirePooled).
type ckptRec struct {
	size     int
	category int
	inner    func(*machine.Node, *machine.Packet)
	payload  any
}

// retainLink is the retention buffer of one (src, dst) link: recs[i] holds
// sequence number base+i. Appended at send, trimmed at the front as records
// become stable, truncated at the back by a rollback.
type retainLink struct {
	base uint64
	recs []ckptRec
}

// ckptState is the layer-wide retention state, allocated by
// EnableCheckpoint.
type ckptState struct {
	links [][]retainLink // [src][dst]
}

// EnableCheckpoint switches the layer into checkpoint mode: every reliable
// transmission is retained until stable, and wire-record pooling is disabled
// so retained payloads stay immutable. Requires the reliable protocol.
func (l *Layer) EnableCheckpoint() {
	if l.rel == nil {
		panic("remote: checkpointing requires the reliable protocol")
	}
	if l.ck != nil {
		return
	}
	n := l.rt.Nodes()
	ck := &ckptState{links: make([][]retainLink, n)}
	for i := range ck.links {
		ck.links[i] = make([]retainLink, n)
	}
	l.ck = ck
}

// retain records one transmission for replay-after-rollback.
func (ck *ckptState) retain(src, dst int, seq uint64, m *relMsg) {
	lk := &ck.links[src][dst]
	if len(lk.recs) == 0 {
		lk.base = seq
	} else if want := lk.base + uint64(len(lk.recs)); seq != want {
		panic(fmt.Sprintf("remote: retention gap on link %d->%d: seq %d, want %d", src, dst, seq, want))
	}
	lk.recs = append(lk.recs, ckptRec{size: m.size, category: m.category, inner: m.inner, payload: m.payload})
}

// RelImage is one node's inter-node-layer snapshot.
type RelImage struct {
	node         int
	nextSeq      []uint64
	nextExpected []uint64
	rr, rrNext   int
	rng          uint64
	loads        []loadSample
	stock        []stockImage
	locCache     map[core.Address]core.Address
	advert       map[advertKey]core.Address
	bytes        int
}

// stockImage captures one chunk-stock entry through its live pointer.
type stockImage struct {
	e      *stockEntry
	seeded bool
	chunks []*core.Object
}

// SizeBytes reports the modelled stable-store footprint of the image.
func (im *RelImage) SizeBytes() int { return im.bytes }

// Node reports which node the image belongs to.
func (im *RelImage) Node() int { return im.node }

// NextExpected reports the captured receive cursor for the src link (the
// per-link "everything below this was consumed before the cut" watermark).
func (im *RelImage) NextExpected(src int) uint64 { return im.nextExpected[src] }

// CaptureRel snapshots one node's inter-node state. Must run between engine
// events, with checkpoint mode enabled.
func (l *Layer) CaptureRel(node int) *RelImage {
	if l.ck == nil {
		panic("remote: CaptureRel without EnableCheckpoint")
	}
	ns := l.nodes[node]
	s := l.rel.senders[node]
	rv := l.rel.receivers[node]
	im := &RelImage{
		node:         node,
		nextSeq:      append([]uint64(nil), s.nextSeq...),
		nextExpected: append([]uint64(nil), rv.nextExpected...),
		rr:           ns.rr,
		rrNext:       ns.rrNext,
		rng:          ns.rng,
		loads:        append([]loadSample(nil), ns.loads...),
	}
	im.bytes = 16*len(im.nextSeq) + 12*len(im.loads) + 16
	if len(ns.stock) > 0 {
		im.stock = make([]stockImage, 0, len(ns.stock))
		for _, e := range ns.stock {
			im.stock = append(im.stock, stockImage{e: e, seeded: e.seeded, chunks: append([]*core.Object(nil), e.chunks...)})
			im.bytes += 8 + 8*len(e.chunks)
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

// CkptTeardown discards every piece of in-flight protocol state of the
// rolled-back timeline, in deterministic node order: pending retransmissions
// (timers stopped, records recycled), reorder buffers, delayed-ack ledgers,
// and open batches. Runs once per restore, before the per-node state is
// restored.
func (l *Layer) CkptTeardown() {
	r := l.rel
	n := l.rt.Nodes()
	for src := 0; src < n; src++ {
		s := r.senders[src]
		for dst := 0; dst < n; dst++ {
			pending := s.pending[dst]
			if len(pending) == 0 {
				continue
			}
			seqs := s.scratch[:0]
			for seq := range pending {
				seqs = append(seqs, seq)
			}
			slices.Sort(seqs)
			for _, seq := range seqs {
				m := pending[seq]
				m.acked = true
				m.timer.Stop()
				delete(pending, seq)
				s.releaseMsg(m)
			}
			s.scratch = seqs[:0]
		}
		rv := r.receivers[src]
		for d := range rv.held {
			rv.held[d] = nil
		}
		if r.acks != nil {
			a := r.acks[src]
			a.timer.Stop()
			for i := range a.above {
				a.above[i] = nil
			}
			for i := range a.owed {
				a.owed[i] = 0
			}
			a.owedTo = a.owedTo[:0]
		}
		if l.bat != nil {
			if row := l.bat.links[src]; row != nil {
				for _, lb := range row {
					if lb == nil || len(lb.pkts) == 0 {
						continue
					}
					lb.timer.Stop()
					for _, p := range lb.pkts {
						lb.mn.ReleasePacket(p)
					}
					lb.reset()
				}
			}
		}
	}
}

// CkptRestoreNode rolls one node's inter-node state back to the image. The
// sequence cursors, placement state, load samples, location cache and
// advertisement ledger are overwritten; chunk-stock entries are restored
// through their existing pointers, and entries the image does not know
// (created after the snapshot) are emptied — their chunks belong to the
// forgotten timeline.
func (l *Layer) CkptRestoreNode(im *RelImage) {
	ns := l.nodes[im.node]
	s := l.rel.senders[im.node]
	rv := l.rel.receivers[im.node]
	copy(s.nextSeq, im.nextSeq)
	copy(rv.nextExpected, im.nextExpected)
	ns.rr, ns.rrNext, ns.rng = im.rr, im.rrNext, im.rng
	copy(ns.loads, im.loads)
	for _, e := range ns.stock {
		e.seeded = false
		e.chunks = nil
	}
	for i := range im.stock {
		si := &im.stock[i]
		si.e.seeded = si.seeded
		si.e.chunks = append([]*core.Object(nil), si.chunks...)
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
	if l.rel.acks != nil {
		// The delayed-ack ledger restarts from the restored receive cursors:
		// everything below them is consumed, nothing above has arrived in
		// the restored timeline.
		a := l.rel.acks[im.node]
		copy(a.cum, im.nextExpected)
	}
}

// CkptTruncate discards the rolled-back suffix of every retention buffer:
// records with seq >= the restored send cursor belong to the abandoned
// timeline and must never replay. Runs synchronously inside the rollback,
// before any event of the restored timeline can transmit — a new send (or a
// snapshot marker) under a restored sequence number must find its link's
// buffer already truncated.
func (l *Layer) CkptTruncate(imgs []*RelImage) {
	n := l.rt.Nodes()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			lk := &l.ck.links[src][dst]
			keep := int(imgs[src].nextSeq[dst] - lk.base)
			if keep < 0 {
				keep = 0
			}
			if keep >= len(lk.recs) {
				continue
			}
			for i := keep; i < len(lk.recs); i++ {
				lk.recs[i] = ckptRec{}
			}
			lk.recs = lk.recs[:keep]
		}
	}
}

// CkptReplayNode reconstructs the channel state of the cut for one sending
// node: every retained record (already truncated to the restored send
// cursors by CkptTruncate) that the destination's restored receive cursor
// does not cover is re-pended and retransmitted under its original sequence
// number. Must run on the sending node's lane so retransmission timers are
// armed against fresh event times. Returns the number of replayed records.
func (l *Layer) CkptReplayNode(src int, imgs []*RelImage) int {
	r := l.rel
	s := r.senders[src]
	mn := l.m.Node(src)
	replayed := 0
	for dst := 0; dst < l.rt.Nodes(); dst++ {
		if dst == src {
			continue
		}
		lk := &l.ck.links[src][dst]
		if len(lk.recs) == 0 {
			continue
		}
		start := 0
		if from := imgs[dst].nextExpected[src]; from > lk.base {
			start = int(from - lk.base)
		}
		for i := start; i < len(lk.recs); i++ {
			rec := &lk.recs[i]
			m := r.acquireMsg(mn, s)
			m.dst = dst
			m.seq = lk.base + uint64(i)
			m.size = rec.size
			m.category = rec.category
			m.inner = rec.inner
			m.payload = rec.payload
			m.attempts = 0
			m.acked = false
			if s.pending[dst] == nil {
				s.pending[dst] = make(map[uint64]*relMsg)
			}
			s.pending[dst][m.seq] = m
			replayed++
			r.xmit(mn, m)
		}
	}
	return replayed
}

// CkptStableTrim frees retained records that a completed snapshot round has
// made stable: every record below the receiver's captured cursor is part of
// the receiver's snapshot and will never need replaying.
func (l *Layer) CkptStableTrim(imgs []*RelImage) {
	n := l.rt.Nodes()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			lk := &l.ck.links[src][dst]
			cur := imgs[dst].nextExpected[src]
			if cur <= lk.base || len(lk.recs) == 0 {
				continue
			}
			drop := int(cur - lk.base)
			if drop > len(lk.recs) {
				drop = len(lk.recs)
			}
			lk.recs = append(lk.recs[:0:0], lk.recs[drop:]...)
			lk.base += uint64(drop)
		}
	}
}

// SendCkpt transmits a checkpoint-protocol control message (marker or
// snapshot acknowledgment) from src to dst through the reliable layer. The
// message shares the link's data sequence space: it is delivered exactly
// once, in order with the data stream, which gives markers the FIFO property
// the consistency of the cut depends on. fn runs at the receiver when the
// message is polled.
func (l *Layer) SendCkpt(src, dst, extraBytes int, fn func()) {
	n := l.rt.NodeRT(src)
	mn := n.MachineNode()
	mn.Charge(l.cost().RemoteSendSetup)
	l.profCharge(mn, profile.Ckpt, l.cost().RemoteSendSetup)
	w := l.acquireWire(src)
	w.kind = wmCkpt
	w.src = src
	w.load = l.piggyback(src)
	w.then = fn
	l.launch(mn, w, dst, packetHeaderBytes+extraBytes, CatCkpt)
}
