package remote

import (
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
)

// Optimistic-execution support: the inter-node layer's half of a lane's
// rollback snapshot, plus the pooling gates speculation requires.
//
// Record recycling (wireMsg payloads, wireBatch containers, relMsg
// retransmission records) is disabled in optimistic mode for the same reason
// checkpoint retention disables wire pooling: a rollback replays delivery
// events whose payload records must still hold their original content, and a
// speculative release would rewrite them. With pooling off, every record is
// immutable from fill to collection.
//
// The snapshot itself is lane-owned by construction: nodeState[n] and its
// link records are only touched from node n's lane (acks arrive back on the
// sender's lane), so each node's capture runs race-free on its own worker.
// Embedded sim.Timer values (batch flush, delayed ack) are restored by the
// engine's own timer snapshot, and the value copies taken here coincide with
// the engine's, both being taken at the same capture instant. The retry
// timer is the exception the copy is needed for: StartTimerAt queues it
// without a birth, so when it was idle at capture the engine holds no value
// to put back.

// EnableOptimistic switches the layer into optimistic-execution mode.
// Call before Run, after Attach and after the reliable protocol (if any)
// is configured.
func (l *Layer) EnableOptimistic() { l.optim = true }

// Optimistic reports whether the layer is in optimistic-execution mode.
func (l *Layer) Optimistic() bool { return l.optim }

// stockSnap is the captured state of one live chunk-stock entry; the entry
// pointer is kept because wire records reference entries by identity.
type stockSnap struct {
	e      *stockEntry
	seeded bool
	chunks []*core.Object
}

// linkSnap is the captured state of one link record: the record by value —
// cursors, ledger, slice headers, inline backing, flush timer — plus the
// contents of its slices (which later traffic may rewrite in place) and the
// values of its in-flight records.
type linkSnap struct {
	v     link
	win   []*relMsg
	recs  []relMsg // values of the non-nil entries of win, in order
	held  []*machine.Packet
	above []uint64
	pkts  []*machine.Packet
}

// NodeSnap is the layer-level rollback snapshot of one node.
type NodeSnap struct {
	rr, rrNext int
	rng        uint64
	loads      []loadSample
	sent       [3]uint64
	stock      []stockSnap
	locCache   map[core.Address]core.Address
	advert     map[advertKey]core.Address

	// Reliable, delayed-ack and batching state: the node's share by value
	// and its link records in first-contact order.
	rel    relNode
	owedTo []*link
	links  []linkSnap
}

// OptCaptureNode snapshots node's layer state for a speculative window.
// Runs on the worker goroutine that owns the node's lane.
func (l *Layer) OptCaptureNode(node int) *NodeSnap {
	ns := l.nodes[node]
	s := &NodeSnap{
		rr:     ns.rr,
		rrNext: ns.rrNext,
		rng:    ns.rng,
		loads:  append([]loadSample(nil), ns.loads...),
		sent:   ns.sent,
	}
	for _, e := range ns.stock {
		s.stock = append(s.stock, stockSnap{e: e, seeded: e.seeded,
			chunks: append([]*core.Object(nil), e.chunks...)})
	}
	if ns.locCache != nil {
		s.locCache = make(map[core.Address]core.Address, len(ns.locCache))
		for k, v := range ns.locCache {
			s.locCache[k] = v
		}
	}
	if ns.advert != nil {
		s.advert = make(map[advertKey]core.Address, len(ns.advert))
		for k, v := range ns.advert {
			s.advert[k] = v
		}
	}
	if ns.peers != nil {
		s.rel = ns.rel
		s.owedTo = slices.Clone(ns.rel.owedTo)
	}
	ns.eachLink(func(k *link) {
		sv := linkSnap{v: *k, win: slices.Clone(k.win), held: slices.Clone(k.held),
			above: slices.Clone(k.above), pkts: slices.Clone(k.pkts)}
		for _, m := range k.win {
			if m != nil {
				sv.recs = append(sv.recs, *m)
			}
		}
		s.links = append(s.links, sv)
	})
	return s
}

// OptRestoreNode rolls node's layer state back to its snapshot. Runs
// single-threaded at the window barrier. Snapshots are single-use: restored
// maps and slices are handed back to the live state by reference.
func (l *Layer) OptRestoreNode(node int, s *NodeSnap) {
	ns := l.nodes[node]
	ns.rr = s.rr
	ns.rrNext = s.rrNext
	ns.rng = s.rng
	copy(ns.loads, s.loads)
	ns.sent = s.sent
	known := make(map[*stockEntry]bool, len(s.stock))
	for _, es := range s.stock {
		known[es.e] = true
		es.e.seeded = es.seeded
		es.e.chunks = append(es.e.chunks[:0:0], es.chunks...)
	}
	// Entries materialized after the capture revert to empty; an empty
	// non-seeded entry behaves exactly like an absent key.
	for _, e := range ns.stock {
		if !known[e] {
			e.seeded = false
			e.chunks = nil
		}
	}
	ns.locCache = s.locCache
	ns.advert = s.advert
	if ns.peers != nil {
		ns.rel = s.rel
		copy(ns.rel.owedTo, s.owedTo)
	}
	i := 0
	ns.eachLink(func(k *link) {
		if i >= len(s.links) {
			// First contact was speculative: back to a fresh record, still
			// linked where it is (its timers were revoked with the lane's
			// birth log).
			*k = link{mn: k.mn, peer: k.peer, next: k.next}
			k.win, k.pkts = k.winBuf[:0], k.pktBuf[:0]
			return
		}
		sv := &s.links[i]
		i++
		sv.v.next = k.next
		clear(k.ret.recs[min(len(sv.v.ret.recs), len(k.ret.recs)):])
		*k = sv.v
		copy(k.win, sv.win)
		copy(k.held, sv.held)
		copy(k.above, sv.above)
		copy(k.pkts, sv.pkts)
		recs := sv.recs
		for _, m := range k.win {
			if m != nil {
				*m, recs = recs[0], recs[1:]
			}
		}
	})
}
