package remote

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// link is what one node keeps about one peer for the reliable, delayed-ack
// and batching layers that a message on a lossless link touches: one cache
// line, created on first contact in either direction, carved on the owning
// node's lane, never released. Only that lane touches it —
// acknowledgments arrive back on the sender's lane.
type link struct {
	peer         int32
	owed         int32      // delayed-ack ledger: arrivals not yet acknowledged
	nextSeq      uint64     // the next sequence number owner -> peer
	nextExpected uint64     // the delivery cursor peer -> owner
	cum          uint64     // every seq < cum has arrived here
	owedSince    sim.Time   // arrival time of the first owed copy
	head         *relMsg    // in flight, chained through wnext in sequence order
	batch        *openBatch // the outbound open batch or its pending deadline
	next         *link      // the owner's links, in first-contact order
}

// linkCold is what only faults and checkpoints need of a link, made on first
// use: a fault-free, checkpoint-free run makes none.
type linkCold struct {
	held  []*machine.Packet // arrivals beyond a gap, sorted by sequence number
	above []uint64          // sorted arrived seqs beyond a gap in the ack ledger
	ret   retainLink
}

// openBatch is a link's open batch and its flush deadline, lent to the link
// while either lasts — a deadline left by an early flush serves the link's
// next batch. An idle record is chained through next. The pending records
// are chained through their own headers' pool link (machine.Packet.Next),
// free while a packet is out of its pool: the batch holds no slice of them.
type openBatch struct {
	deadline[openBatch]
	k          *link
	head, tail *machine.Packet // pending records, in enqueue (= seq) order
	n          int             // how many
	bytes      int             // sum of the records' standalone wire sizes
	firstClock sim.Time        // sender clock when the batch was opened
	maxClock   sim.Time        // latest sender clock among enqueued records
}

func (ob *openBatch) entry() *deadline[openBatch] { return &ob.deadline }

// peers is one node's state for those layers: its links (a table by peer and
// a chain in first-contact order), their cold records, its open batches and
// their flush deadlines, and its share of the reliable protocol.
type peers struct {
	links              []*link
	cold               []*linkCold // by peer; nil until a link needs one
	linkHead, linkTail *link
	idle               *openBatch
	flushes            deadlines[openBatch, *openBatch]
	rel                relNode
}

// link returns node's record for peer, creating it on first contact.
func (l *Layer) link(node, peer int) *link {
	ns := l.nodes[node]
	if ns.links == nil {
		ns.links = make([]*link, len(l.nodes))
	}
	k := ns.links[peer]
	if k == nil {
		k = l.links.New()
		k.peer = int32(peer)
		if ns.linkTail == nil {
			ns.linkHead = k
		} else {
			ns.linkTail.next = k
		}
		ns.linkTail = k
		ns.links[peer] = k
	}
	return k
}

// peer returns the record for peer if the two nodes have been in contact.
func (ns *nodeState) peer(peer int) *link {
	if ns.links == nil {
		return nil
	}
	return ns.links[peer]
}

// coldOf returns the cold record of the link to peer, nil if it has none.
func (p *peers) coldOf(peer int) *linkCold {
	if p.cold == nil {
		return nil
	}
	return p.cold[peer]
}

// coldFor is coldOf for an existing link, making the record on first use.
func (p *peers) coldFor(peer int) *linkCold {
	if p.cold == nil {
		p.cold = make([]*linkCold, len(p.links))
	}
	if p.cold[peer] == nil {
		p.cold[peer] = &linkCold{}
	}
	return p.cold[peer]
}

// eachLink visits the node's link records in first-contact order — the one
// way checkpoint images and teardown read them.
func (ns *nodeState) eachLink(visit func(*link)) {
	if ns.peers == nil {
		return
	}
	for k := ns.linkHead; k != nil; k = k.next {
		visit(k)
	}
}

// batchFor returns the open-batch record of mn's link k, lending it one if it
// has none.
func (l *Layer) batchFor(mn *machine.Node, k *link) *openBatch {
	if k.batch == nil {
		p := l.nodes[mn.ID].peers
		ob := p.idle
		if ob == nil {
			ob = l.batches.New()
		} else {
			p.idle, ob.next = ob.next, nil
		}
		ob.k, k.batch = k, ob
	}
	return k.batch
}

// closeBatch takes back k's empty record once its deadline is spent.
func (p *peers) closeBatch(k *link) {
	ob := k.batch
	k.batch, ob.k = nil, nil
	ob.next, p.idle = p.idle, ob
}

// find returns the place in k's in-flight chain that holds or would hold seq:
// a link has a record or two in flight on a lossless network.
func (k *link) find(seq uint64) **relMsg {
	at := &k.head
	for *at != nil && (*at).seq < seq {
		at = &(*at).wnext
	}
	return at
}

// track appends m to the in-flight chain: a send carries the link's next
// sequence number, and a rollback's replay re-pends in sequence order before
// anything else is sent.
func (k *link) track(m *relMsg) {
	at := &k.head
	for *at != nil {
		at = &(*at).wnext
	}
	*at = m
}

// untrack takes m out of the in-flight chain.
func (k *link) untrack(m *relMsg) {
	at := k.find(m.seq)
	*at, m.wnext = m.wnext, nil
}
