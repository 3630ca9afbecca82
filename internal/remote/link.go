package remote

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/sim"
)

// linkInline is the inline capacity of a link's in-flight window and of its
// open batch. Under random placement a node talks to most of the machine
// but has only a record or two outstanding per peer, so a link that
// allocated backing for either on first use would pay more for its buffers
// than for its traffic.
const linkInline = 4

// link is everything one node keeps about one peer for the reliable,
// delayed-ack and batching layers: created on first contact in either
// direction, carved from the node's slab, never released. Only the owning
// node's lane touches it — acknowledgments arrive back on the sender's lane.
type link struct {
	mn   *machine.Node // the owning node
	peer int
	next *link // the owner's links, in first-contact order
	free *link // the slab's; links are never released

	// Sending half of the reliable protocol (owner -> peer).
	nextSeq uint64
	base    uint64    // sequence number of win[0]
	win     []*relMsg // in flight, indexed by seq-base; nil once acknowledged
	ret     retainLink

	// Receiving half (peer -> owner): the delivery cursor and the arrivals
	// held beyond a gap, sorted by sequence number.
	nextExpected uint64
	held         []*machine.Packet

	// Delayed-ack ledger of the inbound direction.
	cum       uint64   // every seq < cum has arrived here
	above     []uint64 // sorted arrived seqs beyond a gap
	owed      int      // arrivals not yet acknowledged
	owedSince sim.Time // arrival time of the first owed copy

	// Open batch of the outbound direction.
	pkts       []*machine.Packet // pending records, in enqueue (= seq) order
	bytes      int               // sum of the records' standalone wire sizes
	firstClock sim.Time          // sender clock when the batch was opened
	maxClock   sim.Time          // latest sender clock among enqueued records
	timer      sim.Timer         // the batch's flush deadline

	winBuf [linkInline]*relMsg
	pktBuf [linkInline]*machine.Packet
}

// PoolLink names the intrusive link for sim.Slab.
func (k *link) PoolLink() **link { return &k.free }

// peers is one node's state for those layers: its link records — a table
// indexed by peer, allocated with the first record, and the records chained
// in first-contact order — and its share of the reliable protocol.
type peers struct {
	links              []*link
	linkHead, linkTail *link
	linkSlab           sim.Slab[link, *link]
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
		k = ns.linkSlab.Get()
		k.mn, k.peer = l.m.Node(node), peer
		k.win, k.pkts = k.winBuf[:0], k.pktBuf[:0]
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

// track enters m into the in-flight window. A send carries the link's next
// sequence number and lands at the end; only a rollback's replay re-pends
// older numbers, possibly after a send of the restored timeline got in first.
// It may even re-pend that send's own number — the send was retained before
// the replay ran. The replayed record then takes the entry, as it would a map
// key, and the first lives on in the retry schedule alone.
func (k *link) track(m *relMsg) {
	if len(k.win) == 0 {
		k.base = m.seq
	} else if m.seq < k.base {
		k.win = slices.Insert(k.win, 0, make([]*relMsg, k.base-m.seq)...)
		k.base = m.seq
	}
	if i := m.seq - k.base; i < uint64(len(k.win)) {
		k.win[i] = m
	} else {
		k.win = append(k.win, m)
	}
}

// inflight returns the unacknowledged record with the given sequence number.
func (k *link) inflight(seq uint64) *relMsg {
	if i := seq - k.base; i < uint64(len(k.win)) {
		return k.win[i]
	}
	return nil
}

// untrack clears the window's entry for seq — whichever record holds it (see
// track) — and slides the window past every leading gap, keeping its backing.
func (k *link) untrack(seq uint64) {
	if i := seq - k.base; i < uint64(len(k.win)) {
		k.win[i] = nil
	}
	lead := 0
	for lead < len(k.win) && k.win[lead] == nil {
		lead++
	}
	if lead > 0 {
		n := copy(k.win, k.win[lead:])
		clear(k.win[n:])
		k.win = k.win[:n]
		k.base += uint64(lead)
	}
}
