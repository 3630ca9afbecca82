package remote

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Reliable delivery over a faulty interconnect.
//
// The paper assumes the AP1000's hardware delivers every packet exactly once
// and in per-link FIFO order, and the whole runtime above (message
// transmission, chunk-stock refill, reply delivery) leans on that
// guarantee. When the machine injects link faults, this file restores the
// same contract in software so no method-body code changes:
//
//   - every data packet (categories 1-3 and 7) carries a per-(src,dst)
//     sequence number (relHeaderBytes on the wire);
//   - the sender keeps the packet until acknowledged, retransmitting on an
//     exponential-backoff timer in virtual time;
//   - the receiver acknowledges every copy it sees, suppresses duplicates,
//     and holds out-of-order arrivals until the gap fills, delivering
//     strictly in sequence order per link.
//
// Acks are plain packets (category 5) outside the protocol: a lost ack is
// repaired by the data retransmission it fails to cancel, and a duplicated
// ack is idempotent at the sender. In-order delivery means the handlers
// above observe exactly the fault-free machine's semantics — only timing
// and packet counts differ.
//
// With Options.AckDelay set, per-copy acks are replaced by *cumulative*
// acknowledgments: the receiver's controller records which sequence numbers
// have physically arrived per inbound link and, on a delayed-ack timer (or
// piggybacked on a reverse-direction batch), tells the sender "everything
// below cum has arrived, plus these out-of-order seqs". Dedup, reordering
// and retransmission semantics are unchanged — only the ack traffic shrinks.

// relHeaderBytes models the sequence number + flags added to every reliable
// data packet.
const relHeaderBytes = 8

// ackBytes is the wire size of an acknowledgment packet.
const ackBytes = packetHeaderBytes + 8

// maxSelAcks caps the selective (out-of-order) seq list carried by one
// cumulative acknowledgment; arrivals beyond the cap are re-acked by a later
// ack or repaired by retransmission.
const maxSelAcks = 32

// retryList is one node's retry deadlines, earliest first, and the one timer
// that stands at the first (armed) at its reserved position: each fires
// exactly where a timer per record would have, from one queued slot. An ack
// takes a record's deadline off the list, so the timer moves.
type retryList struct {
	head, tail, armed *relMsg
	timer             sim.Timer
}

// add gives m a deadline at due, reserving the position a timer armed now
// would take. Deadlines mostly come in order, so the list is
// searched from its far end; a new position is later than every earlier one,
// so among equal times m goes last.
func (s *retryList) add(eng *sim.Engine, m *relMsg, due sim.Time) {
	m.due = due
	eng.ReserveSeq(&m.dueSeq)
	after := s.tail
	for after != nil && after.due > due {
		after = after.prev
	}
	if m.prev = after; after == nil {
		m.next, s.head = s.head, m
	} else {
		m.next, after.next = after.next, m
	}
	if m.next == nil {
		s.tail = m
	} else {
		m.next.prev = m
	}
}

// remove takes m's deadline off the list.
func (s *retryList) remove(m *relMsg) {
	if m.prev == nil {
		s.head = m.next
	} else {
		m.prev.next = m.next
	}
	if m.next == nil {
		s.tail = m.prev
	} else {
		m.next.prev = m.prev
	}
	m.prev, m.next, m.due = nil, nil, 0
}

// follow keeps the timer at the earliest deadline, or stops it when there
// is none; kind's handler gets arg and takes the record off with fired.
func (s *retryList) follow(eng *sim.Engine, mn *machine.Node, kind sim.Kind, arg any) {
	m := s.head
	if m == s.armed {
		return
	}
	if s.armed = m; m == nil {
		s.timer.Stop()
		return
	}
	eng.StartTimerAt(mn.Lane(), &s.timer, m.due, m.dueSeq, kind, arg)
}

// fired takes the deadline the timer stood at off the list and returns its
// record.
func (s *retryList) fired() *relMsg {
	m := s.armed
	s.armed = nil
	s.remove(m)
	return m
}

// relMsg is one unacknowledged in-flight message at its sender, slab-backed
// and chained from its link. It carries no timer, only its retry deadline; it
// leaves the node's retry list before it is released, so the list's next
// doubles as the slab's link. It keeps its record's size and category: a
// pooled record is recycled once delivered, possibly before the ack comes
// back, so a retransmission must not read it.
type relMsg struct {
	prev, next *relMsg  // neighbours on the node's retry list
	due        sim.Time // retry deadline of the current attempt; 0 off the list
	dueSeq     uint64   // its reserved position among equal-time events
	wnext      *relMsg  // the link's in-flight chain
	seq        uint64
	payload    *core.Frame // the record, forwarded to every attempt's packet
	size       int32       // wire size including relHeaderBytes
	dst        int32
	attempts   int32
	category   uint8
}

// PoolLink names the intrusive link for sim.Slab.
func (m *relMsg) PoolLink() **relMsg { return &m.next }

// relNode is one node's share of the protocol beyond its link records: the
// retry schedule and the delayed-ack schedule.
type relNode struct {
	retries  retryList
	owedTo   []*link // links with owed arrivals, in first-owed order
	ackArmed bool    // the delayed-ack deadline is queued
}

// selFrame carries the selective list of a cumulative acknowledgment beside
// the payload of the packet whose Ack word holds the cursor (see carry). A
// list is non-empty only after a gap, so a lossless run makes none.
type selFrame struct {
	payload any
	sel     []uint64
}

// reliable is the machine-wide protocol configuration (one instance per
// Layer); the state lives in the nodes' link records and relNodes.
type reliable struct {
	l        *Layer
	ackDelay sim.Time                  // > 0 enables cumulative delayed acks
	msgs     sim.Slab[relMsg, *relMsg] // in-flight records

	// Every protocol packet dispatches through these, bound once: what a
	// packet means rides in its header word and payload.
	hPolled                func(*machine.Node, *machine.Packet)
	hArrive, hAck, hAckCum machine.Hook // controller hooks
	wakeKind, ackKind      sim.Kind     // deadline callbacks; arg: *nodeState
}

func newReliable(l *Layer) *reliable {
	r := &reliable{l: l, ackDelay: max(l.opt.AckDelay, 0)}
	r.hPolled, r.hArrive = r.receive, l.m.RegisterHook(r.dataArrived)
	r.hAck = l.m.RegisterHook(func(sn *machine.Node, p *machine.Packet) { r.ackReceived(sn, int(p.Src), p.Seq, p.Seq+1, nil) })
	r.hAckCum = l.m.RegisterHook(r.takeAck)
	r.wakeKind = l.m.Eng.Register(func(_ int, _ sim.Time, arg any) { r.wake(arg.(*nodeState)) })
	r.ackKind = l.m.Eng.Register(func(_ int, _ sim.Time, arg any) { r.flushAcks(arg.(*nodeState)) })
	return r
}

// finish takes an acknowledged record out of its link's chain and off the
// retry list, and recycles it. The caller moves the retry timer, once for
// however many records it finishes.
func (r *reliable) finish(ns *nodeState, k *link, m *relMsg) {
	k.untrack(m)
	if m.due != 0 {
		ns.rel.retries.remove(m)
	}
	r.msgs.Put(m)
}

// schedule keeps the node's retry timer at its earliest deadline.
func (r *reliable) schedule(ns *nodeState) {
	ns.rel.retries.follow(r.l.m.Eng, r.l.m.Node(ns.id), r.wakeKind, ns)
}

// send assigns the next sequence number on the (src, dst) link, records the
// message as in-flight, and transmits the first copy. On a machine without a
// fault model or checkpoint retention the first copy is the record's own
// header: nothing duplicates, delays past a later copy or replays it there,
// so the header is never in flight twice, and a retransmission follows it on
// the same FIFO link. Every other attempt travels under a pooled copy.
func (r *reliable) send(mn *machine.Node, w *core.Frame) {
	src, dst := mn.ID, w.Wire.Dst
	ns := r.l.nodes[src]
	k := r.l.link(src, dst)
	m := r.pend(ns, k, w, k.nextSeq)
	k.nextSeq++
	if r.l.ckpt != nil {
		ns.coldFor(dst).ret.retain(src, dst, m)
	}
	r.l.m.C.RelSent++
	var p *machine.Packet
	if r.l.ckpt == nil && r.l.m.Faults() == nil {
		p = &w.Wire
	}
	r.xmit(mn, ns, m, p, k)
}

// pend makes w the in-flight message seq on k.
func (r *reliable) pend(ns *nodeState, k *link, w *core.Frame, seq uint64) *relMsg {
	m := r.msgs.Get()
	m.dst = k.peer
	m.seq = seq
	m.size = w.Wire.Size + relHeaderBytes
	m.category = w.Wire.Category
	m.payload = w
	k.track(m)
	return m
}

// xmit transmits one copy of m and sets the retry deadline of the attempt.
// The copy travels under p, m's record's own header, or under a pooled
// packet when p is nil. k is m's link, or nil to have the batcher look it up.
func (r *reliable) xmit(mn *machine.Node, ns *nodeState, m *relMsg, p *machine.Packet, k *link) {
	if p == nil {
		p = mn.AcquirePacket()
		p.Dst = int(m.dst)
		p.Category = m.category
		p.Payload = m.payload
	}
	p.Size = m.size
	p.Seq = m.seq
	// The receiving message controller acknowledges every physical copy the
	// instant it arrives, independent of how backlogged or paused the
	// receiving processor is.
	p.OnArrive = r.hArrive
	p.Handler = r.hPolled
	arrival, batched := r.l.send(mn, p, k)
	// Six doublings already pass the cap, so the shift never overflows.
	backoff := min(DefaultRetryTimeout<<min(m.attempts, 6), DefaultMaxBackoff)
	// Time out relative to the copy's scheduled arrival (which includes
	// link queueing), not the send instant — a congested link must not
	// trigger spurious retransmissions. A dropped copy times out from now.
	// Delayed acks and batching defer the acknowledgment further: budget
	// the ack delay, and for a batched copy (whose departure is unknown
	// until its batch flushes) the full window plus the wire latency.
	delay := backoff + r.ackDelay
	if batched {
		// The copy departs with its batch: no later than the record's write
		// clock plus the window (the batcher bounds the clock spread), plus
		// the wire time of a full batch as a conservative transit bound.
		delay += r.l.bat.window + r.l.m.Cfg.Net.Latency(mn.Hops(int(m.dst)), r.l.bat.maxBytes)
		if ahead := mn.Clock - mn.EventNow(); ahead > 0 {
			delay += ahead
		}
	} else if now := mn.EventNow(); arrival > now {
		delay += arrival - now
	}
	// The deadline takes the place in the event order a timer armed here
	// would take.
	ns.rel.retries.add(r.l.m.Eng, m, mn.EventNow()+delay)
	r.schedule(ns)
}

// wake fires at the node's earliest retry deadline.
func (r *reliable) wake(ns *nodeState) {
	m := ns.rel.retries.fired()
	r.retry(r.l.m.Node(ns.id), ns, m)
	r.schedule(ns)
}

// retry runs when m's ack deadline expires: retransmit with backoff. A
// record is retransmitted until an ack finishes it.
func (r *reliable) retry(mn *machine.Node, ns *nodeState, m *relMsg) {
	if mn.Down(mn.EventNow()) {
		// The sender is inside a crash outage: a dead node transmits nothing.
		// The record stays in flight without a deadline; the restart's global
		// restore re-pends and retransmits everything the restored cut still
		// owes.
		return
	}
	m.attempts++
	// The timer expired on a possibly idle node: bring its clock up to the
	// timeout instant, then charge the software cost of the retransmission.
	mn.SyncClock(mn.EventNow())
	mn.ChargeTo(profile.Retransmit, r.l.cost().RemoteSendSetup)
	mn.CountPacket(profile.Retransmit, int(m.size), mn.Now())
	if r.l.rt.Tracing() {
		r.l.rt.Tracef(mn.Now(), mn.ID, trace.EvRetry,
			"retransmit seq %d to n%d (attempt %d)", m.seq, m.dst, m.attempts+1)
	}
	r.xmit(mn, ns, m, nil, nil)
}

// dataArrived is the controller hook of every data packet copy: a
// piggybacked acknowledgment is consumed, and the copy itself acknowledged
// (or noted for a cumulative ack).
func (r *reliable) dataArrived(rn *machine.Node, p *machine.Packet) {
	if p.HasAck {
		r.takeAck(rn, p)
	}
	if r.ackDelay > 0 {
		r.noteArrival(rn, int(p.Src), p.Seq)
	} else {
		r.sendAck(rn, int(p.Src), p.Seq, p.Arrival)
	}
}

// receive is the poll-time handler of every data packet copy: suppress
// duplicates, and deliver in sequence order.
func (r *reliable) receive(rn *machine.Node, pkt *machine.Packet) {
	src, seq := int(pkt.Src), pkt.Seq
	k := r.l.link(rn.ID, src)
	ns := r.l.nodes[rn.ID]
	c := &r.l.m.C

	next := k.nextExpected
	switch {
	case seq < next:
		c.DupSuppressed++
		if r.l.rt.Tracing() {
			r.l.rt.Tracef(rn.Now(), rn.ID, trace.EvDupMsg, "drop dup seq %d from n%d", seq, src)
		}
	case seq == next:
		r.deliver(rn, c, pkt)
		k.nextExpected++
		// Flush any consecutive held messages the gap was blocking.
		for lc := ns.coldOf(src); lc != nil && len(lc.held) > 0 && lc.held[0].Seq == k.nextExpected; {
			h := lc.held[0]
			lc.held = slices.Delete(lc.held, 0, 1)
			r.deliver(rn, c, h)
			k.nextExpected++
		}
	default: // seq > next: a gap — hold for in-order delivery
		lc := ns.coldFor(src)
		i, dup := slices.BinarySearchFunc(lc.held, seq, func(h *machine.Packet, seq uint64) int {
			return cmp.Compare(h.Seq, seq)
		})
		if dup {
			c.DupSuppressed++
			if r.l.rt.Tracing() {
				r.l.rt.Tracef(rn.Now(), rn.ID, trace.EvDupMsg, "drop dup held seq %d from n%d", seq, src)
			}
			return
		}
		// The packet outlives this handler; keep it out of the pool.
		pkt.Retain()
		lc.held = slices.Insert(lc.held, i, pkt)
		c.HeldOutOfOrder++
		if r.l.rt.Tracing() {
			r.l.rt.Tracef(rn.Now(), rn.ID, trace.EvHold,
				"hold seq %d from n%d (awaiting %d)", seq, src, next)
		}
	}
}

// deliver hands one in-order message to the layer's receive handler, after
// its colour in checkpoint mode (ckpt.go).
func (r *reliable) deliver(rn *machine.Node, c *stats.Counters, pkt *machine.Packet) {
	if ck := r.l.ckpt; ck != nil {
		ck.Colour(rn.ID, int(pkt.Src), pkt.Seq)
	}
	c.RelDelivered++
	r.l.handleWire(rn, pkt)
}

// ack returns a category-5 acknowledgment packet to dst. Acks are generated
// and consumed by the message controllers — they occupy wire bandwidth but no
// processor time — and ride the faulty interconnect unprotected: a lost ack
// is repaired by the data retransmission it fails to cancel, a duplicated ack
// is idempotent.
func (r *reliable) ack(rn *machine.Node, dst, size int, h machine.Hook) *machine.Packet {
	p := rn.AcquirePacket()
	p.Dst = dst
	p.Size = int32(size)
	p.Category = CatAck
	p.Ctrl = true
	p.OnArrive = h
	return p
}

// sendAck acknowledges one copy of (src link, seq) the instant it arrives.
func (r *reliable) sendAck(rn *machine.Node, src int, seq uint64, at sim.Time) {
	rn.CountPacket(profile.Ack, ackBytes, at)
	p := r.ack(rn, src, ackBytes, r.hAck)
	p.Seq = seq
	rn.ControllerSend(at, p)
}

// carry puts a cumulative acknowledgment on p: the cursor in its Ack word,
// and a selective list in a frame beside its payload.
func carry(p *machine.Packet, cum uint64, sel []uint64) {
	p.Ack, p.HasAck = cum, true
	if len(sel) > 0 {
		p.Payload = &selFrame{payload: p.Payload, sel: slices.Clone(sel)}
	}
}

// takeAck consumes the cumulative acknowledgment p carries for the reverse
// direction, unwrapping p's payload from a selective list's frame. It runs
// at p's arrival, before anything reads the payload.
func (r *reliable) takeAck(rn *machine.Node, p *machine.Packet) {
	var sel []uint64
	if f, ok := p.Payload.(*selFrame); ok {
		p.Payload, sel = f.payload, f.sel
	}
	r.ackReceived(rn, int(p.Src), 0, p.Ack, sel)
}

// selAcks returns the out-of-order arrivals a cumulative ack to peer lists
// beside its cursor (a view into the ledger, to be copied by the caller).
func (ns *nodeState) selAcks(peer int32) []uint64 {
	if lc := ns.coldOf(int(peer)); lc != nil {
		return lc.above[:min(len(lc.above), maxSelAcks)]
	}
	return nil
}

// noteArrival records the controller-level arrival of seq on the src link
// and schedules a cumulative acknowledgment instead of acking the copy
// immediately. Runs in the data packet's OnArrive hook.
func (r *reliable) noteArrival(rn *machine.Node, src int, seq uint64) {
	k := r.l.link(rn.ID, src)
	ns := r.l.nodes[rn.ID]
	switch {
	case seq == k.cum:
		k.cum++
		if lc := ns.coldOf(src); lc != nil {
			ab := lc.above
			for len(ab) > 0 && ab[0] == k.cum {
				ab = ab[1:]
				k.cum++
			}
			lc.above = ab
		}
	case seq > k.cum:
		lc := ns.coldFor(src)
		if i, ok := slices.BinarySearch(lc.above, seq); !ok {
			lc.above = slices.Insert(lc.above, i, seq)
		}
		// seq < cum: a duplicate copy; the pending cumulative ack covers it.
	}
	n := &ns.rel
	if k.owed == 0 {
		if len(n.owedTo) == cap(n.owedTo) {
			// Grown as append would, but into a carved list: the one it
			// leaves is never reused.
			grown := r.l.owedLists.Slice(max(2*cap(n.owedTo), 4))[:len(n.owedTo)]
			copy(grown, n.owedTo)
			n.owedTo = grown
		}
		n.owedTo = append(n.owedTo, k)
		k.owedSince = rn.EventNow()
	}
	k.owed++
	if !n.ackArmed {
		r.armAck(rn, ns, rn.EventNow()+r.ackDelay)
	}
}

// armAck queues the node's delayed-ack deadline at due. Nothing moves or
// cancels it once queued.
func (r *reliable) armAck(rn *machine.Node, ns *nodeState, due sim.Time) {
	ns.rel.ackArmed = true
	r.l.m.Eng.ScheduleOn(rn.Lane(), rn.Lane(), due, r.ackKind, ns)
}

// flushAcks emits the owed acknowledgments of every inbound link whose delay
// has elapsed. It fires at the delayed-ack deadline; links already covered
// by a piggybacked ack since the deadline was queued are skipped, and links
// whose first owed arrival is more recent than the ack delay keep waiting
// (the deadline is queued again for the earliest of them), preserving each
// link's full coalescing and piggybacking window.
func (r *reliable) flushAcks(ns *nodeState) {
	rn := r.l.m.Node(ns.id)
	n := &ns.rel
	n.ackArmed = false
	now := rn.EventNow()
	if rn.Down(now) {
		// Dead controllers acknowledge nothing; the crash discarded the owed
		// arrivals along with the rest of the node, and the restore resets
		// this ledger from the restored cursors.
		return
	}
	kept := n.owedTo[:0]
	var nextDue sim.Time = -1
	for _, k := range n.owedTo {
		if k.owed == 0 {
			continue
		}
		due := k.owedSince + r.ackDelay
		if due <= now {
			r.emit(rn, ns, k, now)
			continue
		}
		kept = append(kept, k)
		if nextDue < 0 || due < nextDue {
			nextDue = due
		}
	}
	clear(n.owedTo[len(kept):])
	n.owedTo = kept
	if nextDue >= 0 {
		r.armAck(rn, ns, nextDue)
	}
}

// emit sends one cumulative acknowledgment packet for k's inbound direction,
// replacing owed-1 individual ack packets. Like per-copy acks it is
// controller traffic: wire bandwidth, no processor time.
func (r *reliable) emit(rn *machine.Node, ns *nodeState, k *link, at sim.Time) {
	rcv, src := rn.ID, int(k.peer)
	sel := ns.selAcks(k.peer)
	size := ackBytes + 8*len(sel)
	owed := k.owed
	k.owed = 0
	rn.CountPacket(profile.Ack, size, at)
	if owed > 1 {
		r.l.m.C.AcksCoalesced += uint64(owed - 1)
		if r.l.rt.Tracing() {
			r.l.rt.Tracef(at, rcv, trace.EvAckCoalesce,
				"cum ack %d to n%d covers %d arrivals", k.cum, src, owed)
		}
	}
	p := r.ack(rn, src, size, r.hAckCum)
	carry(p, k.cum, sel)
	rn.ControllerSend(at, p)
}

// owes reports how many arrivals mn still owes the peer of its link k an
// acknowledgment for that a carrier departing at the given instant may take
// along — zero when acks are immediate, nothing is owed, or the carrier
// departs later than the standalone delayed ack would: stealing the owed
// acks then would stretch the ack latency past the bound the retransmission
// timeout budgets.
func (r *reliable) owes(mn *machine.Node, k *link, at sim.Time) (owed int32, sel []uint64) {
	if r.ackDelay == 0 || k.owed == 0 || at > k.owedSince+r.ackDelay {
		return 0, nil
	}
	owed, sel = k.owed, r.l.nodes[mn.ID].selAcks(k.peer)
	k.owed = 0
	r.l.m.C.AcksCoalesced += uint64(owed)
	r.l.m.Counts().Bytes[profile.Ack] += uint64(8 + 8*len(sel))
	return owed, sel
}

// piggybackOnPacket attaches the acknowledgments this node owes p's
// destination, the peer of its link k, to p — a lone data packet or a batch
// frame departing at the given instant — replacing the owed standalone ack
// packets entirely, and grows p's wire size by the ack framing.
func (r *reliable) piggybackOnPacket(mn *machine.Node, k *link, p *machine.Packet, at sim.Time) {
	owed, sel := r.owes(mn, k, at)
	if owed == 0 {
		return
	}
	carry(p, k.cum, sel)
	p.Size += int32(8 + 8*len(sel))
	if r.l.rt.Tracing() {
		what := "packet"
		if p.Category == CatBatch {
			what = "batch"
		}
		r.l.rt.Tracef(mn.EventNow(), mn.ID, trace.EvAckCoalesce,
			"piggyback ack %d on %s to n%d covers %d arrivals", k.cum, what, p.Dst, owed)
	}
}

// ackReceived runs at the sender's message controller for an acknowledgment
// from rcv: it completes every in-flight message on the link to rcv with
// lo <= seq < hi, and every selectively listed one, then moves the retry
// timer once — no event fires in between, so it lands where a move per
// message would have left it. Duplicate and stale acks are idempotent.
func (r *reliable) ackReceived(sn *machine.Node, rcv int, lo, hi uint64, sel []uint64) {
	ns := r.l.nodes[sn.ID]
	k := ns.peer(rcv)
	if k == nil {
		return
	}
	r.complete(sn, ns, k, lo, hi)
	for _, seq := range sel {
		r.complete(sn, ns, k, seq, seq+1)
	}
	r.schedule(ns)
}

// complete finishes k's in-flight messages with lo <= seq < hi.
func (r *reliable) complete(sn *machine.Node, ns *nodeState, k *link, lo, hi uint64) {
	for m := *k.find(lo); m != nil && m.seq < hi; m = *k.find(lo) {
		if r.l.rt.Tracing() {
			r.l.rt.Tracef(sn.EventNow(), sn.ID, trace.EvAck, "acked seq %d by n%d", m.seq, k.peer)
		}
		r.finish(ns, k, m)
	}
}

// Unacked reports the number of in-flight (sent but unacknowledged)
// messages across all nodes — zero at quiescence.
func (r *reliable) Unacked() int {
	total := 0
	for _, ns := range r.l.nodes {
		ns.eachLink(func(k *link) {
			for m := k.head; m != nil; m = m.wnext {
				total++
			}
		})
	}
	return total
}
