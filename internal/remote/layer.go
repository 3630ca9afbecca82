package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Handler categories (Section 5.1), recorded on packets for statistics.
const (
	CatMessage = 1 // normal message transmission between objects
	CatCreate  = 2 // request for remote object creation
	CatChunk   = 3 // reply to remote memory allocation request
	CatService = 4 // other services (load info is piggybacked instead)
	CatAck     = 5 // reliable-delivery acknowledgment (not in the paper)
	CatBatch   = 6 // multi-record hardware packet (per-link batching)
	CatCkpt    = 7 // checkpoint-protocol control (markers, snapshot acks)
)

// packetHeaderBytes models the paper's compact message format: "a total of
// 4 words including routing information, the mail address of the receiver
// object and the message argument" — routing plus handler address fit in
// 8 bytes, the receiver address and arguments are accounted separately.
const packetHeaderBytes = 8

// Options configures the inter-node layer.
type Options struct {
	// StockDepth is the number of pre-delivered chunks kept per
	// (target node, class) pair. Zero disables the stock entirely, forcing
	// every remote creation through a blocking round trip (the ablation
	// baseline for the paper's latency-hiding scheme).
	StockDepth int
	// Placement picks creation targets; nil means RoundRobin.
	Placement Placement
	// Seed initializes the deterministic per-node generators used by
	// randomized placement policies.
	Seed int64

	// Reliable enables the acknowledgment/retry protocol: every inter-node
	// packet carries a per-link sequence number, is retransmitted with
	// exponential backoff until acknowledged, and is deduplicated and
	// delivered in per-link FIFO order at the receiver. Required when the
	// machine injects link faults; off by default because the paper's
	// AP1000 interconnect is reliable and the protocol adds ack traffic.
	Reliable bool
	// BatchWindow enables per-link packet batching: wire records to the
	// same destination node within this virtual-time window coalesce into
	// one hardware packet, amortising the fixed launch latency. Zero
	// disables batching, keeping the wire path byte-identical to the
	// unbatched engine.
	BatchWindow sim.Time
	// BatchMaxBytes flushes an open batch early once its payload reaches
	// this size; zero selects DefaultBatchBytes.
	BatchMaxBytes int
	// AckDelay replaces the reliable layer's per-copy acknowledgments with
	// cumulative acks emitted on a delayed-ack timer and piggybacked on
	// reverse-direction batches. Effective only with Reliable; zero keeps
	// immediate per-packet acks.
	AckDelay sim.Time
	// NoLocationCache disables the remote-location cache that
	// short-circuits migration forwarders. The cache is on by default: it
	// is inert until an object migrates.
	NoLocationCache bool
}

// Reliable-delivery protocol constants. The base acknowledgment timeout
// before the first retransmission covers a small message's round trip
// (~2×1.5µs hardware + ~9µs software each way) with headroom for queueing at
// a loaded receiver; it doubles per attempt up to DefaultMaxBackoff, and
// after DefaultMaxAttempts transmissions the message is abandoned (counted
// in Counters.RelAbandoned, never silently).
const (
	DefaultRetryTimeout sim.Time = 60 * sim.Microsecond
	DefaultMaxBackoff   sim.Time = 2 * sim.Millisecond
	DefaultMaxAttempts           = 64
)

// DefaultOptions returns the configuration used by the paper-style runs.
func DefaultOptions() Options {
	return Options{StockDepth: DefaultStockDepth, Placement: RoundRobin{}, Seed: 1}
}

// Layer is the inter-node runtime: it implements core.Remote and owns the
// chunk stocks and placement state of every node.
type Layer struct {
	rt    *core.Runtime
	m     *machine.Machine
	opt   Options
	nodes []*nodeState
	rel   *reliable // nil unless Options.Reliable
	bat   *batcher  // nil unless Options.BatchWindow > 0
	ckpt  bool      // checkpoint mode: transmissions are retained (see ckpt.go)
	locOn bool      // remote-location cache enabled

	// hWire is the shared receive handler for all layer packets; the
	// per-send state travels in the *wireMsg around the packet header instead
	// of a freshly allocated closure. hBatchArr/hBatchDel are the shared
	// controller and poll handlers of CatBatch containers.
	hWire     func(*machine.Node, *machine.Packet)
	hBatchArr func(*machine.Node, *machine.Packet)
	hBatchDel func(*machine.Node, *machine.Packet)
}

// wireMsg is one layer message on the wire — the machine packet header it
// travels under and its decoded payload in a single record, so a hop is one
// acquire at the sender and one release at the receiver. Records are pooled:
// the sender fills one from its node's slab, handleWire recycles it into the
// receiving node's, so each pool is only touched by its own lane. The
// machine never recycles the embedded header (it is not AcquirePacket's);
// the reliable protocol sends per-attempt copies under headers of its own
// and leaves pkt unused after the hand-off. Recycling is skipped when the
// machine can duplicate packets (see wirePooled): a duplicated packet shares
// the record and the handler runs once per copy.
type wireMsg struct {
	pkt       machine.Packet // pkt.Payload points back at the record
	next      *wireMsg       // pool link
	kind      uint8
	load      int32
	src       int
	to        core.Address   // wmMessage: receiver
	pat       core.PatternID // wmMessage: pattern
	args      []core.Value   // message or constructor arguments (owned copy)
	argBuf    [2]core.Value  // inline store backing args for small lists
	replyTo   core.Address
	chunk     *core.Object // wmCreate: chunk to initialize; wmChunk: stock refill
	cl        *core.Class
	entry     *stockEntry        // requester's stock slot, carried through the round trip
	then      func()             // wmChunk: blocked-creation resume
	onCreated func(core.Address) // wmBlockingCreate: requester callback
}

const (
	wmMessage = uint8(iota + 1)
	wmCreate
	wmBlockingCreate
	wmChunk
	wmLocUpd // location update: `to` moved to `replyTo` (forward short-circuit)
	wmCkpt   // checkpoint-protocol control: `then` runs at the receiver
)

// setArgs copies args into the record — inline when they fit, a fresh slice
// otherwise. Senders hand the layer a transient slice (core.Remote's
// SendMessage contract stages arguments in a per-node scratch buffer), so
// the record must own its copy until delivery.
func (w *wireMsg) setArgs(args []core.Value) {
	switch {
	case len(args) == 0:
		w.args = nil
	case len(args) <= len(w.argBuf):
		nc := copy(w.argBuf[:], args)
		w.args = w.argBuf[:nc:nc]
	default:
		w.args = append([]core.Value(nil), args...)
	}
}

// wirePooled reports whether wireMsg records may be recycled: safe unless a
// fault model can hand a duplicated packet (and its shared Payload record)
// to the handler twice. The reliable protocol deduplicates by sequence
// number before the handler runs, so it restores pooling under faults.
func (l *Layer) wirePooled() bool {
	if l.ckpt {
		// Checkpoint retention holds payload records by reference until they
		// become stable; recycling would rewrite a record the replay path may
		// still need verbatim.
		return false
	}
	return l.m.Faults() == nil || l.rel != nil
}

// PoolLink names the intrusive link for sim.Slab.
func (w *wireMsg) PoolLink() **wireMsg { return &w.next }

// acquireWire returns a zeroed record — allocated singly when records are
// not recycled: one that never comes back must not pin a slab block.
func (l *Layer) acquireWire(src int) *wireMsg {
	if !l.wirePooled() {
		return &wireMsg{}
	}
	return l.nodes[src].wires.Get()
}

func (l *Layer) releaseWire(dst int, w *wireMsg) {
	if l.wirePooled() {
		l.nodes[dst].wires.Put(w)
	}
}

// launch fills w's embedded header and puts the record on the wire.
func (l *Layer) launch(mn *machine.Node, w *wireMsg, dst, size int, category int32) {
	pkt := &w.pkt
	pkt.Dst = dst
	pkt.Size = size
	pkt.Category = category
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(mn, pkt)
}

// handleWire is the single receive-side dispatcher for categories 1-3: the
// compiler-generated specialized handlers of Section 5.1, indexed by the
// payload's kind tag rather than modelled as per-send closures.
func (l *Layer) handleWire(rn *machine.Node, p *machine.Packet) {
	w := p.Payload.(*wireMsg)
	c := l.cost()
	extract := c.RemoteRecvExtract
	if l.nodes[rn.ID].batchPos > 1 {
		// Second-or-later record of a batched packet: the poll, header
		// parse and buffer management were paid by the first record.
		extract = c.BatchRecvExtract
	}
	l.noteLoad(rn.ID, w.src, w.load)
	nrt := l.rt.NodeRT(rn.ID)
	switch w.kind {
	case wmMessage:
		rn.ChargeTo(profile.RemoteRecv, extract+c.RemoteHandlerCall)
		if l.locOn {
			if fwd := w.to.Obj.ForwardTarget(); !fwd.IsNil() {
				// Stale address: the object migrated away. Tell the sender
				// where it lives now, then let the forwarder re-send.
				l.advertiseLocation(rn, w.src, w.to, fwd)
			}
		}
		nrt.DeliverFrame(w.to.Obj, nrt.NewFrame(w.pat, w.args, w.replyTo), true)
	case wmCreate:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		l.rt.InitChunk(nrt, w.chunk, w.cl, w.args)
		// Step 4: allocate the replacement chunk and return its address.
		rn.ChargeTo(profile.Create, c.ChunkRefill)
		l.sendChunkReply(nrt, w.src, nrt.NewFaultChunk(rn.ID), w.entry, nil)
	case wmBlockingCreate:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		created := nrt.NewFaultChunk(rn.ID)
		l.rt.InitChunk(nrt, created, w.cl, w.args)
		rn.ChargeTo(profile.Create, c.ChunkRefill)
		addr := created.Addr()
		onCreated := w.onCreated
		l.sendChunkReply(nrt, w.src, nrt.NewFaultChunk(rn.ID), w.entry, func() { onCreated(addr) })
	case wmLocUpd:
		rn.ChargeTo(profile.Forward, extract+c.RemoteHandlerCall)
		l.learnLocation(rn, w.to, w.replyTo)
	case wmCkpt:
		rn.SetPath(profile.Ckpt)
		rn.Charge(extract + c.RemoteHandlerCall)
		if w.then != nil {
			w.then()
		}
	case wmChunk:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.StockPush)
		if l.opt.StockDepth > 0 {
			// The stock is capped at its configured depth: a chunk that
			// would overfill it (after a miss) is simply dropped back to
			// the target's allocator. The entry pointer is the requester's
			// own slot, carried through the round trip — and this packet is
			// addressed to the requester, so the append stays lane-local.
			if e := w.entry; len(e.chunks) < l.opt.StockDepth {
				e.chunks = append(e.chunks, w.chunk)
			}
		}
		if w.then != nil {
			w.then()
		}
	default:
		panic(fmt.Sprintf("remote: unknown wire kind %d", w.kind))
	}
	l.releaseWire(rn.ID, w)
}

type stockKey struct {
	node int
	cls  *core.Class
}

// DefaultStockDepth is the stock depth of the paper-style runs (and the
// facade's default); a stock entry stores that many chunk addresses inline.
const DefaultStockDepth = 2

// stockEntry is one node's chunk stock for a (target, class) pair. The
// requester finds it through its stock map on every remote creation; the
// refill round trip carries the entry pointer itself, so the category-2/3
// handlers touch no maps. Entries are carved from the owning node's arena
// and never move, which is what lets chunks start out as a slice of the
// entry's own inline array; a deeper stock outgrows it onto the heap.
type stockEntry struct {
	seeded bool
	chunks []*core.Object
	inline [DefaultStockDepth]*core.Object
}

// stockBlock caps the stock-entry arena's blocks (see core's objectBlock).
const stockBlock = 32

// stockEntry returns (creating on first use) the stock slot for key.
func (ns *nodeState) stockEntry(key stockKey) *stockEntry {
	e := ns.stock[key]
	if e == nil {
		e = ns.entries.New(stockBlock)
		e.chunks = e.inline[:0]
		ns.stock[key] = e
	}
	return e
}

type nodeState struct {
	id      int
	rr      int
	rrNext  int
	rng     uint64
	stock   map[stockKey]*stockEntry
	entries sim.Arena[stockEntry] // backs stock's values (lane-local)
	loads   []int32               // per peer: last piggybacked scheduling-queue length

	*peers // nil unless the reliable protocol or batching is on (see link.go)

	wires     sim.Slab[wireMsg, *wireMsg] // recycled wire records (lane-local)
	batchFree []*wireBatch                // recycled batch containers, slices and all (lane-local)
	batchPos  int                         // 1-based record cursor while delivering a batch

	// Remote-location cache: stale address -> latest known home, filled by
	// wmLocUpd messages from forwarding nodes. advert is the forwarding
	// side: the location last advertised per (sender, migrated object), so
	// each sender is told about each migration generation exactly once.
	locCache map[core.Address]core.Address
	advert   map[advertKey]core.Address
}

type advertKey struct {
	src int
	obj *core.Object
}

func (ns *nodeState) nextRand() uint64 {
	// xorshift64: deterministic, node-local.
	x := ns.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ns.rng = x
	return x
}

func (ns *nodeState) knownLoad(node int, l *Layer) int {
	if node == ns.id {
		return l.rt.NodeRT(node).SchedQueueLen()
	}
	return int(ns.loads[node])
}

// Attach builds the layer and installs it into the runtime. Must run before
// the runtime freezes.
func Attach(rt *core.Runtime, opt Options) *Layer {
	if opt.Placement == nil {
		opt.Placement = RoundRobin{}
	}
	l := &Layer{rt: rt, m: rt.M, opt: opt, locOn: !opt.NoLocationCache}
	l.hWire = l.handleWire
	l.nodes = make([]*nodeState, rt.Nodes())
	for i := range l.nodes {
		l.nodes[i] = &nodeState{
			id:    i,
			rng:   uint64(opt.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1,
			stock: make(map[stockKey]*stockEntry),
			loads: make([]int32, rt.Nodes()),
		}
	}
	if opt.Reliable || opt.BatchWindow > 0 {
		for _, ns := range l.nodes {
			ns.peers = &peers{}
		}
	}
	if opt.Reliable {
		l.rel = newReliable(l)
	}
	if opt.BatchWindow > 0 {
		l.bat = newBatcher(l, opt.BatchWindow, opt.BatchMaxBytes)
		l.hBatchArr = l.handleBatchArrive
		l.hBatchDel = l.handleBatchDeliver
	}
	if rt.M.Faults() != nil && rt.M.FaultSink() == nil {
		rt.M.SetFaultSink(statsSink{l})
	}
	rt.SetRemote(l)
	return l
}

// statsSink attributes machine-level fault events to the affected node's
// counters and the trace ring. Drops and duplications are charged to the
// sending node; pauses to the paused node.
type statsSink struct{ l *Layer }

func (s statsSink) PacketDropped(src, dst int, at sim.Time, category int) {
	s.l.rt.NodeRT(src).C.LinkDrops++
	s.l.rt.Tracef(at, src, trace.EvLinkDrop, "dropped cat-%d packet to n%d", category, dst)
}

func (s statsSink) PacketDuplicated(src, dst int, at sim.Time, category int) {
	s.l.rt.NodeRT(src).C.LinkDups++
	s.l.rt.Tracef(at, src, trace.EvLinkDup, "duplicated cat-%d packet to n%d", category, dst)
}

func (s statsSink) NodePaused(node int, at, until sim.Time) {
	s.l.rt.NodeRT(node).C.NodePauses++
	s.l.rt.Tracef(at, node, trace.EvNodePause, "paused until %v", until)
}

// transmit sends a packet either directly over the machine's interconnect
// (through the per-link batcher when batching is on) or, when the reliable
// protocol is enabled, through the ack/retry layer. All inter-node traffic
// of the layer (categories 1-4) funnels through here.
func (l *Layer) transmit(mn *machine.Node, pkt *machine.Packet) {
	// Attribute the logical wire record once, here at the funnel; batch
	// containers and retransmitted copies are attributed at their own sites
	// so nothing is counted twice.
	if np := mn.Prof(); np != nil {
		np.Packet(pathForCategory(pkt.Category), pkt.Size, mn.Now())
	}
	if l.rel != nil {
		l.rel.send(mn, pkt)
		return
	}
	l.send(mn, pkt)
}

// Reliable reports whether the ack/retry protocol is active.
func (l *Layer) Reliable() bool { return l.rel != nil }

// pathForCategory maps a packet category to its attribution path.
func pathForCategory(cat int32) profile.Path {
	switch cat {
	case CatMessage:
		return profile.RemoteSend
	case CatCreate, CatChunk:
		return profile.Create
	case CatService:
		return profile.Forward
	case CatAck:
		return profile.Ack
	case CatCkpt:
		return profile.Ckpt
	}
	return profile.Other
}

// Placement returns the active placement policy.
func (l *Layer) Placement() Placement { return l.opt.Placement }

// StockDepth returns the configured chunk-stock depth.
func (l *Layer) StockDepth() int { return l.opt.StockDepth }

// cost returns the machine's instruction-cost table.
func (l *Layer) cost() *machine.Cost { return &l.m.Cfg.Cost }

// piggyback records the sender's load in the packet and, at delivery,
// updates the receiver's view — the category-4 load-monitoring service
// riding on every packet.
func (l *Layer) piggyback(src int) int32 {
	return int32(l.rt.NodeRT(src).SchedQueueLen())
}

// noteLoad stores a piggybacked load sample as the receiver's view of the
// sender.
func (l *Layer) noteLoad(dst, src int, load int32) {
	l.nodes[dst].loads[src] = load
}

// SendMessage implements core.Remote: category-1 normal message
// transmission. The compiler-generated specialized handler is modelled by a
// closure carrying the receiver and the typed arguments — no runtime tags
// travel on the wire (Section 5.1).
func (l *Layer) SendMessage(n *core.NodeRT, to core.Address, p core.PatternID, args []core.Value, replyTo core.Address) {
	src := n.ID()
	if ns := l.nodes[src]; len(ns.locCache) > 0 {
		if fresh, ok := ns.locCache[to]; ok {
			// Collapse chains left by repeated migrations, compressing the
			// path for subsequent sends.
			for hops := 0; hops < 8; hops++ {
				next, ok := ns.locCache[fresh]
				if !ok {
					break
				}
				fresh = next
			}
			ns.locCache[to] = fresh
			n.C.LocCacheHits++
			to = fresh
			if to.Node == src {
				// The object migrated to this very node: re-enter the local
				// send path instead of putting a packet on the wire.
				n.Send(to, p, args, replyTo)
				return
			}
		}
	}
	c := l.cost()
	mn := n.MachineNode()
	mn.ChargeTo(profile.RemoteSend, c.RemoteSendSetup)
	if np := mn.Prof(); np != nil {
		np.CountEvent(profile.RemoteSend, mn.Now())
	}
	size := packetHeaderBytes + core.ArgsSize(args)
	if !replyTo.IsNil() {
		size += 8
	}
	w := l.acquireWire(src)
	w.kind = wmMessage
	w.src = src
	w.load = l.piggyback(src)
	w.to = to
	w.pat = p
	w.setArgs(args)
	w.replyTo = replyTo
	l.launch(mn, w, to.Node, size, CatMessage)
}

// Create implements core.Remote: remote object creation with latency hiding
// (Section 5.2). The placement policy picks a target; a same-node pick is a
// plain local create. Otherwise the mail address is obtained locally from
// the chunk stock and k continues immediately; only on an empty stock does
// the creating object block for a round trip.
func (l *Layer) Create(ctx *core.Ctx, cl *core.Class, ctorArgs []core.Value, k func(*core.Ctx, core.Address)) {
	target := l.opt.Placement.Pick(l, ctx.NodeID(), cl)
	l.CreateOn(ctx, target, cl, ctorArgs, k)
}

// CreateOn creates an object on an explicit target node.
func (l *Layer) CreateOn(ctx *core.Ctx, target int, cl *core.Class, ctorArgs []core.Value, k func(*core.Ctx, core.Address)) {
	if target == ctx.NodeID() {
		k(ctx, ctx.NewLocal(cl, ctorArgs...))
		return
	}
	n := ctx.NodeRT()
	mn := n.MachineNode()
	c := l.cost()
	ns := l.nodes[n.ID()]
	e := ns.stockEntry(stockKey{node: target, cls: cl})

	if !e.seeded && l.opt.StockDepth > 0 {
		// Pre-delivery: at boot every node receives an initial stock of
		// chunk addresses for its peers. Modelled as already present (the
		// paper's "predelivered stocks") and materialized, all StockDepth of
		// them at once, on the pair's first creation, so memory follows the
		// pairs that communicate. The chunks are homed on the target but
		// carved from this node's arena: the target's lane may be running.
		e.seeded = true
		for i := 0; i < l.opt.StockDepth; i++ {
			e.chunks = append(e.chunks, n.NewFaultChunk(target))
		}
	}

	if len(e.chunks) > 0 {
		chunk := e.chunks[len(e.chunks)-1]
		e.chunks = e.chunks[:len(e.chunks)-1]
		mn.ChargeTo(profile.Create, c.StockPop)
		if np := mn.Prof(); np != nil {
			np.CountEvent(profile.Create, mn.Now())
		}
		n.C.StockHits++
		n.C.RemoteCreations++
		l.sendCreateRequest(n, target, chunk, cl, ctorArgs, e)
		// Step 1 of the protocol: the mail address is known locally, before
		// the creation message even departs — latency hidden, no context
		// switch.
		k(ctx, chunk.Addr())
		return
	}

	// Empty stock: the creating object must block until the target both
	// creates the object and replies (split-phase round trip).
	if np := mn.Prof(); np != nil {
		np.CountEvent(profile.Create, mn.Now())
	}
	n.C.StockMisses++
	n.C.RemoteCreations++
	self := ctx.SelfObject()
	frame := ctx.CurrentFrame()
	if l.ckpt {
		// The frame pointer rides the request's onCreated closure, which
		// checkpoint retention may replay after a crash — long after the
		// original invocation completed and released the frame. Pin it out
		// of the pool so the replayed resume finds its content intact.
		n.PinFrame(frame)
	}
	l.sendBlockingCreate(n, target, cl, ctorArgs, e, func(addr core.Address) {
		n.ResumeSaved(self, frame, func(ctx2 *core.Ctx) { k(ctx2, addr) })
	})
	ctx.BlockExternal()
}

// sendCreateRequest transmits the category-2 creation request for a chunk
// whose address the requester already holds. The target initializes the
// chunk (class-specific handler), allocates a replacement chunk, and sends
// its address back as a category-3 reply.
func (l *Layer) sendCreateRequest(n *core.NodeRT, target int, chunk *core.Object, cl *core.Class, ctorArgs []core.Value, e *stockEntry) {
	sn := n.MachineNode()
	sn.ChargeTo(profile.Create, l.cost().RemoteSendSetup)
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmCreate
	w.src = src
	w.load = l.piggyback(src)
	w.chunk = chunk
	w.cl = cl
	w.setArgs(ctorArgs)
	w.entry = e
	l.launch(sn, w, target, packetHeaderBytes+8+core.ArgsSize(ctorArgs), CatCreate)
}

// sendBlockingCreate is the stock-miss path: a category-2 request without a
// pre-held chunk. The target allocates, initializes, and replies with both
// the created object's address and a replacement chunk for the stock.
func (l *Layer) sendBlockingCreate(n *core.NodeRT, target int, cl *core.Class, ctorArgs []core.Value, e *stockEntry, onCreated func(core.Address)) {
	sn := n.MachineNode()
	sn.ChargeTo(profile.Create, l.cost().RemoteSendSetup)
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmBlockingCreate
	w.src = src
	w.load = l.piggyback(src)
	w.cl = cl
	w.setArgs(ctorArgs)
	w.entry = e
	w.onCreated = onCreated
	l.launch(sn, w, target, packetHeaderBytes+core.ArgsSize(ctorArgs), CatCreate)
}

// sendChunkReply is the category-3 handler: deliver a replacement chunk
// address to the requester's stock, and optionally resume a creation that
// blocked on an empty stock.
func (l *Layer) sendChunkReply(n *core.NodeRT, requester int, chunk *core.Object, e *stockEntry, then func()) {
	sn := n.MachineNode()
	sn.ChargeTo(profile.Create, l.cost().RemoteSendSetup)
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmChunk
	w.src = src
	w.load = l.piggyback(src)
	w.chunk = chunk
	w.entry = e
	w.then = then
	l.launch(sn, w, requester, packetHeaderBytes+8, CatChunk)
}

// advertiseLocation tells a stale sender where a migrated object lives now —
// the forwarding short-circuit. It runs at the forwarding node when a
// category-1 message arrives for an object that has moved away. One update
// travels per (sender, migration generation): the advert map remembers what
// each sender was last told, so steady-state forwarding adds no traffic.
func (l *Layer) advertiseLocation(rn *machine.Node, src int, stale, fwd core.Address) {
	if src == rn.ID {
		return
	}
	// Chase a local forwarding chain (the object may have passed through
	// this node more than once); forwarders on other nodes belong to other
	// lanes and cannot be inspected here.
	final := fwd
	for hops := 0; hops < 8 && final.Node == rn.ID; hops++ {
		next := final.Obj.ForwardTarget()
		if next.IsNil() {
			break
		}
		final = next
	}
	ns := l.nodes[rn.ID]
	if ns.advert == nil {
		ns.advert = make(map[advertKey]core.Address)
	}
	key := advertKey{src: src, obj: stale.Obj}
	if ns.advert[key] == final {
		return
	}
	ns.advert[key] = final
	c := l.cost()
	l.rt.NodeRT(rn.ID).C.LocCacheMisses++
	rn.ChargeTo(profile.Forward, c.RemoteSendSetup)
	w := l.acquireWire(rn.ID)
	w.kind = wmLocUpd
	w.src = rn.ID
	w.load = l.piggyback(rn.ID)
	w.to = stale
	w.replyTo = final
	l.rt.Tracef(rn.Now(), rn.ID, trace.EvLocUpdate,
		"advertise to n%d: object moved n%d -> n%d", src, stale.Node, final.Node)
	l.launch(rn, w, src, packetHeaderBytes+16, CatService) // stale + authoritative address
}

// learnLocation installs an advertised location in the stale sender's cache.
// A newer address for an already-cached object overwrites (invalidates) the
// old entry; chains from repeated migrations collapse at lookup time.
func (l *Layer) learnLocation(rn *machine.Node, stale, fresh core.Address) {
	if fresh.IsNil() || stale == fresh {
		return
	}
	ns := l.nodes[rn.ID]
	cc := &l.rt.NodeRT(rn.ID).C
	if ns.locCache == nil {
		ns.locCache = make(map[core.Address]core.Address)
	}
	if old, ok := ns.locCache[stale]; ok {
		if old == fresh {
			return
		}
		cc.LocCacheInvalidates++
	}
	ns.locCache[stale] = fresh
	l.rt.Tracef(rn.Now(), rn.ID, trace.EvLocUpdate,
		"learned: n%d object now at n%d", stale.Node, fresh.Node)
}

// LocationCache reports whether the remote-location cache is enabled.
func (l *Layer) LocationCache() bool { return l.locOn }

// Batching reports the active batch window and byte budget (zeroes when
// batching is disabled).
func (l *Layer) Batching() (sim.Time, int) {
	if l.bat == nil {
		return 0, 0
	}
	return l.bat.window, l.bat.maxBytes
}

// AckDelay reports the delayed-ack interval (zero when acks are immediate or
// the reliable protocol is off).
func (l *Layer) AckDelay() sim.Time {
	if l.rel == nil {
		return 0
	}
	return l.rel.ackDelay
}

// StockLevel reports the current stock depth a node holds for a target/class
// pair (for tests and reports).
func (l *Layer) StockLevel(node, target int, cl *core.Class) int {
	e := l.nodes[node].stock[stockKey{node: target, cls: cl}]
	if e == nil {
		return 0
	}
	return len(e.chunks)
}

// String describes the layer configuration.
func (l *Layer) String() string {
	s := fmt.Sprintf("remote{stock=%d placement=%s", l.opt.StockDepth, l.opt.Placement.Name())
	if l.bat != nil {
		s += fmt.Sprintf(" batch=%v/%dB", l.bat.window, l.bat.maxBytes)
	}
	if l.rel != nil {
		if l.rel.ackDelay > 0 {
			s += fmt.Sprintf(" reliable ackDelay=%v", l.rel.ackDelay)
		} else {
			s += " reliable"
		}
	}
	if !l.locOn {
		s += " locCache=off"
	}
	return s + "}"
}
