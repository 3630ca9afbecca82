package remote

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

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
	CatCkpt    = 7 // checkpoint-protocol control (snapshot requests and acks)
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
	// delivered in per-link FIFO order at the receiver. Attach turns it on
	// by itself when the machine has a fault model or AckDelay is set; off
	// otherwise because the paper's AP1000 interconnect is reliable and the
	// protocol adds ack traffic.
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
	// reverse-direction batches, and so implies Reliable; zero keeps
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
	wires sim.Slab[wireMsg, *wireMsg] // recycled wire records
	rel   *reliable                   // nil unless the reliable protocol is on (see Attach)
	bat   *batcher                    // nil unless Options.BatchWindow > 0
	locOn bool                        // remote-location cache enabled

	// Never released, so carved: stock entries and, when the layer keeps
	// peers (link.go), links and open batches.
	entries sim.Arena[stockEntry]
	links   sim.Arena[link]
	batches sim.Arena[openBatch]

	// ckpt is the checkpoint subsystem; non-nil exactly in checkpoint mode,
	// where transmissions are retained and deliveries coloured (ckpt.go).
	ckpt Checkpointer

	// hWire is the shared receive handler for all layer packets; the
	// per-send state travels in the *wireMsg around the packet header instead
	// of a freshly allocated closure. hBatchArr/hBatchDel are the shared
	// controller and poll handlers of CatBatch frames.
	hWire     func(*machine.Node, *machine.Packet)
	hBatchArr func(*machine.Node, *machine.Packet)
	hBatchDel func(*machine.Node, *machine.Packet)
}

// wireMsg is one layer message on the wire — the machine packet header it
// travels under and its decoded payload in a single record, so a hop is one
// acquire at the sender and one release at the receiver. Every message of
// the layer is one: the record is the Section 5.1 message (data plus the
// kind naming its compiled handler), and the only code it carries is the
// continuation of a creation blocked on an empty stock (or of a migration's
// caller) in onCreated. Records are pooled: the sender takes one from the
// layer's slab and handleWire recycles it there (sim.Slab). The machine never
// recycles the embedded header (it is not AcquirePacket's); the reliable
// protocol sends per-attempt copies under headers of its own and leaves pkt
// unused after the hand-off.
//
// The record is 256 bytes, so a full slab block of 256 records is eight
// 8 KiB runtime pages exactly: the scalars share two words, and the argument
// list is a count over the inline argBuf or, past two values, over a spilled
// array.
type wireMsg struct {
	pkt      machine.Packet // pkt.Payload points back at the record
	next     *wireMsg       // pool link
	kind     uint8
	needInit bool   // wmMigrate: args are pending constructor arguments, not state
	nargs    uint16 // length of the argument list
	load     int32
	src      int32
	pat      int32 // wmMessage: the core.PatternID
	// to is the receiver of a wmMessage, and the moved object's old address
	// in wmLocUpd, wmMigrate and wmMigrated.
	to core.Address
	// The argument list — an owned copy of the message or constructor
	// arguments, the migrated image, or a checkpoint record's round — is
	// argBuf[:nargs] when it fits, otherwise nargs values from spill.
	argBuf [2]core.Value
	spill  *core.Value
	// replyTo is a wmMessage's reply destination, the moved object's new
	// address in wmLocUpd and wmMigrated, and the created object in the
	// wmChunk answering a stock miss.
	replyTo core.Address
	chunk   *core.Object // wmCreate: chunk to initialize, nil on a stock miss
	cl      *core.Class  // wmCreate, wmMigrate
	entry   *stockEntry  // requester's stock slot, carried through the round trip
	// onCreated rides a stock miss's wmCreate and its wmChunk, and a
	// wmMigrate and its wmMigrated, back to the requester, which calls it
	// with replyTo.
	onCreated func(core.Address)
}

const (
	wmMessage  = uint8(iota + 1)
	wmCreate   // category 2: initialize chunk (allocate one on a miss)
	wmChunk    // category 3: stock refill, resuming a miss
	wmLocUpd   // location update: `to` moved to `replyTo` (forward short-circuit)
	wmMigrate  // migration: class and image of `to`, adopted at the target
	wmMigrated // migration answer: install the forwarder `to` -> `replyTo`
	wmSnapReq  // snapshot request of the round in args[0]
	wmSnapAck  // snapshot acknowledgment of the round in args[0]
)

// setArgs copies args into the record — inline when they fit, a fresh array
// otherwise. Senders hand the layer a transient slice (core.Remote's
// SendMessage contract stages arguments in a per-node scratch buffer), so
// the record must own its copy until delivery.
func (w *wireMsg) setArgs(args []core.Value) {
	if len(args) > math.MaxUint16 {
		panic(fmt.Sprintf("remote: %d arguments overflow a wire record", len(args)))
	}
	w.nargs = uint16(len(args))
	if len(args) <= len(w.argBuf) {
		copy(w.argBuf[:], args)
		return
	}
	w.spill = &slices.Clone(args)[0]
}

// args returns the record's argument list, nil when it is empty.
func (w *wireMsg) args() []core.Value {
	switch {
	case w.nargs == 0:
		return nil
	case w.spill != nil:
		return unsafe.Slice(w.spill, w.nargs)
	}
	return w.argBuf[:w.nargs:w.nargs]
}

// wirePooled reports whether wireMsg records may be recycled: safe unless
// checkpoint retention holds them by reference until they become stable —
// recycling would rewrite a record the replay path may still need verbatim.
// A fault model's duplicate cannot reach the handler twice: a machine with
// one always runs the reliable protocol, which deduplicates by sequence
// number before the handler runs.
func (l *Layer) wirePooled() bool { return l.ckpt == nil }

// PoolLink names the intrusive link for sim.Slab.
func (w *wireMsg) PoolLink() **wireMsg { return &w.next }

// acquireWire returns a zeroed record to send — allocated singly when
// records are not recycled: one that never comes back must not pin a slab
// block.
func (l *Layer) acquireWire() *wireMsg {
	if !l.wirePooled() {
		return &wireMsg{}
	}
	return l.wires.Get()
}

func (l *Layer) releaseWire(w *wireMsg) {
	if l.wirePooled() {
		l.wires.Put(w)
	}
}

// record charges mn the set-up of one layer message (plus extra
// instructions) to path and returns a fresh record of the given kind, its
// source and piggybacked load filled in: the category-4 load-monitoring
// service rides every message.
func (l *Layer) record(mn *machine.Node, path profile.Path, extra int, kind uint8) *wireMsg {
	mn.ChargeTo(path, l.cost().RemoteSendSetup+extra)
	w := l.acquireWire()
	w.kind = kind
	w.src = int32(mn.ID)
	w.load = int32(l.rt.NodeRT(mn.ID).SchedQueueLen())
	return w
}

// launch fills w's embedded header and puts the record on the wire: through
// the ack/retry protocol when it is on, otherwise over the machine's
// interconnect (through the per-link batcher when batching is on). All
// inter-node traffic of the layer funnels through here.
func (l *Layer) launch(mn *machine.Node, w *wireMsg, dst, size int, category int32) {
	pkt := &w.pkt
	pkt.Dst = dst
	pkt.Size = int32(size)
	pkt.Category = category
	pkt.Handler = l.hWire
	pkt.Payload = w
	// Attribute the logical wire record once, here at the funnel; batch
	// frames and retransmitted copies are attributed at their own sites
	// so nothing is counted twice.
	if np := mn.Prof(); np != nil {
		np.Packet(pathForCategory(category), size, mn.Now())
	}
	if l.rel != nil {
		l.rel.send(mn, w)
		return
	}
	l.send(mn, pkt)
}

// handleWire is the single receive-side dispatcher of the layer: the
// compiler-generated specialized handlers of Section 5.1, indexed by the
// record's kind tag rather than modelled as per-send closures.
func (l *Layer) handleWire(rn *machine.Node, p *machine.Packet) {
	w := p.Payload.(*wireMsg)
	c := l.cost()
	extract := c.RemoteRecvExtract
	ns := l.nodes[rn.ID]
	if ns.batchPos > 1 {
		// Second-or-later record of a batched packet: the poll, header
		// parse and buffer management were paid by the first record.
		extract = c.BatchRecvExtract
	}
	src := int(w.src)
	if ns.loads != nil {
		ns.loads[src] = w.load
	}
	nrt := l.rt.NodeRT(rn.ID)
	switch w.kind {
	case wmMessage:
		rn.ChargeTo(profile.RemoteRecv, extract+c.RemoteHandlerCall)
		if l.locOn {
			if fwd := w.to.Obj.ForwardTarget(); !fwd.IsNil() {
				// Stale address: the object migrated away. Tell the sender
				// where it lives now, then let the forwarder re-send.
				l.advertiseLocation(rn, src, w.to, fwd)
			}
		}
		nrt.DeliverFrame(w.to.Obj, nrt.NewFrame(core.PatternID(w.pat), w.args(), w.replyTo), true)
	case wmCreate:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		obj := w.chunk
		if obj == nil {
			// A stock miss: the requester holds no chunk, so the object is
			// allocated here, and its address travels back in the reply.
			obj = nrt.NewFaultChunk(rn.ID)
		}
		l.rt.InitChunk(nrt, obj, w.cl, w.args())
		// Step 4: allocate the replacement chunk and return its address as
		// the category-3 reply. The address is all the requester's stock
		// holds of it, and nothing can reach the chunk until a creation pops
		// it there, so the Object is carved at that pop (CreateOn), not here.
		rn.ChargeTo(profile.Create, c.ChunkRefill)
		r := l.record(rn, profile.Create, 0, wmChunk)
		r.entry = w.entry
		if w.chunk == nil {
			r.replyTo, r.onCreated = obj.Addr(), w.onCreated
		}
		l.launch(rn, r, src, packetHeaderBytes+8, CatChunk)
	case wmLocUpd:
		rn.ChargeTo(profile.Forward, extract+c.RemoteHandlerCall)
		l.learnLocation(rn, w.to, w.replyTo)
	case wmMigrate:
		rn.ChargeTo(profile.Forward, extract+c.RemoteHandlerCall+c.MigrateUnpack)
		// Materialize at the target: a chunk adopting the class + image.
		moved := nrt.NewFaultChunk(rn.ID)
		l.rt.InitChunk(nrt, moved, w.cl, nil)
		ms := core.MigrationState{NeedInit: w.needInit}
		if w.needInit {
			ms.CtorArgs = w.args()
		} else {
			ms.State = w.args()
		}
		l.rt.AdoptMigratedState(nrt, moved, w.cl, ms)
		// Answer with the new address; the old home installs the forwarder.
		r := l.record(rn, profile.Forward, 0, wmMigrated)
		r.to, r.replyTo, r.onCreated = w.to, moved.Addr(), w.onCreated
		l.launch(rn, r, src, packetHeaderBytes+8, CatService)
	case wmMigrated:
		rn.ChargeTo(profile.Forward, extract+c.RemoteHandlerCall)
		l.rt.CompleteMigration(nrt, w.to.Obj, w.replyTo)
		if w.onCreated != nil {
			w.onCreated(w.replyTo)
		}
	case wmSnapReq, wmSnapAck:
		rn.SetPath(profile.Ckpt)
		rn.Charge(extract + c.RemoteHandlerCall)
		if w.kind == wmSnapAck {
			l.ckpt.Acked(int(w.args()[0].Int()))
		}
	case wmChunk:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.StockPush)
		// The stock is capped at its configured depth: an address that would
		// overfill it (after a miss) is simply dropped, its chunk left to the
		// target's allocator. The entry pointer is the requester's own slot,
		// carried through the round trip — and this packet is addressed to
		// the requester, so the push stays on the requester's lane.
		if e := w.entry; e.n < int32(l.opt.StockDepth) {
			e.n++
		}
		if w.onCreated != nil {
			// The reply to a stock miss: resume the blocked creation.
			w.onCreated(w.replyTo)
		}
	default:
		panic(fmt.Sprintf("remote: unknown wire kind %d", w.kind))
	}
	l.releaseWire(w)
}

type stockKey struct {
	node int
	cls  *core.Class
}

// DefaultStockDepth is the stock depth of the paper-style runs (and the
// facade's default).
const DefaultStockDepth = 2

// stockEntry is one node's chunk stock for a (target, class) pair. The
// requester finds it through its stock map on every remote creation; the
// refill round trip carries the entry pointer itself, so the category-2/3
// handlers touch no maps. Entries are carved on the owning node's lane and
// never move.
//
// A stocked chunk is a count. The paper's stock holds addresses of chunks on
// the target (§5.2), and nothing can reach a stocked chunk until a creation
// pops it: the pop carves the Object then, homed on the target, so the host
// holds an Object per creation and none per idle chunk.
type stockEntry struct {
	seeded bool  // the pre-delivered stock has been handed over
	n      int32 // chunk addresses held
}

// stockEntry returns (creating on first use) mn's stock slot for key.
func (l *Layer) stockEntry(mn *machine.Node, key stockKey) *stockEntry {
	ns := l.nodes[mn.ID]
	e := ns.stock[key]
	if e == nil {
		e = l.entries.New()
		ns.stock[key] = e
	}
	return e
}

type nodeState struct {
	id     int
	rr     int
	rrNext int
	rng    uint64
	stock  map[stockKey]*stockEntry
	// loads is the last piggybacked scheduling-queue length of every peer,
	// kept only under the placement that reads it (LoadBased); nil otherwise.
	loads []int32

	*peers // nil unless the reliable protocol or batching is on (see link.go)

	batchPos int // 1-based record cursor while delivering a batch

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

// knownLoad is ns's view of node's load: its own live queue, or the last
// sample the peer piggybacked. Only LoadBased asks, and only under it does
// the layer keep samples.
func (ns *nodeState) knownLoad(node int, l *Layer) int {
	if node == ns.id {
		return l.rt.NodeRT(node).SchedQueueLen()
	}
	return int(ns.loads[node])
}

// Attach builds the layer and installs it into the runtime. Must run before
// the runtime freezes, and after any fault model is installed on the
// machine: that, like delayed acks, turns the reliable protocol on.
func Attach(rt *core.Runtime, opt Options) *Layer {
	if opt.Placement == nil {
		opt.Placement = RoundRobin{}
	}
	opt.Reliable = opt.Reliable || rt.M.Faults() != nil || opt.AckDelay > 0
	l := &Layer{rt: rt, m: rt.M, opt: opt, locOn: !opt.NoLocationCache}
	l.hWire = l.handleWire
	_, sampled := opt.Placement.(LoadBased)
	l.nodes = make([]*nodeState, rt.Nodes())
	for i := range l.nodes {
		l.nodes[i] = &nodeState{
			id:    i,
			rng:   uint64(opt.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1,
			stock: make(map[stockKey]*stockEntry),
		}
		if sampled {
			l.nodes[i].loads = make([]int32, rt.Nodes())
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
	rt.SetRemote(l)
	return l
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

// SendMessage implements core.Remote: category-1 normal message
// transmission. The record carries the receiver and the typed arguments to
// the compiler-generated specialized handler its kind names (Section 5.1).
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
	mn := n.MachineNode()
	w := l.record(mn, profile.RemoteSend, 0, wmMessage)
	if np := mn.Prof(); np != nil {
		np.CountEvent(profile.RemoteSend, mn.Now())
	}
	size := packetHeaderBytes + core.ArgsSize(args)
	if !replyTo.IsNil() {
		size += 8
	}
	w.to = to
	w.pat = int32(p)
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
	e := l.stockEntry(mn, stockKey{node: target, cls: cl})

	if !e.seeded && l.opt.StockDepth > 0 {
		// Pre-delivery: at boot every node receives an initial stock of
		// chunk addresses for its peers. Modelled as already present (the
		// paper's "predelivered stocks") and handed over on the pair's first
		// creation, so memory follows the pairs that communicate.
		e.seeded = true
		e.n = int32(l.opt.StockDepth)
	}

	if e.n > 0 {
		e.n--
		// The popped address names a chunk on the target that nothing could
		// reach before this pop: its Object is carved now, homed on the
		// target but on this node's lane — the target's lane may be running
		// on another worker.
		chunk := n.NewFaultChunk(target)
		mn.ChargeTo(profile.Create, c.StockPop)
		if np := mn.Prof(); np != nil {
			np.CountEvent(profile.Create, mn.Now())
		}
		n.C.StockHits++
		n.C.RemoteCreations++
		l.sendCreate(mn, target, chunk, cl, ctorArgs, e, nil)
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
	if l.ckpt != nil {
		// The frame pointer rides the request's continuation, which
		// checkpoint retention may replay after a crash — long after the
		// original invocation completed and released the frame. Pin it out
		// of the pool so the replayed resume finds its content intact.
		n.PinFrame(frame)
	}
	l.sendCreate(mn, target, nil, cl, ctorArgs, e, func(addr core.Address) {
		n.ResumeSaved(self, frame, func(ctx2 *core.Ctx) { k(ctx2, addr) })
	})
	ctx.BlockExternal()
}

// sendCreate transmits the category-2 creation request. A chunk is one whose
// address the requester already holds: the target initializes it
// (class-specific handler), allocates a replacement chunk, and sends its
// address back as a category-3 reply. A nil chunk is a stock miss: the
// target allocates the object as well, and its reply carries both addresses
// and onCreated, the blocked requester's continuation.
func (l *Layer) sendCreate(mn *machine.Node, target int, chunk *core.Object, cl *core.Class, ctorArgs []core.Value, e *stockEntry, onCreated func(core.Address)) {
	w := l.record(mn, profile.Create, 0, wmCreate)
	w.chunk = chunk
	w.cl = cl
	w.setArgs(ctorArgs)
	w.entry = e
	w.onCreated = onCreated
	size := packetHeaderBytes + core.ArgsSize(ctorArgs)
	if chunk != nil {
		size += 8 // the chunk's address
	}
	l.launch(mn, w, target, size, CatCreate)
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
	rn.C.LocCacheMisses++
	w := l.record(rn, profile.Forward, 0, wmLocUpd)
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
	if ns.locCache == nil {
		ns.locCache = make(map[core.Address]core.Address)
	}
	if old, ok := ns.locCache[stale]; ok {
		if old == fresh {
			return
		}
		rn.C.LocCacheInvalidates++
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
	return int(e.n)
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
