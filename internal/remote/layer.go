package remote

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Handler categories (Section 5.1), recorded on packets for statistics.
const (
	CatMessage = 1 // normal message transmission between objects
	CatCreate  = 2 // request for remote object creation
	CatChunk   = 3 // reply to remote memory allocation request
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
}

// Reliable-delivery protocol constants. The base acknowledgment timeout
// before the first retransmission covers a small message's round trip
// (~2×1.5µs hardware + ~9µs software each way) with headroom for queueing at
// a loaded receiver; it doubles per attempt up to DefaultMaxBackoff, and a
// message is retransmitted at that backoff until it is acknowledged.
const (
	DefaultRetryTimeout sim.Time = 60 * sim.Microsecond
	DefaultMaxBackoff   sim.Time = 2 * sim.Millisecond
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
	rel   *reliable // nil unless the reliable protocol is on (see Attach)
	bat   *batcher  // nil unless Options.BatchWindow > 0

	// Never released, so carved: every node's chunk-stock slots (stock.go)
	// and, when the layer keeps peers (link.go), links, open batches and the
	// delayed-ack lists of links owing an ack (reliable.go).
	stockSlots sim.Arena[uint64]
	links      sim.Arena[link]
	batches    sim.Arena[openBatch]
	owedLists  sim.Arena[*link]

	depth uint64 // Options.StockDepth, capped at a slot's count bits

	// ckpt is the checkpoint subsystem; non-nil exactly in checkpoint mode,
	// where transmissions are retained and deliveries coloured (ckpt.go).
	ckpt Checkpointer

	// hWire is the shared receive handler for all layer packets; the
	// per-send state travels in the record around the packet header instead
	// of a freshly allocated closure. hBatchArr/hBatchDel are the shared
	// controller hook and poll handler of CatBatch frames.
	hWire     func(*machine.Node, *machine.Packet)
	hBatchArr machine.Hook
	hBatchDel func(*machine.Node, *machine.Packet)
}

// A layer message is one record, a core.Frame: the Section 5.1 message (data
// plus the kind naming its compiled handler) under the packet header it
// travels in (Frame.Wire). A hop is one acquire at the sender and no copy at
// the receiver: a message record is the frame the receiver runs or queues,
// and that frame's release recycles it; handleWire releases the other kinds.
// The kind (wm*) and the sender's load sample ride the header's spare bytes
// (Tag, Load); Obj is a message's receiver or a creation's stocked chunk,
// homed on the header's Dst; Pattern is a message's pattern or a creation's
// class id; ReplyTo() is a message's reply destination, or in a miss's
// reply the object created; Creator is the saved context of a creation
// blocked on an empty stock, which a miss's request and reply carry as data,
// for the reply's handler to resume with the created address: a record
// carries no code. The reliable protocol sends copies under headers of its own and
// leaves Wire unused after the hand-off.
const (
	wmMessage = uint8(iota + 1)
	wmCreate  // category 2: initialize chunk (allocate one on a miss)
	wmChunk   // category 3: stock refill, resuming a miss
	wmSnapReq // snapshot request of the round in args[0]
	wmSnapAck // snapshot acknowledgment of the round in args[0]
)

// record charges mn the set-up of one layer message (plus extra
// instructions) to path and returns a fresh record of the given kind, its
// piggybacked load filled in: the category-4 load-monitoring service rides
// every message, its sample saturating at the header's 16 bits. The record
// comes from the runtime's frame pool, unless checkpoint retention may hold
// it by reference and replay it verbatim: then it is allocated singly and
// never pooled, so no release rewrites it, and one that never comes back
// pins no block.
func (l *Layer) record(mn *machine.Node, path profile.Path, extra int, kind uint8) *core.Frame {
	mn.ChargeTo(path, l.cost().RemoteSendSetup+extra)
	n := l.rt.NodeRT(mn.ID)
	var w *core.Frame
	if l.ckpt == nil {
		w = n.NewFrame()
	} else {
		w = new(core.Frame)
	}
	w.Wire.Tag = kind
	w.Wire.Load = uint16(min(n.SchedQueueLen(), math.MaxUint16))
	return w
}

// launch fills w's embedded header and puts the record on the wire: through
// the ack/retry protocol when it is on, otherwise over the machine's
// interconnect (through the per-link batcher when batching is on). All
// inter-node traffic of the layer funnels through here.
func (l *Layer) launch(mn *machine.Node, w *core.Frame, dst, size int, category uint8) {
	pkt := &w.Wire
	pkt.Dst = dst
	pkt.Size = int32(size)
	pkt.Category = category
	pkt.Handler = l.hWire
	pkt.Payload = w
	// Attribute the logical wire record once, here at the funnel; batch
	// frames and retransmitted copies are attributed at their own sites
	// so nothing is counted twice.
	mn.CountPacket(pathForCategory(category), size, mn.Now())
	if l.rel != nil {
		l.rel.send(mn, w)
		return
	}
	l.send(mn, pkt)
}

// handleWire is the single receive-side dispatcher of the layer: the
// compiler-generated specialized handlers of Section 5.1, indexed by the
// record's kind tag rather than modelled as per-send closures. p is the
// record's own header, or a reliable copy's. A message record becomes the
// receiver's frame; every other kind is done with here. A fault model's
// duplicate never reaches this handler twice: a machine with one always runs
// the reliable protocol, which drops a duplicate by its sequence number
// before any handler reads the record.
func (l *Layer) handleWire(rn *machine.Node, p *machine.Packet) {
	w := p.Payload.(*core.Frame)
	c := l.cost()
	extract := c.RemoteRecvExtract
	ns := l.nodes[rn.ID]
	if ns.batchPos > 1 {
		// Second-or-later record of a batched packet: the poll, header
		// parse and buffer management were paid by the first record.
		extract = c.BatchRecvExtract
	}
	src := int(p.Src)
	if ns.loads != nil {
		ns.loads[src] = int32(w.Wire.Load)
	}
	nrt := l.rt.NodeRT(rn.ID)
	switch w.Wire.Tag {
	case wmMessage:
		rn.ChargeTo(profile.RemoteRecv, extract+c.RemoteHandlerCall)
		nrt.DeliverFrame(w.Obj, w, true)
		return
	case wmCreate:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		obj := w.Obj
		if obj == nil {
			// A stock miss: the requester holds no chunk, so the object is
			// allocated here, and its address travels back in the reply.
			obj = nrt.NewFaultChunk(rn.ID)
		}
		l.rt.InitChunk(nrt, obj, l.rt.ClassByID(int(w.Pattern)), w.Args())
		// Step 4: allocate the replacement chunk and return its address as
		// the category-3 reply. The address is all the requester's stock
		// holds of it, and nothing can reach the chunk until a creation pops
		// it there, so the Object is carved at that pop (CreateOn), not here.
		rn.ChargeTo(profile.Create, c.ChunkRefill)
		r := l.record(rn, profile.Create, 0, wmChunk)
		r.Pattern = w.Pattern
		if w.Obj == nil {
			r.SetReplyTo(obj.Addr())
			r.Creator = w.Creator
		}
		l.launch(rn, r, src, packetHeaderBytes+8, CatChunk)
	case wmSnapReq, wmSnapAck:
		rn.SetPath(profile.Ckpt)
		rn.Charge(extract + c.RemoteHandlerCall)
		if w.Wire.Tag == wmSnapAck {
			l.ckpt.Acked(int(w.Arg(0).Int()))
		}
	case wmChunk:
		rn.SetPath(profile.Create)
		rn.Charge(extract + c.RemoteHandlerCall + c.StockPush)
		// The stock is capped at its configured depth: an address that would
		// overfill it (after a miss) is simply dropped, its chunk left to the
		// target's allocator. The slot is the requester's stock toward the
		// replying target for the requested class.
		ns.stock.refill(stockKey(src, int(w.Pattern)), l.depth, &l.stockSlots)
		if w.Creator != nil {
			// The reply to a stock miss: resume the blocked creation.
			nrt.ResumeCreation(w.Creator, w.ReplyTo())
		}
	default:
		panic(fmt.Sprintf("remote: unknown wire kind %d", w.Wire.Tag))
	}
	nrt.ReleaseFrame(w)
}

type nodeState struct {
	id     int
	rrNext int
	rng    uint64
	stock  stockTable
	// loads is the last piggybacked scheduling-queue length of every peer,
	// kept only under the placement that reads it (LoadBased); nil otherwise.
	loads []int32

	*peers // nil unless the reliable protocol or batching is on (see link.go)

	batchPos int // 1-based record cursor while delivering a batch
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
	l := &Layer{rt: rt, m: rt.M, opt: opt, depth: uint64(min(max(opt.StockDepth, 0), int(stockCount)))}
	l.hWire = l.handleWire
	_, sampled := opt.Placement.(LoadBased)
	nodes := make([]nodeState, rt.Nodes()) // every node's record, carved from one slice
	l.nodes = make([]*nodeState, rt.Nodes())
	for i := range l.nodes {
		nodes[i] = nodeState{
			id:  i,
			rng: uint64(opt.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1,
		}
		l.nodes[i] = &nodes[i]
		if sampled {
			l.nodes[i].loads = make([]int32, rt.Nodes())
		}
	}
	if opt.Reliable || opt.BatchWindow > 0 {
		ps := make([]peers, len(l.nodes))
		for i, ns := range l.nodes {
			ns.peers = &ps[i]
		}
	}
	if opt.Reliable {
		l.rel = newReliable(l)
	}
	if opt.BatchWindow > 0 {
		l.bat = newBatcher(l, opt.BatchWindow, opt.BatchMaxBytes)
		l.hBatchArr = l.m.RegisterHook(l.handleBatchArrive)
		l.hBatchDel = l.handleBatchDeliver
	}
	rt.SetRemote(l)
	return l
}

// Reliable reports whether the ack/retry protocol is active.
func (l *Layer) Reliable() bool { return l.rel != nil }

// pathForCategory maps a packet category to its attribution path.
func pathForCategory(cat uint8) profile.Path {
	switch cat {
	case CatMessage:
		return profile.RemoteSend
	case CatCreate, CatChunk:
		return profile.Create
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
	mn := n.MachineNode()
	w := l.record(mn, profile.RemoteSend, 0, wmMessage)
	mn.Count(profile.RemoteSend)
	size := packetHeaderBytes + core.ArgsSize(args)
	if !replyTo.IsNil() {
		size += 8
	}
	w.Obj = to.Obj
	w.Pattern = p
	w.SetArgs(args)
	w.SetReplyTo(replyTo)
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
	ns := l.nodes[mn.ID]
	if ns.stock.pop(stockKey(target, cl.ID()), l.depth, &l.stockSlots) {
		// The popped address names a chunk on the target that nothing could
		// reach before this pop: its Object is carved now, homed on the
		// target.
		chunk := n.NewFaultChunk(target)
		mn.ChargeTo(profile.Create, c.StockPop)
		mn.Count(profile.Create)
		n.C.StockHits++
		l.sendCreate(mn, target, chunk, cl, ctorArgs, nil)
		// Step 1 of the protocol: the mail address is known locally, before
		// the creation message even departs — latency hidden, no context
		// switch.
		k(ctx, chunk.Addr())
		return
	}

	// Empty stock: the creating object must block until the target both
	// creates the object and replies (split-phase round trip). Its saved
	// context rides the request and the reply; checkpoint retention may
	// replay both after the creator has resumed, so there the record is
	// retained, never recycled, like the wire records that carry it.
	mn.Count(profile.Create)
	n.C.StockMisses++
	l.sendCreate(mn, target, nil, cl, ctorArgs, n.SaveCreation(ctx, k, l.ckpt != nil))
	ctx.BlockExternal()
}

// sendCreate transmits the category-2 creation request. A chunk is one whose
// address the requester already holds: the target initializes it
// (class-specific handler), allocates a replacement chunk, and sends its
// address back as a category-3 reply. A nil chunk is a stock miss: the
// target allocates the object as well, and its reply carries both addresses
// and creator, the blocked requester's saved context.
func (l *Layer) sendCreate(mn *machine.Node, target int, chunk *core.Object, cl *core.Class, ctorArgs []core.Value, creator *core.SavedContext) {
	w := l.record(mn, profile.Create, 0, wmCreate)
	w.Obj = chunk
	w.Pattern = core.PatternID(cl.ID())
	w.SetArgs(ctorArgs)
	w.Creator = creator
	size := packetHeaderBytes + core.ArgsSize(ctorArgs)
	if chunk != nil {
		size += 8 // the chunk's address
	}
	l.launch(mn, w, target, size, CatCreate)
}

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
	return l.nodes[node].stock.level(stockKey(target, cl.ID()))
}
