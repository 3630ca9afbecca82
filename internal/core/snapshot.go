package core

// Checkpoint support: capture and restore of a node's complete
// language-level state. The paper's representation makes this unusually
// clean — every blocked computation is already a first-class heap value (a
// saved context: continuation + frame), every buffered message a heap frame,
// and every object's mode a table pointer — so a node's entire runtime state
// is an enumerable set of objects, queues and frames rather than an opaque C
// stack. A snapshot is therefore a plain traversal.
//
// Capture happens between engine events (never mid-method: method bodies run
// to completion inside one scheduler quantum), so no object is ever running
// at a snapshot point. Restore rewrites each captured object in place —
// object identity IS the mail address, so restoration must not reallocate —
// and forgets everything its node touched after the snapshot: pre-snapshot
// state names such an object only as an untouched chunk (the address a stock
// pop handed out, a create request in the channel), so the suffix of the
// hosted list goes back to being one once the in-flight packets of the
// rolled-back timeline are revoked (machine.BumpEra). Forgotten, not
// reclaimed: an Object is a slot of an arena block and lives as long as its
// block does, and no restore rewinds an arena — a slot is handed out once,
// so an address of the abandoned timeline can never come to name an object
// of the restored one.
//
// Continuation closures (resumeK, wait.k, reply waiters) are captured by
// reference. This is sound only under the write-once environment contract:
// a continuation's captured variables must not be mutated after the closure
// is parked (see DESIGN.md §10). The bundled applications keep loop cursors
// in simulated object state for exactly this reason.

// Modelled stable-store record sizes (bytes), used to account the simulated
// cost of a snapshot: an object header (class id, mode, flags), a frame
// header (pattern, reply destination, link), a saved execution context
// (continuation address + locals base), and a reply-destination record.
const (
	objHeaderBytes   = 16
	frameHeaderBytes = 16
	savedCtxBytes    = 32
	replyDestBytes   = 16
)

// EnableSnapshots turns on object tracking on every node: each node records
// the objects homed on it, in the order it first touches them, so a snapshot
// can enumerate them. Must be called before any object is created; tracking
// is off by default so the non-checkpointed path stays byte-identical.
func (r *Runtime) EnableSnapshots() {
	for _, n := range r.nodes {
		n.track = true
	}
}

// trackObject enters obj on its home's checkpoint list, once. Runs on the
// home's lane.
func (r *Runtime) trackObject(node int, obj *Object) {
	if n := r.nodes[node]; n.track && !obj.tracked {
		obj.tracked = true
		n.hosted = append(n.hosted, obj)
	}
}

// objImage is the captured form of one object. The object pointer is kept —
// identity is the mail address — and every mutable field is copied; frames
// are captured by reference after being made immortal (see immortalize).
type objImage struct {
	obj      *Object
	class    *Class
	vftp     *VFT
	state    []Value
	hasState bool
	ctorArgs []Value
	queue    []*Frame
	inSchedQ bool
	wait     *waitImage
	resumeK  func(*Ctx)
	resumeF  *Frame
	rd       replyState
	isRD     bool
	forward  Address
	multi    *multiImage
}

type waitImage struct {
	pats  []PatternID
	k     func(*Ctx, *Frame)
	frame *Frame
}

// multiImage is the captured multiactive scheduling state of one object:
// live-invocation counts, the per-group ready queues (frames by reference,
// immortalized), overtake counters and deferred continuations. Group queues
// are runtime state like the serial message queue, so a restart mid-group
// resumes with the same live set and parked work.
type multiImage struct {
	live      []int
	totalLive int
	ready     [][]*Frame
	overtake  []uint32
	resume    []savedCont
}

// NodeImage is one node's language-level snapshot.
type NodeImage struct {
	Node      int
	bytes     int
	objs      []objImage
	hostedLen int
	sched     []*Object
}

// SizeBytes reports the modelled stable-store footprint of the image,
// charged through Cost.CkptInstr / Cost.RestoreInstr by the checkpoint
// subsystem.
func (img *NodeImage) SizeBytes() int { return img.bytes }

// Objects reports how many objects the image holds (for tests and reports).
func (img *NodeImage) Objects() int { return len(img.objs) }

// immortalize removes a frame from pool management: the snapshot holds it by
// reference, so it must never be recycled and rewritten (releaseFrame
// ignores non-pooled frames). The frame's content is immutable after
// creation; only its queue link is rewritten, and restore rebuilds links.
func immortalize(f *Frame) int {
	if f == nil {
		return 0
	}
	f.pooled = false
	return frameHeaderBytes + ArgsSize(f.Args)
}

// PinFrame removes a frame from pool management before any snapshot sees
// it. The remote layer's blocking-creation path parks (object, frame,
// continuation) inside a wire record that checkpoint retention may hold and
// replay; a replayed resume must find the frame's content intact, so with
// checkpointing on the frame is never recycled once it rides such a record.
func (n *NodeRT) PinFrame(f *Frame) {
	if f != nil {
		f.pooled = false
	}
}

// CaptureNode snapshots the full language-level state of one node: every
// hosted object (state box, constructor arguments, buffered
// message queue, saved contexts, reply-destination payloads, forwarding
// address, mode table) and the scheduling-queue order. Must run between
// engine events.
func (r *Runtime) CaptureNode(node int) *NodeImage {
	n := r.nodes[node]
	img := &NodeImage{Node: node, hostedLen: len(n.hosted)}
	img.objs = make([]objImage, 0, len(n.hosted))
	for _, o := range n.hosted {
		img.capture(o)
	}
	if q := &n.schedQ; !q.empty() {
		img.sched = append(img.sched, q.items[q.head:]...)
		img.bytes += 8 * len(img.sched)
	}
	return img
}

// capture appends one object's image, accounting its stable-store bytes.
func (img *NodeImage) capture(o *Object) {
	{
		if o.running {
			panic("core: snapshot of a running object")
		}
		oi := objImage{
			obj:      o,
			class:    o.class,
			vftp:     o.vftp,
			inSchedQ: o.inSchedQ,
			forward:  o.forward,
		}
		b := objHeaderBytes
		if o.state != nil {
			oi.hasState = true
			oi.state = append([]Value(nil), o.state...)
			b += ArgsSize(oi.state)
		}
		if o.ctorArgs != nil {
			oi.ctorArgs = append([]Value(nil), o.ctorArgs...)
			b += ArgsSize(oi.ctorArgs)
		}
		for f := o.queue.head; f != nil; f = f.next {
			if len(oi.queue) >= o.queue.n {
				// A frame reachable past the queue's own length means a frame
				// was recycled while still linked — catch the corruption at
				// the capture that would otherwise persist it.
				panic("core: message queue longer than its length during capture")
			}
			b += immortalize(f)
			oi.queue = append(oi.queue, f)
		}
		if o.wait != nil {
			oi.wait = &waitImage{
				pats:  append([]PatternID(nil), o.wait.pats...),
				k:     o.wait.k,
				frame: o.wait.frame,
			}
			b += savedCtxBytes + immortalize(o.wait.frame)
		}
		if o.resumeK != nil {
			oi.resumeK, oi.resumeF = o.resumeK, o.resumeF
			b += savedCtxBytes + immortalize(o.resumeF)
		}
		if o.rd != nil {
			oi.isRD = true
			oi.rd = *o.rd
			b += replyDestBytes + immortalize(o.rd.waiterF)
		}
		if o.multi != nil {
			mi := &multiImage{
				live:      append([]int(nil), o.multi.live...),
				totalLive: o.multi.totalLive,
				ready:     make([][]*Frame, len(o.multi.ready)),
				overtake:  append([]uint32(nil), o.multi.overtake...),
			}
			for qi := range o.multi.ready {
				for f := o.multi.ready[qi].head; f != nil; f = f.next {
					b += immortalize(f)
					mi.ready[qi] = append(mi.ready[qi], f)
				}
			}
			for _, sc := range o.multi.resume {
				b += savedCtxBytes + immortalize(sc.frame)
			}
			mi.resume = append([]savedCont(nil), o.multi.resume...)
			b += 8 * len(o.multi.live) // live + overtake counter words
			oi.multi = mi
		}
		img.bytes += b
		img.objs = append(img.objs, oi)
	}
}

// RestoreNode rolls the node back to the image: every captured object is
// rewritten in place, objects the node touched after the snapshot drop off
// the hosted list (their arena slots stay spent, see above), and the
// scheduling queue is rebuilt in captured order. A forgotten object becomes
// a pristine fault chunk again: the restored cut may still name it as the
// chunk of a create request still to be replayed — a stock holds a count,
// not chunks, so the address a pop handed out before the cut rides such a
// request — and there it must be found uninitialized. The caller is
// responsible for revoking the rolled-back timeline's in-flight packets
// (machine.BumpEra), restoring the inter-node layer, and waking the node.
func (r *Runtime) RestoreNode(img *NodeImage) {
	n := r.nodes[img.Node]
	for i, o := range n.hosted[img.hostedLen:] {
		*o = Object{node: o.node, vftp: r.faultVFT}
		n.hosted[img.hostedLen+i] = nil
	}
	n.hosted = n.hosted[:img.hostedLen]
	for i := range img.objs {
		oi := &img.objs[i]
		o := oi.obj
		o.class = oi.class
		o.vftp = oi.vftp
		if oi.hasState {
			if o.state == nil {
				// The live slice was handed away after the snapshot (e.g.
				// BeginMigration detached it); restoring must not write into
				// storage another node may have adopted, so a fresh box is
				// carved from the arena.
				o.state = n.allocState(len(oi.state))
			}
			copy(o.state, oi.state)
		} else {
			o.state = nil
		}
		// The image's copy is aliased rather than re-copied: constructor
		// arguments are read-only until the lazy init consumes the pointer,
		// so a second restore from the same image stays valid.
		o.ctorArgs = oi.ctorArgs
		o.queue = frameQueue{}
		for _, f := range oi.queue {
			o.queue.push(f)
		}
		o.inSchedQ = oi.inSchedQ
		o.running = false
		if oi.wait != nil {
			o.wait = &waitState{pats: oi.wait.pats, k: oi.wait.k, frame: oi.wait.frame}
		} else {
			o.wait = nil
		}
		o.resumeK, o.resumeF = oi.resumeK, oi.resumeF
		if oi.isRD {
			*o.rd = oi.rd
		}
		if oi.multi != nil {
			ms := o.multi
			if ms == nil { // defensive: class is fixed, so this can't normally happen
				ms = newMultiState(oi.class)
				o.multi = ms
			}
			copy(ms.live, oi.multi.live)
			ms.totalLive = oi.multi.totalLive
			copy(ms.overtake, oi.multi.overtake)
			ms.readyN = 0
			for qi := range ms.ready {
				ms.ready[qi] = frameQueue{}
				for _, f := range oi.multi.ready[qi] {
					ms.ready[qi].push(f)
					ms.readyN++
				}
			}
			ms.resume = append(ms.resume[:0:0], oi.multi.resume...)
		}
		o.forward = oi.forward
	}
	n.schedQ = schedQueue{}
	n.schedQ.items = append(n.schedQ.items, img.sched...)
}
