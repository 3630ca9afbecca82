package core

import (
	"slices"
	"unsafe"
)

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
// A parked or waiting saved context is captured by copying its record,
// which returns to a free list when it resumes, and restored into a fresh
// one; the continuations in it and reply waiters are closures captured by
// reference. That is sound only under the write-once environment contract:
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
	for i := range r.nodes {
		r.nodes[i].track = true
	}
}

// trackObject enters obj on its home's checkpoint list, once. Runs on the
// home's lane.
func (r *Runtime) trackObject(node int, obj *Object) {
	if n := &r.nodes[node]; n.track && !obj.tracked {
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
	box      *Value  // the object's value box, which is its alone for good
	vals     []Value // the box's contents: state variables, constructor arguments
	nctor    uint16
	queue    []*Frame
	inSchedQ bool
	saved    *SavedContext // a copy of the parked or waiting record's contents
	rd       replyState
	isRD     bool
	multi    *multiImage
}

// multiImage is the captured multiactive scheduling state of one object:
// live-invocation counts, the per-group ready queues (frames by reference,
// immortalized) and deferred continuations. Group queues are runtime state
// like the serial message queue, so a restart mid-group resumes with the
// same live set and parked work.
type multiImage struct {
	live      []int
	totalLive int
	ready     [][]*Frame
	resume    []*SavedContext // copies, as objImage.resume
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
// reference, so it must never be recycled and rewritten (ReleaseFrame
// ignores non-pooled frames). The frame's content is immutable after
// creation; only its queue link is rewritten, and restore rebuilds links.
func immortalize(f *Frame) int {
	if f == nil {
		return 0
	}
	f.pooled = false
	return frameHeaderBytes + ArgsSize(f.Args())
}

// CaptureNode snapshots the full language-level state of one node: every
// hosted object (state variables, constructor arguments, buffered message queue,
// saved contexts, reply-destination payloads, mode table) and the
// scheduling-queue order. Must run between engine events.
func (r *Runtime) CaptureNode(node int) *NodeImage {
	n := &r.nodes[node]
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
	if o.running {
		panic("core: snapshot of a running object")
	}
	oi := objImage{
		obj:      o,
		class:    o.class,
		vftp:     o.vftp,
		box:      o.state,
		nctor:    o.nctor,
		inSchedQ: o.inSchedQ,
	}
	b := objHeaderBytes
	if o.class != nil {
		oi.vals = slices.Clone(unsafe.Slice(o.state, o.class.StateSize+int(o.nctor)))
		b += ArgsSize(oi.vals)
	}
	oi.queue = o.queue.frames()
	for _, f := range oi.queue {
		b += immortalize(f)
	}
	if s := o.saved; s != nil {
		oi.saved = s.image()
		b += savedCtxBytes + immortalize(s.frame)
	}
	if rd := o.replyState(); rd != nil {
		oi.isRD = true
		oi.rd = *rd
		b += replyDestBytes + immortalize(rd.waiterF)
	}
	if o.multi != nil {
		mi := &multiImage{
			live:      append([]int(nil), o.multi.live...),
			totalLive: o.multi.totalLive,
			ready:     make([][]*Frame, len(o.multi.ready)),
		}
		for qi := range o.multi.ready {
			mi.ready[qi] = o.multi.ready[qi].frames()
			for _, f := range mi.ready[qi] {
				b += immortalize(f)
			}
		}
		for _, s := range o.multi.resume {
			b += savedCtxBytes + immortalize(s.frame)
			mi.resume = append(mi.resume, s.image())
		}
		// Eight bytes per queue, as when each queue also kept an
		// overtake count beside its live count: the modelled image
		// size, and with it every checkpoint's cost and virtual time,
		// stays what it was.
		b += 8 * len(o.multi.live)
		oi.multi = mi
	}
	img.bytes += b
	img.objs = append(img.objs, oi)
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
	n := &r.nodes[img.Node]
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
		// The box was carved for this object and is never handed to
		// another, so it takes the image's contents back whatever the
		// object has held since.
		o.state, o.nctor = oi.box, oi.nctor
		copy(unsafe.Slice(oi.box, len(oi.vals)), oi.vals)
		o.queue = frameQueue{}
		for _, f := range oi.queue {
			o.queue.push(f)
		}
		o.inSchedQ = oi.inSchedQ
		o.running = false
		o.saved = nil
		if oi.saved != nil {
			o.saved = n.copySaved(oi.saved)
		}
		o.reply = oi.isRD
		if oi.isRD {
			*o.replyState() = oi.rd
		}
		if oi.multi != nil {
			ms := o.multi
			if ms == nil { // defensive: class is fixed, so this can't normally happen
				ms = newMultiState(oi.class)
				o.multi = ms
			}
			copy(ms.live, oi.multi.live)
			ms.totalLive = oi.multi.totalLive
			ms.readyN = 0
			for qi := range ms.ready {
				ms.ready[qi] = frameQueue{}
				for _, f := range oi.multi.ready[qi] {
					ms.ready[qi].push(f)
					ms.readyN++
				}
			}
			ms.resume = nil
			for _, s := range oi.multi.resume {
				ms.resume = append(ms.resume, n.copySaved(s))
			}
		}
	}
	clear(n.schedQ.items)
	n.schedQ = schedQueue{items: append(n.schedQ.items[:0], img.sched...)}
}
