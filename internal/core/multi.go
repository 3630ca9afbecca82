package core

// Multiactive objects: compatibility groups and per-group ready queues.
//
// The serial scheme makes every popular object a bottleneck: one live
// invocation at a time, everything else buffered behind it. Following the
// multiactive-object line of work (Henrio & Rochas) and multi-threaded
// actors (Azadbakht et al.), a class may declare named *compatibility
// groups* over its method patterns: invocations whose patterns share a
// group may be live simultaneously; patterns left out of every group stay
// exclusive with everything. "Live" covers both running on the node's stack
// and blocked in a now-type wait — and the latter is where the throughput
// is: while one invocation waits out a remote round trip, compatible
// invocations start and overlap their waits, so a hot object pipelines
// round trips instead of serializing them.
//
// The VFT trick is preserved as a new mode: a multiactive object keeps one
// table (ModeMultiactive) for its whole life, and every entry performs a
// GroupCheck-costed compatibility test against the object's live counts in
// place of the serial scheme's dormant/active table switches. Conflicting
// invocations park in the ready queue of their group; completions re-check
// the queues exactly as the serial method-end protocol re-checks the
// message queue.
//
// Dispatch order is deterministic: ready queues are scanned by declared
// priority (descending, declaration order breaking ties, the implicit
// exclusive queue last among priority zero), and the first startable queue
// is served. All scheduling state lives in the object, so runs are
// reproducible and checkpointable; group queues, live counts and deferred
// continuations are captured and restored with the rest of a node image.

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// groupDef is one declared compatibility group of a class.
type groupDef struct {
	name     string
	pats     []PatternID
	priority int
}

// multiState is the per-object scheduling state of a multiactive object.
// Queue index i < len(groups) is declared group i; the last index is the
// implicit exclusive queue for ungrouped patterns.
type multiState struct {
	live      []int // live invocations per queue index
	totalLive int

	ready  []frameQueue // parked frames per queue index
	readyN int          // total parked frames across queues

	// resume holds deferred continuations (yields, deep-stack reply resumes,
	// blocking remote creations). Serial objects use the single resume slot;
	// a multiactive object may defer several at once, FIFO.
	resume []*SavedContext
}

func newMultiState(cl *Class) *multiState {
	nq := len(cl.groups) + 1
	return &multiState{
		live:  make([]int, nq),
		ready: make([]frameQueue, nq),
	}
}

// canStart reports whether an invocation of queue index qi is compatible
// with everything currently live: an exclusive invocation needs an idle
// object; a grouped invocation requires every live invocation to belong to
// the same group.
func (ms *multiState) canStart(qi int) bool {
	if ms.totalLive == 0 {
		return true
	}
	if qi == len(ms.live)-1 {
		return false // exclusive conflicts with everything
	}
	return ms.totalLive == ms.live[qi]
}

func (ms *multiState) begin(qi int) { ms.live[qi]++; ms.totalLive++ }

func (ms *multiState) end(qi int) {
	ms.live[qi]--
	ms.totalLive--
	if ms.live[qi] < 0 || ms.totalLive < 0 {
		panic("core: multiactive live-invocation count underflow")
	}
}

func (ms *multiState) buffer(qi int, f *Frame) {
	ms.ready[qi].push(f)
	ms.readyN++
}

// pick chooses the ready-queue index to dispatch next: the first startable
// non-empty queue in the class's priority order, or -1 when nothing is
// startable.
func (ms *multiState) pick(cl *Class) int {
	for _, qi := range cl.multiOrder {
		if !ms.ready[qi].empty() && ms.canStart(qi) {
			return qi
		}
	}
	return -1
}

// Group declares a named compatibility group over the given method
// patterns: invocations of patterns in the same group may be live on the
// object simultaneously. A pattern may belong to at most one group;
// overlapping declarations panic here, and a grouped pattern without a
// method panics at freeze. Declaring any group makes the class multiactive.
func (c *Class) Group(name string, pats ...PatternID) *Class {
	if c.rt.frozen {
		panic(fmt.Sprintf("core: class %s: group %q declared after freeze", c.Name, name))
	}
	if name == "" {
		panic(fmt.Sprintf("core: class %s: compatibility group with empty name", c.Name))
	}
	if len(pats) == 0 {
		panic(fmt.Sprintf("core: class %s: group %q declares no patterns", c.Name, name))
	}
	for _, g := range c.groups {
		if g.name == name {
			panic(fmt.Sprintf("core: class %s: duplicate group %q", c.Name, name))
		}
	}
	for i, p := range pats {
		for _, q := range pats[:i] {
			if q == p {
				panic(fmt.Sprintf("core: class %s: group %q lists pattern %s twice",
					c.Name, name, c.rt.Reg.Name(p)))
			}
		}
		for _, g := range c.groups {
			for _, q := range g.pats {
				if q == p {
					panic(fmt.Sprintf("core: class %s: pattern %s in overlapping groups %q and %q",
						c.Name, c.rt.Reg.Name(p), g.name, name))
				}
			}
		}
	}
	c.groups = append(c.groups, groupDef{
		name: name,
		pats: append([]PatternID(nil), pats...),
	})
	return c
}

// Priority assigns a dispatch priority to a declared group (default 0;
// higher dispatches first). Ties break by declaration order, with the
// implicit exclusive queue last among priority zero.
func (c *Class) Priority(name string, prio int) *Class {
	if c.rt.frozen {
		panic(fmt.Sprintf("core: class %s: priority set after freeze", c.Name))
	}
	for gi := range c.groups {
		if c.groups[gi].name == name {
			c.groups[gi].priority = prio
			return c
		}
	}
	panic(fmt.Sprintf("core: class %s: Priority(%q) before Group(%q)", c.Name, name, name))
}

// Multiactive reports whether the class declares compatibility groups.
func (c *Class) Multiactive() bool { return len(c.groups) > 0 }

// buildMulti generates the multiactive table and the dense pattern→queue
// map at freeze. Every grouped pattern must have a method: a group over an
// unknown pattern is a definition error, caught here like a duplicate
// method would be.
func (c *Class) buildMulti(npat int) {
	excl := len(c.groups)
	c.patGroup = make([]int, npat)
	for p := range c.patGroup {
		c.patGroup[p] = excl
	}
	for gi := range c.groups {
		g := &c.groups[gi]
		for _, p := range g.pats {
			if int(p) < 0 || int(p) >= npat {
				panic(fmt.Sprintf("core: class %s: group %q declares unregistered pattern %d",
					c.Name, g.name, p))
			}
			if c.methods[p] == nil {
				panic(fmt.Sprintf("core: class %s: group %q declares pattern %s with no method",
					c.Name, g.name, c.rt.Reg.Name(p)))
			}
			c.patGroup[p] = gi
		}
	}
	c.multiTable = &VFT{Mode: ModeMultiactive, entries: make([]entry, npat)}
	for p := 0; p < npat; p++ {
		if c.methods[p] != nil {
			c.multiTable.entries[p] = entry{entryMulti, makeMultiEntry(c, PatternID(p))}
		}
	}
	// Queue scan order: priority descending, declaration order breaking
	// ties, the implicit exclusive queue carrying priority 0 and sorting
	// after equal-priority groups (stable sort on ascending index).
	c.multiOrder = make([]int, excl+1)
	for i := range c.multiOrder {
		c.multiOrder[i] = i
	}
	for i := 1; i < len(c.multiOrder); i++ { // insertion sort, stable
		for j := i; j > 0 && c.queuePriority(c.multiOrder[j]) > c.queuePriority(c.multiOrder[j-1]); j-- {
			c.multiOrder[j], c.multiOrder[j-1] = c.multiOrder[j-1], c.multiOrder[j]
		}
	}
}

// queueIndex maps a pattern to its ready-queue index (its group, or the
// implicit exclusive queue).
func (c *Class) queueIndex(p PatternID) int { return c.patGroup[p] }

// queuePriority returns the dispatch priority of a ready queue.
func (c *Class) queuePriority(qi int) int {
	if qi < len(c.groups) {
		return c.groups[qi].priority
	}
	return 0
}

// queueName names a ready queue for traces and errors.
func (c *Class) queueName(qi int) string {
	if qi < len(c.groups) {
		return c.groups[qi].name
	}
	return "(exclusive)"
}

// makeMultiEntry builds the multiactive-table entry for a pattern: a
// compatibility check against the live counts, then either immediate
// invocation on the sender's stack (the dormant path's moral equivalent) or
// parking in the pattern's group ready queue.
func makeMultiEntry(cl *Class, p PatternID) entryFunc {
	return func(n *NodeRT, obj *Object, f *Frame) {
		ms := obj.multi
		qi := cl.queueIndex(p)
		n.node.Charge(n.cost.GroupCheck)
		startable := ms.canStart(qi)
		if startable && n.stackDepth < n.rt.maxStackDepth {
			n.C.MultiImmediate++
			ms.begin(qi)
			n.invoke(obj, f, cl.methods[p], true)
			return
		}
		n.C.MultiParked++
		n.node.Charge(n.cost.FrameAlloc + n.cost.StoreMessage + n.cost.EnqueueMsgQ)
		ms.buffer(qi, f)
		if n.rt.Tracing() {
			n.rt.Tracef(n.node.Now(), n.id, trace.EvBuffer, "%s <- %s (group %s)",
				describe(obj), n.rt.Reg.Name(p), cl.queueName(qi))
		}
		if startable {
			// Compatible, but the stack is too deep: preempt through the
			// scheduling queue, mirroring the serial dormant path.
			n.C.Preemptions++
			n.node.SetPath(profile.Sched)
			n.enqueueSched(obj)
		}
	}
}

// multiDispatch is the Step continuation for a multiactive object: resume
// the oldest deferred continuation if one is parked, otherwise pick the
// next startable ready frame and invoke it.
func (n *NodeRT) multiDispatch(obj *Object) {
	ms := obj.multi
	if len(ms.resume) > 0 {
		s := ms.resume[0]
		copy(ms.resume, ms.resume[1:])
		ms.resume[len(ms.resume)-1] = nil
		ms.resume = ms.resume[:len(ms.resume)-1]
		n.restoreContext(s)
		n.multiReschedule(obj)
		return
	}
	cl := obj.class
	qi := ms.pick(cl)
	if qi < 0 {
		return // nothing startable: a completion will reschedule
	}
	f := ms.ready[qi].pop()
	ms.readyN--
	n.C.MultiDispatches++
	ms.begin(qi)
	n.invoke(obj, f, cl.methods[f.Pattern], true)
	n.multiReschedule(obj)
}

// multiMethodEnd is the completion protocol of a multiactive invocation:
// release the frame's group claim, then check the ready queues for parked
// work the completion unblocked — the multiactive analogue of the serial
// method-end message-queue check.
func (n *NodeRT) multiMethodEnd(obj *Object, f *Frame) {
	obj.multi.end(obj.class.queueIndex(f.Pattern))
	n.node.Charge(n.cost.CheckMsgQueue)
	n.multiReschedule(obj)
}

// multiReschedule re-enqueues a multiactive object when it still holds
// dispatchable work: a deferred continuation (each dispatch resumes only
// the oldest, and the enqueue that parked a later one deduped against the
// queued object), a pre-initialization frame in the serial queue, or a
// parked ready frame whose group can now start.
func (n *NodeRT) multiReschedule(obj *Object) {
	ms := obj.multi
	if len(ms.resume) > 0 || !obj.queue.empty() || (ms.readyN > 0 && ms.pick(obj.class) >= 0) {
		n.enqueueSched(obj)
	}
}
