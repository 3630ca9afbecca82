package core

import (
	"fmt"
	"slices"
)

// MethodFunc is a compiled method body. Method bodies are written in
// continuation-passing style: operations that may block (now-type sends,
// selective reception, remote creation) take an explicit continuation,
// mirroring the paper's saved instruction pointer + locals in a heap frame.
type MethodFunc func(ctx *Ctx)

// InitFunc lazily initializes an object's state variables when it receives
// its first message (Section 4.2's lazy initialization via the init table).
type InitFunc func(ic *InitCtx)

// Class describes a concurrent object class: its state layout, its lazy
// initializer, its method bodies indexed by pattern, and the multiple
// virtual function tables generated from them at freeze time.
type Class struct {
	Name      string
	StateSize int      // number of state variables
	Init      InitFunc // lazy initializer; may be nil

	rt      *Runtime
	id      int          // dense class index, assigned by DefineClass
	methods []MethodFunc // dense, indexed by PatternID after freeze
	defs    map[PatternID]MethodFunc

	dormant   *VFT
	active    *VFT
	initTable *VFT
	waitCache []waitTable

	// Multiactive declarations (Group / Priority). Declaring any
	// compatibility group makes the class multiactive: its objects keep the
	// single multiTable for their whole life and schedule through per-group
	// ready queues (see multi.go).
	groups     []groupDef
	patGroup   []int // dense after freeze: PatternID -> ready-queue index
	multiTable *VFT
	multiOrder []int // queue scan order: priority desc, declaration order
}

// Method attaches a method body for a pattern. It returns the class for
// chaining. Defining a method after freeze, or twice for one pattern,
// panics — both are compile-time errors in the paper's setting.
func (c *Class) Method(p PatternID, body MethodFunc) *Class {
	if c.rt.frozen {
		panic(fmt.Sprintf("core: class %s: method added after freeze", c.Name))
	}
	if body == nil {
		panic(fmt.Sprintf("core: class %s: nil method body", c.Name))
	}
	if _, dup := c.defs[p]; dup {
		panic(fmt.Sprintf("core: class %s: duplicate method for pattern %s",
			c.Name, c.rt.Reg.Name(p)))
	}
	c.defs[p] = body
	return c
}

// Understands reports whether the class defines a method for the pattern.
func (c *Class) Understands(p PatternID) bool {
	if c.methods != nil {
		return int(p) >= 0 && int(p) < len(c.methods) && c.methods[p] != nil
	}
	_, ok := c.defs[p]
	return ok
}

// body returns the method body for a pattern, panicking on "message not
// understood" — a programming error in statically-typed ABCL.
func (c *Class) body(p PatternID) MethodFunc {
	b := c.methods[p]
	if b == nil {
		panic(fmt.Sprintf("core: class %s does not understand pattern %s",
			c.Name, c.rt.Reg.Name(p)))
	}
	return b
}

// buildTables generates the per-mode virtual function tables. Called once at
// runtime freeze (the analogue of compilation).
func (c *Class) buildTables(npat int) {
	c.methods = make([]MethodFunc, npat)
	for p, b := range c.defs {
		if int(p) >= npat {
			panic(fmt.Sprintf("core: class %s: pattern %d out of range", c.Name, p))
		}
		c.methods[p] = b
	}

	c.dormant = &VFT{Mode: ModeDormant, entries: make([]entry, npat)}
	c.active = &VFT{Mode: ModeActive, entries: make([]entry, npat)}
	c.initTable = &VFT{Mode: ModeNeedInit, entries: make([]entry, npat)}
	for p := 0; p < npat; p++ {
		pid := PatternID(p)
		if c.methods[p] != nil {
			c.dormant.entries[p] = entry{entryBody, makeDormantEntry(c, pid)}
			c.initTable.entries[p] = entry{entryInit, makeInitEntry(c, pid)}
		}
		// Queuing procedures are generated for every pattern: a buffered
		// unknown-pattern message only faults when later dispatched, exactly
		// as a queued message would on the AP1000.
		c.active.entries[p] = entry{entryQueue, queueEntry}
	}
	if len(c.groups) > 0 {
		c.buildMulti(npat)
	}
}

// waitingVFT returns (building and caching on first use) the table for a
// selective reception awaiting the given patterns: awaited entries restore
// the saved context, all other entries are queuing procedures. The paper
// constructs one such table per wait site at compile time; memoization gives
// the same effect. A class has a table per awaited pattern set, a handful,
// so the lookup scans them and allocates nothing; the order of pats and
// repeats in it do not matter.
func (c *Class) waitingVFT(pats []PatternID) *VFT {
	for _, w := range c.waitCache {
		if w.awaits(pats) {
			return w.vft
		}
	}
	npat := len(c.active.entries)
	w := waitTable{vft: &VFT{Mode: ModeWaiting, entries: make([]entry, npat)}}
	copy(w.vft.entries, c.active.entries)
	for _, p := range pats {
		if int(p) < 0 || int(p) >= npat {
			panic(fmt.Sprintf("core: class %s: awaited pattern %d out of range", c.Name, p))
		}
		if w.vft.entries[p].kind != entryRestore {
			w.n++
		}
		w.vft.entries[p] = entry{entryRestore, restoreEntry}
	}
	c.waitCache = append(c.waitCache, w)
	return w.vft
}

// waitTable is a cached waiting-mode table and the number of patterns it
// awaits.
type waitTable struct {
	vft *VFT
	n   int
}

// awaits reports whether the table awaits exactly the patterns of pats.
func (w waitTable) awaits(pats []PatternID) bool {
	distinct := 0
	for i, p := range pats {
		if int(p) < 0 || int(p) >= len(w.vft.entries) || w.vft.entries[p].kind != entryRestore {
			return false
		}
		if !slices.Contains(pats[:i], p) {
			distinct++
		}
	}
	return distinct == w.n
}

// InitCtx is the limited context available to lazy initializers: it can read
// constructor arguments and set state variables, but cannot send messages —
// initialization happens inside a message dispatch and must not recurse into
// scheduling.
type InitCtx struct {
	obj  *Object
	args []Value
}

// CtorArg returns the i'th constructor argument (Nil when out of range).
func (ic *InitCtx) CtorArg(i int) Value {
	if i < 0 || i >= len(ic.args) {
		return Nil
	}
	return ic.args[i]
}

// NumCtorArgs returns the constructor argument count.
func (ic *InitCtx) NumCtorArgs() int { return len(ic.args) }

// ID returns the class's dense index (assigned in definition order); the
// machine's per-class cost rows are keyed by it.
func (c *Class) ID() int { return c.id }

// SetState writes state variable i.
func (ic *InitCtx) SetState(i int, v Value) { ic.obj.vars()[i] = v }

// State reads state variable i.
func (ic *InitCtx) State(i int) Value { return ic.obj.vars()[i] }
