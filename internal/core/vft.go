package core

// Mode is the execution mode of a concurrent object (Section 2.1 plus the
// two implementation modes of Sections 4.2 and 5.2).
type Mode uint8

const (
	// ModeDormant: no messages being processed; a send invokes the method
	// immediately on the sender's stack.
	ModeDormant Mode = iota
	// ModeActive: currently executing (or parked with buffered messages);
	// sends buffer through queuing procedures.
	ModeActive
	// ModeWaiting: blocked in selective reception; awaited patterns restore
	// the saved context, others buffer.
	ModeWaiting
	// ModeUninit: a pre-delivered chunk whose creation request has not yet
	// arrived; the generic fault table buffers everything (Section 5.2).
	ModeUninit
	// ModeNeedInit: created but state variables not yet initialized; the
	// first message triggers lazy initialization (Section 4.2).
	ModeNeedInit
	// ModeMultiactive: the object's class declares compatibility groups and
	// several mutually compatible invocations may be live at once. The object
	// keeps this single table for its whole life: every entry performs a
	// runtime compatibility check against the live-invocation counts instead
	// of the serial scheme's table switches.
	ModeMultiactive
)

func (m Mode) String() string {
	switch m {
	case ModeDormant:
		return "dormant"
	case ModeActive:
		return "active"
	case ModeWaiting:
		return "waiting"
	case ModeUninit:
		return "uninit"
	case ModeNeedInit:
		return "needinit"
	case ModeMultiactive:
		return "multiactive"
	default:
		return "mode(?)"
	}
}

// EntryKind classifies virtual-function-table entries. The kind encodes what
// the paper encodes by which table the entry lives in; it is consulted by
// the scheduler when dispatching buffered frames.
type EntryKind uint8

const (
	entryNone    EntryKind = iota // message not understood
	entryBody                     // dormant table: the compiled method body
	entryQueue                    // active table: tiny queuing procedure
	entryRestore                  // waiting table: context restoration routine
	entryInit                     // lazy-initialization wrapper
	entryFault                    // generic fault table: class-independent queuing
	entryNative                   // runtime-internal (reply destinations)
	entryMulti                    // multiactive table: compatibility-checked dispatch
)

// entryFunc is a virtual-function-table procedure: it receives the runtime
// of the node the object lives on, the object, and the message frame.
type entryFunc func(rt *NodeRT, obj *Object, f *Frame)

type entry struct {
	kind EntryKind
	fn   entryFunc
}

// VFT is one virtual function table: a mode tag plus one entry per
// registered message pattern. Each class owns several VFTs — one per mode —
// and an object's VFTP points at the table for its current mode, which is
// how "several runtime checks in concurrent object execution can be
// avoided" (Section 4.2).
type VFT struct {
	Mode    Mode
	entries []entry
}

// lookup returns the entry for a pattern; entryNone for unknown patterns.
func (v *VFT) lookup(p PatternID) entry {
	if p < 0 || int(p) >= len(v.entries) {
		return entry{}
	}
	return v.entries[p]
}
