package core

import "fmt"

// PatternID identifies a message pattern. Per Section 2.4, a pattern is the
// combination of message keywords and argument types, and "at compile time,
// a unique number is assigned to each message pattern"; PatternID is that
// number. It indexes virtual function tables directly; 32 bits keep it one
// word of a frame with the frame's argument count and flags.
type PatternID int32

// NoPattern is the invalid pattern.
const NoPattern PatternID = -1

// Registry assigns unique numbers to message patterns. Registration happens
// before the runtime is frozen (the analogue of compile time); table sizes
// are fixed at freeze.
type Registry struct {
	names   []string
	arities []int
	byName  map[string]PatternID
	frozen  bool
}

// NewRegistry returns an empty pattern registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]PatternID)}
}

// Register assigns a PatternID to the named pattern with the given argument
// count. Registering the same name twice returns the existing ID if the
// arity matches and panics otherwise. Registering after freeze panics.
func (r *Registry) Register(name string, arity int) PatternID {
	if id, ok := r.byName[name]; ok {
		if r.arities[id] != arity {
			panic(fmt.Sprintf("core: pattern %q re-registered with arity %d (was %d)",
				name, arity, r.arities[id]))
		}
		return id
	}
	if r.frozen {
		panic(fmt.Sprintf("core: pattern %q registered after freeze", name))
	}
	if arity < 0 {
		panic(fmt.Sprintf("core: pattern %q has negative arity", name))
	}
	id := PatternID(len(r.names))
	r.names = append(r.names, name)
	r.arities = append(r.arities, arity)
	r.byName[name] = id
	return id
}

// Lookup returns the ID for a registered pattern name.
func (r *Registry) Lookup(name string) (PatternID, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// Name returns the pattern's name.
func (r *Registry) Name(id PatternID) string {
	if id < 0 || int(id) >= len(r.names) {
		return fmt.Sprintf("pattern(%d)", int(id))
	}
	return r.names[id]
}

// Arity returns the pattern's argument count.
func (r *Registry) Arity(id PatternID) int { return r.arities[id] }

// Count returns the number of registered patterns.
func (r *Registry) Count() int { return len(r.names) }

// Freeze forbids further registration; virtual function tables built after
// freeze cover all patterns.
func (r *Registry) Freeze() { r.frozen = true }

// Frozen reports whether the registry is frozen.
func (r *Registry) Frozen() bool { return r.frozen }
