package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// --- frameQueue ------------------------------------------------------------

func TestFrameQueueFIFO(t *testing.T) {
	var q frameQueue
	if !q.empty() || q.len() != 0 {
		t.Fatal("zero queue must be empty")
	}
	for i := 0; i < 5; i++ {
		q.push(&Frame{Pattern: PatternID(i)})
	}
	if q.len() != 5 {
		t.Fatalf("len = %d, want 5", q.len())
	}
	for i := 0; i < 5; i++ {
		f := q.pop()
		if f == nil || f.Pattern != PatternID(i) {
			t.Fatalf("pop %d returned %v", i, f)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop of empty queue must be nil")
	}
}

func TestFrameQueuePopMatchingPositions(t *testing.T) {
	// Removing from head, middle, and tail must all preserve the remaining
	// order and fix up the tail pointer.
	build := func() *frameQueue {
		q := &frameQueue{}
		for i := 0; i < 4; i++ {
			q.push(&Frame{Pattern: PatternID(i)})
		}
		return q
	}
	for target := PatternID(0); target < 4; target++ {
		q := build()
		f := q.popMatching(func(p PatternID) bool { return p == target })
		if f == nil || f.Pattern != target {
			t.Fatalf("popMatching(%d) = %v", target, f)
		}
		if q.len() != 3 {
			t.Fatalf("len after removal = %d", q.len())
		}
		var rest []PatternID
		for f := q.pop(); f != nil; f = q.pop() {
			rest = append(rest, f.Pattern)
		}
		want := make([]PatternID, 0, 3)
		for i := PatternID(0); i < 4; i++ {
			if i != target {
				want = append(want, i)
			}
		}
		for i := range want {
			if rest[i] != want[i] {
				t.Fatalf("after removing %d: rest = %v, want %v", target, rest, want)
			}
		}
		// Tail must be intact: pushing still appends at the end.
		q2 := build()
		q2.popMatching(func(p PatternID) bool { return p == 3 }) // remove tail
		q2.push(&Frame{Pattern: 99})
		last := PatternID(-1)
		for f := q2.pop(); f != nil; f = q2.pop() {
			last = f.Pattern
		}
		if last != 99 {
			t.Fatal("tail pointer corrupted by popMatching")
		}
	}
}

func TestFrameQueuePopMatchingMiss(t *testing.T) {
	var q frameQueue
	q.push(&Frame{Pattern: 1})
	if q.popMatching(func(p PatternID) bool { return p == 2 }) != nil {
		t.Fatal("popMatching must return nil when nothing matches")
	}
	if q.len() != 1 {
		t.Fatal("miss must not modify the queue")
	}
}

// Property: any interleaving of pushes, pops and matched removals keeps the
// queue consistent with a reference slice model.
func TestFrameQueueModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q frameQueue
		var model []PatternID
		next := PatternID(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				q.push(&Frame{Pattern: next})
				model = append(model, next)
				next++
			case 1: // pop
				got := q.pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.Pattern != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2: // popMatching on even patterns
				match := func(p PatternID) bool { return p%2 == 0 }
				got := q.popMatching(match)
				idx := -1
				for i, p := range model {
					if match(p) {
						idx = i
						break
					}
				}
				if idx == -1 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.Pattern != model[idx] {
						return false
					}
					model = append(model[:idx:idx], model[idx+1:]...)
				}
			}
			if q.len() != len(model) {
				return false
			}
		}
		// Drain and compare.
		for _, want := range model {
			got := q.pop()
			if got == nil || got.Pattern != want {
				return false
			}
		}
		return q.pop() == nil && q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- schedQueue --------------------------------------------------------------

func TestSchedQueueFIFO(t *testing.T) {
	var q schedQueue
	objs := make([]*Object, 10)
	for i := range objs {
		objs[i] = &Object{}
		q.push(objs[i])
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := range objs {
		if q.pop() != objs[i] {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
	if q.pop() != nil || !q.empty() {
		t.Fatal("drained queue must be empty")
	}
}

func TestSchedQueueCompaction(t *testing.T) {
	// Interleaved pushes and pops beyond the compaction threshold must not
	// lose or reorder items.
	var q schedQueue
	rng := rand.New(rand.NewSource(3))
	var model []*Object
	for i := 0; i < 10000; i++ {
		if rng.Intn(3) > 0 || len(model) == 0 {
			o := &Object{}
			q.push(o)
			model = append(model, o)
		} else {
			got := q.pop()
			if got != model[0] {
				t.Fatalf("iteration %d: pop mismatch", i)
			}
			model = model[1:]
		}
	}
	for _, want := range model {
		if q.pop() != want {
			t.Fatal("drain mismatch after compactions")
		}
	}
}

// --- Value -------------------------------------------------------------------

// sized is an opaque payload that reports its own wire size.
type sized int

func (s sized) SizeBytes() int { return int(s) }

// Every kind survives the tag + scalar word + reference pair encoding bit
// for bit, and is sized on the wire exactly as the six-field encoding sized
// it (the want column was recorded before the re-encoding).
func TestValueRoundTrips(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 32 {
		t.Errorf("Value is %d bytes, want <= 32: frames, wire records and state arenas are made of these", sz)
	}
	if sz := unsafe.Sizeof(Object{}); sz > 160 {
		t.Errorf("Object is %d bytes, want <= 160: every object ever created keeps one", sz)
	}
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with payload bits
	obj := &Object{node: 3}
	slice := []int{1, 2}
	cases := []struct {
		name string
		v    Value
		kind Kind
		same func(Value) bool
		size int
	}{
		{"nil", Nil, KindNil, func(v Value) bool { return v.IsNil() }, 8},
		{"int", IntV(-42), KindInt, func(v Value) bool { return v.Int() == -42 }, 8},
		{"int-min", IntV(math.MinInt64), KindInt, func(v Value) bool { return v.Int() == math.MinInt64 }, 8},
		{"true", BoolV(true), KindBool, func(v Value) bool { return v.Bool() }, 8},
		{"false", BoolV(false), KindBool, func(v Value) bool { return !v.Bool() }, 8},
		{"float", FloatV(2.5), KindFloat, func(v Value) bool { return v.Float() == 2.5 }, 8},
		{"nan-payload", FloatV(nan), KindFloat, func(v Value) bool { return math.Float64bits(v.Float()) == math.Float64bits(nan) }, 8},
		{"neg-zero", FloatV(math.Copysign(0, -1)), KindFloat, func(v Value) bool { return v.Float() == 0 && math.Signbit(v.Float()) }, 8},
		{"string", StrV("abcd"), KindString, func(v Value) bool { return v.Str() == "abcd" }, 12},
		{"empty-string", StrV(""), KindString, func(v Value) bool { return v.Str() == "" }, 8},
		{"ref", RefV(obj.Addr()), KindRef, func(v Value) bool { return v.Ref() == Address{Node: 3, Obj: obj} }, 8},
		{"nil-obj-ref", RefV(Address{Node: 5}), KindRef, func(v Value) bool { return v.Ref() == Address{Node: 5} && v.Ref().IsNil() }, 8},
		{"any", AnyV(slice), KindAny, func(v Value) bool { return &v.Any().([]int)[0] == &slice[0] }, 32},
		{"any-nil", AnyV(nil), KindAny, func(v Value) bool { return v.Any() == nil }, 32},
		{"any-sizer", AnyV(sized(100)), KindAny, func(v Value) bool { return v.Any() == sized(100) }, 100},
	}
	total := 0
	args := make([]Value, 0, len(cases))
	for _, c := range cases {
		v := c.v // a copy is the same value
		if v.Kind() != c.kind || !c.same(v) {
			t.Errorf("%s: round trip lost the value: %v (kind %v)", c.name, v, v.Kind())
		}
		if v.IsNil() != (c.kind == KindNil) {
			t.Errorf("%s: IsNil = %v", c.name, v.IsNil())
		}
		if got := v.SizeBytes(); got != c.size {
			t.Errorf("%s: SizeBytes = %d, want %d", c.name, got, c.size)
		}
		total += c.size
		args = append(args, v)
	}
	if got := ArgsSize(args); got != total {
		t.Errorf("ArgsSize = %d, want %d", got, total)
	}
	if ArgsSize(nil) != 0 {
		t.Error("empty args have zero size")
	}
}

// No constructor on the message path touches the allocator, whether or not
// the compiler can see the string.
func TestValueConstructorsDoNotAllocate(t *testing.T) {
	obj := &Object{node: 3}
	name := t.Name() + "/dynamic"
	var sink Value
	n := testing.AllocsPerRun(100, func() {
		sink = IntV(int64(len(name)))
		sink = BoolV(sink.Int() > 3)
		sink = FloatV(float64(obj.node) / 7)
		sink = RefV(obj.Addr())
		sink = StrV("constant")
		sink = StrV(name)
	})
	if n != 0 || sink.Str() != name {
		t.Errorf("constructors allocated %.0f times per run (last value %v), want 0", n, sink)
	}
}

func TestValueKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading int as string")
		}
	}()
	_ = IntV(1).Str()
}

func TestValueIntRoundTripProperty(t *testing.T) {
	f := func(x int64) bool { return IntV(x).Int() == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{IntV(7), "7"},
		{BoolV(true), "true"},
		{StrV("x"), `"x"`},
		{FloatV(1.5), "1.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

type sizedPayload struct{ n int }

func (s sizedPayload) SizeBytes() int { return s.n }

func TestValueSizerInterface(t *testing.T) {
	if AnyV(sizedPayload{n: 100}).SizeBytes() != 100 {
		t.Error("Sizer payloads must report their own size")
	}
}

// --- Registry ------------------------------------------------------------------

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	a := r.Register("a", 2)
	b := r.Register("b", 0)
	if a == b {
		t.Fatal("distinct patterns must get distinct ids")
	}
	if got := r.Register("a", 2); got != a {
		t.Fatal("re-registration must return the same id")
	}
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Name(a) != "a" || r.Arity(a) != 2 {
		t.Fatal("name/arity lookup")
	}
	if id, ok := r.Lookup("b"); !ok || id != b {
		t.Fatal("lookup by name")
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Fatal("lookup of unknown name")
	}
	if r.Name(PatternID(99)) == "" {
		t.Fatal("out-of-range name must still render")
	}
}

func TestRegistryArityConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Register("a", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected arity-conflict panic")
		}
	}()
	r.Register("a", 3)
}

func TestRegistryNegativeArityPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected negative-arity panic")
		}
	}()
	r.Register("a", -1)
}

func TestRegistryDenseIDs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		id := r.Register(string(rune('a'+i)), 0)
		if int(id) != i {
			t.Fatalf("ids must be dense: got %d at step %d", id, i)
		}
	}
}

// --- Frame ---------------------------------------------------------------------

func TestFrameArgBounds(t *testing.T) {
	f := &Frame{Args: []Value{IntV(1)}}
	if f.Arg(0).Int() != 1 {
		t.Error("in-range arg")
	}
	if !f.Arg(1).IsNil() || !f.Arg(-1).IsNil() {
		t.Error("out-of-range args must be Nil")
	}
}

// A local creation touches the allocator only when an arena runs out: the
// Object is carved from the runtime's object arena, its state box and
// constructor arguments from its value arena, and the lazy initializer is
// handed the node's one InitCtx. AllocsPerRun reports whole allocations per
// run, so a run is a batch of creations.
func TestNewLocalAllocatesArenaBlocksOnly(t *testing.T) {
	const batch = 100
	r := newTestRT(t, Options{})
	tick := r.Reg.Register("tick", 0)
	poke := r.Reg.Register("poke", 0)
	inited := 0
	node := r.DefineClass("node", 4, func(ic *InitCtx) {
		ic.SetState(0, ic.CtorArg(0))
		inited++
	})
	node.Method(poke, func(ctx *Ctx) {})
	var perBatch float64
	driver := r.DefineClass("driver", 0, nil)
	driver.Method(tick, func(ctx *Ctx) {
		self := RefV(ctx.Self())
		perBatch = testing.AllocsPerRun(20, func() {
			for i := 0; i < batch; i++ {
				ctx.SendPast(ctx.NewLocal(node, self), poke) // create, then force the lazy init
			}
		})
	})
	r.Inject(r.NewObjectOn(0, driver), tick)
	run(t, r)
	if inited != 21*batch {
		t.Fatalf("%d objects initialized, want %d", inited, 21*batch)
	}
	if per := perBatch / batch; per >= 0.1 {
		t.Errorf("%.2f allocations per local create, want < 0.1 (arena blocks only)", per)
	}
}
