// Package core implements the paper's primary contribution: the intra-node
// software architecture of ABCL/onAP1000 (Section 4). It provides concurrent
// objects with per-mode multiple virtual function tables, the integrated
// stack-based/queue-based scheduler, heap continuation frames for blocked
// invocations, reply-destination objects for now-type message passing, and
// selective message reception — plus the naive always-queue baseline used
// for the paper's Figure 6 comparison.
package core

import (
	"fmt"
	"math"
	"unsafe"
)

// Kind discriminates Value payloads. Per Section 2.3 of the paper, argument
// types are statically determined by the message pattern; Kind exists so the
// simulator can check that discipline and size packets.
type Kind uint8

// Value kinds.
const (
	KindNil Kind = iota
	KindInt
	KindBool
	KindFloat
	KindString
	KindRef // mail address of a concurrent object
	KindAny // opaque application payload (treated as immutable)
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindRef:
		return "ref"
	case KindAny:
		return "any"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a message argument or state variable: a basic value or a mail
// address (Section 2.1: "Messages can contain mail addresses of concurrent
// objects as well as basic values"). The zero Value is nil.
//
// The encoding is a scalar word and a reference word pair — 24 bytes with one
// pointer to scan, since frames, wire records and state arenas are made of
// Values — and the dynamic type of the reference is the kind: nil is Nil, a
// zero-size tag marks a scalar, a *byte is a string's data (its length in
// num), an *Object (a typed nil included) is a mail address (its node in
// num), and anything else is an AnyV payload. No constructor allocates but
// AnyV of a payload that would read as another kind — a *byte, an *Object,
// or one of this file's markers, which no caller outside the package can
// make — which it boxes; a nil payload gets a tag of its own instead.
type Value struct {
	num int64 // int, bool (0/1), float bits, a ref's node, or a string's length
	ref any   // the kind's tag, a string's data, a ref's *Object, or the payload
}

// The zero-size tags that mark the scalar kinds and a nil AnyV payload.
// Storing one in an interface takes no allocation.
type (
	intTag   struct{}
	boolTag  struct{}
	floatTag struct{}
	nilAny   struct{}
)

// anyBox holds an AnyV payload whose own type would read as another kind.
type anyBox struct{ v any }

// Nil is the zero Value.
var Nil Value

// IntV makes an integer Value.
func IntV(v int64) Value { return Value{num: v, ref: intTag{}} }

// BoolV makes a boolean Value.
func BoolV(v bool) Value {
	n := int64(0)
	if v {
		n = 1
	}
	return Value{num: n, ref: boolTag{}}
}

// FloatV makes a floating-point Value.
func FloatV(v float64) Value { return Value{num: int64(math.Float64bits(v)), ref: floatTag{}} }

// StrV makes a string Value.
func StrV(v string) Value {
	return Value{num: int64(len(v)), ref: unsafe.StringData(v)}
}

// RefV makes a mail-address Value.
func RefV(a Address) Value { return Value{num: int64(a.Node), ref: a.Obj} }

// AnyV wraps an opaque application payload. The payload must be treated as
// immutable by both sender and receiver: remote transmission does not deep
// copy, so mutation would violate the distributed-memory model.
func AnyV(v any) Value {
	switch v.(type) {
	case nil:
		return Value{ref: nilAny{}}
	case *byte, *Object, intTag, boolTag, floatTag, nilAny, *anyBox:
		return Value{ref: &anyBox{v}}
	}
	return Value{ref: v}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind {
	switch v.ref.(type) {
	case nil:
		return KindNil
	case intTag:
		return KindInt
	case boolTag:
		return KindBool
	case floatTag:
		return KindFloat
	case *byte:
		return KindString
	case *Object:
		return KindRef
	default:
		return KindAny
	}
}

// IsNil reports whether the value is the nil value.
func (v Value) IsNil() bool { return v.ref == nil }

// Int returns the integer payload; it panics if the kind differs.
func (v Value) Int() int64 {
	if _, ok := v.ref.(intTag); !ok {
		v.wrongKind(KindInt)
	}
	return v.num
}

// Bool returns the boolean payload; it panics if the kind differs.
func (v Value) Bool() bool {
	if _, ok := v.ref.(boolTag); !ok {
		v.wrongKind(KindBool)
	}
	return v.num != 0
}

// Float returns the float payload; it panics if the kind differs.
func (v Value) Float() float64 {
	if _, ok := v.ref.(floatTag); !ok {
		v.wrongKind(KindFloat)
	}
	return math.Float64frombits(uint64(v.num))
}

// Str returns the string payload; it panics if the kind differs.
func (v Value) Str() string {
	p, ok := v.ref.(*byte)
	if !ok {
		v.wrongKind(KindString)
	}
	// StrV took the pointer from an immutable string of this length.
	return unsafe.String(p, int(v.num))
}

// Ref returns the mail-address payload; it panics if the kind differs.
func (v Value) Ref() Address {
	obj, ok := v.ref.(*Object)
	if !ok {
		v.wrongKind(KindRef)
	}
	return Address{Node: int(v.num), Obj: obj}
}

// Any returns the opaque payload; it panics if the kind differs.
func (v Value) Any() any {
	switch p := v.ref.(type) {
	case nilAny:
		return nil
	case *anyBox:
		return p.v
	}
	if v.Kind() != KindAny {
		v.wrongKind(KindAny)
	}
	return v.ref
}

func (v Value) wrongKind(want Kind) {
	panic(fmt.Sprintf("core: value kind %v, want %v", v.Kind(), want))
}

func (v Value) String() string {
	switch v.Kind() {
	case KindNil:
		return "nil"
	case KindInt:
		return fmt.Sprintf("%d", v.num)
	case KindBool:
		return fmt.Sprintf("%t", v.num != 0)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindString:
		return fmt.Sprintf("%q", v.Str())
	case KindRef:
		return v.Ref().String()
	default:
		return fmt.Sprintf("any(%v)", v.Any())
	}
}

// SizeBytes estimates the wire size of the value for bandwidth modelling.
// Scalar values are one 8-byte word, as are mail addresses (node + pointer
// packed, per Section 5.2's (processor number, real pointer) pairs). An
// opaque payload is 32 bytes unless it reports its own size.
func (v Value) SizeBytes() int {
	switch p := v.ref.(type) {
	case nil, intTag, boolTag, floatTag, *Object:
		return 8
	case *byte:
		return 8 + int(v.num)
	case Sizer:
		return p.SizeBytes()
	default:
		return 32
	}
}

// Sizer lets opaque payloads report their wire size.
type Sizer interface {
	SizeBytes() int
}

// ArgsSize returns the combined wire size of a message's arguments.
func ArgsSize(args []Value) int {
	n := 0
	for _, a := range args {
		n += a.SizeBytes()
	}
	return n
}
