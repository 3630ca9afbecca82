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
// The encoding is a tag, a scalar word and a reference word pair — 32 bytes
// with one pointer to scan, since frames, wire records and state arenas are
// made of Values. Only AnyV can allocate: an *Object and a string's data
// pointer are pointer-shaped, so boxing them in the pair is free.
type Value struct {
	kind Kind
	num  int64 // int, bool (0/1), float bits, a ref's node, or a string's length
	ref  any   // a string's data (*byte), a ref's *Object, or the opaque payload
}

// Nil is the zero Value.
var Nil Value

// IntV makes an integer Value.
func IntV(v int64) Value { return Value{kind: KindInt, num: v} }

// BoolV makes a boolean Value.
func BoolV(v bool) Value {
	n := int64(0)
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// FloatV makes a floating-point Value.
func FloatV(v float64) Value { return Value{kind: KindFloat, num: int64(math.Float64bits(v))} }

// StrV makes a string Value.
func StrV(v string) Value {
	return Value{kind: KindString, num: int64(len(v)), ref: unsafe.StringData(v)}
}

// RefV makes a mail-address Value.
func RefV(a Address) Value { return Value{kind: KindRef, num: int64(a.Node), ref: a.Obj} }

// AnyV wraps an opaque application payload. The payload must be treated as
// immutable by both sender and receiver: remote transmission does not deep
// copy, so mutation would violate the distributed-memory model.
func AnyV(v any) Value { return Value{kind: KindAny, ref: v} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// Int returns the integer payload; it panics if the kind differs.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.num
}

// Bool returns the boolean payload; it panics if the kind differs.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.num != 0
}

// Float returns the float payload; it panics if the kind differs.
func (v Value) Float() float64 {
	v.mustBe(KindFloat)
	return math.Float64frombits(uint64(v.num))
}

// Str returns the string payload; it panics if the kind differs.
func (v Value) Str() string {
	v.mustBe(KindString)
	// StrV took the pointer from an immutable string of this length.
	return unsafe.String(v.ref.(*byte), int(v.num))
}

// Ref returns the mail-address payload; it panics if the kind differs.
func (v Value) Ref() Address {
	v.mustBe(KindRef)
	obj, _ := v.ref.(*Object)
	return Address{Node: int(v.num), Obj: obj}
}

// Any returns the opaque payload; it panics if the kind differs.
func (v Value) Any() any {
	v.mustBe(KindAny)
	return v.ref
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("core: value kind %v, want %v", v.kind, k))
	}
}

func (v Value) String() string {
	switch v.kind {
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
	case KindAny:
		return fmt.Sprintf("any(%v)", v.ref)
	default:
		return "?"
	}
}

// SizeBytes estimates the wire size of the value for bandwidth modelling.
// Scalar values are one 8-byte word, as are mail addresses (node + pointer
// packed, per Section 5.2's (processor number, real pointer) pairs).
func (v Value) SizeBytes() int {
	switch v.kind {
	case KindNil, KindInt, KindBool, KindFloat, KindRef:
		return 8
	case KindString:
		return 8 + int(v.num)
	case KindAny:
		if s, ok := v.ref.(Sizer); ok {
			return s.SizeBytes()
		}
		return 32
	default:
		return 8
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
