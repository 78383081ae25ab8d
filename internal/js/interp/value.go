// Package interp implements the tree-walking ECMAScript evaluator shared by
// all engine variants. It provides values, objects with prototype chains and
// property descriptors, abstract operations (ToNumber, ToString, ...),
// strict-mode semantics, a deterministic step budget standing in for wall
// time, and a hook interface through which seeded engine defects intercept
// behaviour.
package interp

import (
	"math"
	"unsafe"

	"comfort/internal/js/jsnum"
)

// Kind enumerates the ECMAScript language types (Symbol excluded; see
// DESIGN.md for the supported subset).
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject

	// kindPending is an internal sentinel marking a shape-mode slot whose
	// lazy property has not materialised yet (see Object.slots). It never
	// escapes the property layer: every slot read resolves the lazy entry
	// before handing the value to the evaluator.
	kindPending Kind = 0xFF
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		return "object"
	}
}

// Value is an ECMAScript language value. The zero Value is undefined.
//
// A Value is three words: ref is the only pointer, bits the scalar
// payload and kind the type tag.
//   - string: ref is unsafe.StringData, bits the byte length;
//   - number: bits is math.Float64bits;
//   - bool: bits is 0 or 1;
//   - object: ref is the *Object.
//
// Every evaluator frame, slot, element and argument holds Values, so their
// width sets most of the bytes an execution allocates (and the garbage
// collector scans). ref is an unsafe.Pointer, so the collector traces
// string bytes and objects through it exactly as through a string header
// or *Object. The zero-size func array makes Value incomparable: == would
// compare string data pointers instead of contents, so the compiler must
// reject it (use SameValueStrict).
type Value struct {
	_    [0]func()
	ref  unsafe.Pointer
	bits uint64
	kind Kind
}

// pendingValue is the kindPending slot sentinel (see Object.slots).
var pendingValue = Value{kind: kindPending}

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool wraps a Go bool.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, bits: 1}
	}
	return Value{kind: KindBool}
}

// Number wraps a float64.
func Number(f float64) Value { return Value{kind: KindNumber, bits: math.Float64bits(f)} }

// String wraps a Go string.
func String(s string) Value {
	return Value{kind: KindString, ref: unsafe.Pointer(unsafe.StringData(s)), bits: uint64(len(s))}
}

// ObjValue wraps an object; a nil object yields undefined.
func ObjValue(o *Object) Value {
	if o == nil {
		return Value{}
	}
	return Value{kind: KindObject, ref: unsafe.Pointer(o)}
}

// Kind reports the value's language type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNullish reports whether v is undefined or null.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// IsObject reports whether v is an object.
func (v Value) IsObject() bool { return v.kind == KindObject }

// BoolVal returns the bool payload, or false for other kinds.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.bits != 0 }

// Num returns the number payload, or 0 for other kinds.
func (v Value) Num() float64 {
	if v.kind != KindNumber {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// Str returns the string payload, or "" for other kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ref), int(v.bits))
}

// Obj returns the object payload, or nil.
func (v Value) Obj() *Object {
	if v.kind != KindObject {
		return nil
	}
	return (*Object)(v.ref)
}

// SameValueStrict implements the === comparison for two values without any
// coercion (NaN !== NaN, +0 === -0).
func SameValueStrict(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.bits == b.bits
	case KindNumber:
		return a.Num() == b.Num() // NaN != NaN per IEEE
	case KindString:
		return a.Str() == b.Str()
	default:
		return a.ref == b.ref
	}
}

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if o := v.Obj(); o != nil && o.IsCallable() {
			return "function"
		}
		return "object"
	}
}

// ToBoolean implements ECMA-262 ToBoolean.
func ToBoolean(v Value) bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.bits != 0
	case KindNumber:
		f := v.Num()
		return f == f && f != 0 // false for NaN and ±0
	case KindString:
		return v.bits != 0
	default:
		return true
	}
}

// FormatNumber renders a number value per the ToString(Number) algorithm.
func FormatNumber(f float64) string { return jsnum.Format(f) }
