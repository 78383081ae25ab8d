package interp

import "fmt"

// Throw is a JavaScript exception propagating as a Go error.
type Throw struct {
	Val Value
}

func (t *Throw) Error() string {
	if t.Val.IsObject() {
		o := t.Val.Obj()
		name, msg := "Error", ""
		if p, ok := o.getOwn("name"); ok && p.Value.Kind() == KindString {
			name = p.Value.Str()
		} else if o.Proto != nil {
			if p, ok := o.Proto.getOwn("name"); ok && p.Value.Kind() == KindString {
				name = p.Value.Str()
			}
		}
		if p, ok := o.getOwn("message"); ok && p.Value.Kind() == KindString {
			msg = p.Value.Str()
		}
		if msg != "" {
			return name + ": " + msg
		}
		return name
	}
	return "Throw: " + DebugString(t.Val)
}

// AbortKind classifies non-exception terminations.
type AbortKind int

// Abort kinds.
const (
	AbortTimeout  AbortKind = iota // fuel exhausted
	AbortCrash                     // simulated engine crash (e.g. memory safety)
	AbortLimit                     // internal limit (recursion depth, regex budget)
	AbortDeadline                  // wall-clock watchdog fired (Config.Watchdog)
)

func (k AbortKind) String() string {
	switch k {
	case AbortTimeout:
		return "timeout"
	case AbortCrash:
		return "crash"
	case AbortDeadline:
		return "deadline"
	default:
		return "limit"
	}
}

// Abort is a non-exception engine termination: a timeout, a simulated
// crash, or an internal resource limit.
type Abort struct {
	Kind AbortKind
	Msg  string
}

func (a *Abort) Error() string { return fmt.Sprintf("engine %s: %s", a.Kind, a.Msg) }

// IsThrow reports whether err is a JS exception and returns it.
func IsThrow(err error) (*Throw, bool) {
	t, ok := err.(*Throw)
	return t, ok
}

// IsAbort reports whether err is an engine abort and returns it.
func IsAbort(err error) (*Abort, bool) {
	a, ok := err.(*Abort)
	return a, ok
}

// Proto resolves a realm prototype by name, invoking the prototype-miss
// hook once when the name is absent (lazily-installed stdlib sections).
func (in *Interp) Proto(kind string) *Object {
	p := in.Protos[kind]
	if p == nil && in.ProtoMiss != nil {
		in.ProtoMiss(in, kind)
		p = in.Protos[kind]
	}
	return p
}

// NewError builds an Error object of the given kind ("TypeError", ...) with
// a message, using the realm's prototypes when available.
func (in *Interp) NewError(kind, msg string) Value {
	proto := in.Proto(kind)
	if proto == nil {
		proto = in.Proto("Error")
	}
	o := NewObject(proto)
	o.Class = "Error"
	o.SetSlot("message", String(msg), Writable|Configurable)
	if proto == nil {
		// Bare interpreter without the stdlib installed: keep the name on
		// the instance so classification still works.
		o.SetSlot("name", String(kind), Writable|Configurable)
	}
	return ObjValue(o)
}

// Throwf raises a JS exception of the given error kind.
func (in *Interp) Throwf(kind, format string, args ...interface{}) error {
	return &Throw{Val: in.NewError(kind, fmt.Sprintf(format, args...))}
}

// TypeErrorf raises a TypeError.
func (in *Interp) TypeErrorf(format string, args ...interface{}) error {
	return in.Throwf("TypeError", format, args...)
}

// RangeErrorf raises a RangeError.
func (in *Interp) RangeErrorf(format string, args ...interface{}) error {
	return in.Throwf("RangeError", format, args...)
}

// SyntaxErrorf raises a SyntaxError.
func (in *Interp) SyntaxErrorf(format string, args ...interface{}) error {
	return in.Throwf("SyntaxError", format, args...)
}

// ReferenceErrorf raises a ReferenceError.
func (in *Interp) ReferenceErrorf(format string, args ...interface{}) error {
	return in.Throwf("ReferenceError", format, args...)
}

// ErrorName extracts the constructor name ("TypeError", ...) from a thrown
// value, for outcome classification and the dedup tree.
func ErrorName(v Value) string {
	if !v.IsObject() {
		return "value"
	}
	o := v.Obj()
	for cur := o; cur != nil; cur = cur.Proto {
		if p, ok := cur.getOwn("name"); ok && p.Value.Kind() == KindString {
			return p.Value.Str()
		}
	}
	return o.Class
}
