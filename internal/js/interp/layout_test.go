package interp

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestValueLayout pins the three-word Value: a wider Value multiplies
// into every slot, element, frame and argument an execution allocates.
// Value must also stay incomparable (the zero-size func array), so that
// == cannot compile and silently compare string data pointers instead of
// contents.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("Value is %d bytes, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare string pointers")
	}
}

// TestObjectLayout bounds the packed Object: rare-class state belongs
// behind ext and dictionary storage behind dict. Object is 232 bytes, in
// the 240-byte allocation size class; a field that pushes it into the
// 256-byte class fails here.
func TestObjectLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got > 240 {
		t.Errorf("Object is %d bytes, want at most 240", got)
	}
}

// TestValueRoundTrip checks every payload survives its encoding and that
// each accessor answers the zero value for the other kinds.
func TestValueRoundTrip(t *testing.T) {
	o := NewObject(nil)
	long := string(make([]byte, 1<<12))
	for _, s := range []string{"", "a", "héllo", long, long[100:200]} {
		if v := String(s); v.Kind() != KindString || v.Str() != s || v.Num() != 0 || v.Obj() != nil || v.BoolVal() {
			t.Errorf("String(%q) round trip failed", s[:min(len(s), 8)])
		}
	}
	for _, f := range []float64{0, -1.5, 1e300, 5e-324} {
		if v := Number(f); v.Num() != f || v.Str() != "" || v.Obj() != nil {
			t.Errorf("Number(%v) round trip failed", f)
		}
	}
	if !Bool(true).BoolVal() || Bool(false).BoolVal() || Bool(true).Num() != 0 || Bool(true).Str() != "" {
		t.Error("Bool round trip failed")
	}
	if v := ObjValue(o); v.Obj() != o || v.Str() != "" || v.Num() != 0 {
		t.Error("ObjValue round trip failed")
	}
	if !ObjValue(nil).IsUndefined() {
		t.Error("ObjValue(nil) is not undefined")
	}
	if !SameValueStrict(String("ab"+long[:1]), String("ab\x00")) {
		t.Error("equal strings with distinct backing arrays compare unequal")
	}
}
