package interp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKindsAndPredicates(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Undefined(), KindUndefined},
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Number(1.5), KindNumber},
		{String("s"), KindString},
		{ObjValue(NewObject(nil)), KindObject},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v: %v", c.v, c.v.Kind())
		}
	}
	if !Undefined().IsNullish() || !Null().IsNullish() || Bool(false).IsNullish() {
		t.Error("IsNullish")
	}
	if ObjValue(nil).Kind() != KindUndefined {
		t.Error("nil object wraps to undefined")
	}
}

func TestSameValueStrict(t *testing.T) {
	if SameValueStrict(Number(math.NaN()), Number(math.NaN())) {
		t.Error("NaN !== NaN")
	}
	if !SameValueStrict(Number(0), Number(math.Copysign(0, -1))) {
		t.Error("+0 === -0")
	}
	o := NewObject(nil)
	if !SameValueStrict(ObjValue(o), ObjValue(o)) || SameValueStrict(ObjValue(o), ObjValue(NewObject(nil))) {
		t.Error("object identity")
	}
	if SameValueStrict(String("1"), Number(1)) {
		t.Error("no cross-type equality")
	}
}

func TestToBoolean(t *testing.T) {
	falsy := []Value{Undefined(), Null(), Bool(false), Number(0),
		Number(math.Copysign(0, -1)), Number(math.NaN()), String("")}
	for _, v := range falsy {
		if ToBoolean(v) {
			t.Errorf("%v should be falsy", v)
		}
	}
	truthy := []Value{Bool(true), Number(1), Number(math.Inf(1)), String("0"),
		ObjValue(NewObject(nil))}
	for _, v := range truthy {
		if !ToBoolean(v) {
			t.Errorf("%v should be truthy", v)
		}
	}
}

func TestObjectPropertyOrder(t *testing.T) {
	o := NewObject(nil)
	o.SetSlot("b", Number(1), DefaultAttr)
	o.SetSlot("2", Number(2), DefaultAttr)
	o.SetSlot("a", Number(3), DefaultAttr)
	o.SetSlot("0", Number(4), DefaultAttr)
	keys := o.OwnKeys()
	want := []string{"0", "2", "b", "a"} // integer keys ascending, then insertion order
	if len(keys) != len(want) {
		t.Fatalf("keys: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key order: %v want %v", keys, want)
		}
	}
}

func TestDescriptorEnforcement(t *testing.T) {
	o := NewObject(nil)
	if !o.DefineOwn("x", &Property{Value: Number(1), Attr: 0}) {
		t.Fatal("initial define failed")
	}
	// Redefining a non-configurable, non-writable property must fail...
	if o.DefineOwn("x", &Property{Value: Number(2), Attr: DefaultAttr}) {
		t.Error("redefinition of locked property succeeded")
	}
	// ...unless nothing changes.
	if !o.DefineOwn("x", &Property{Value: Number(1), Attr: 0}) {
		t.Error("identical redefinition must be allowed")
	}
	if o.DeleteOwn("x") {
		t.Error("non-configurable delete must fail")
	}
	o.SetSlot("y", Number(1), DefaultAttr)
	if !o.DeleteOwn("y") || o.HasOwn("y") {
		t.Error("configurable delete")
	}
}

func TestArrayElementStorage(t *testing.T) {
	in := New(Config{})
	arr := in.NewArray(nil)
	arr.AppendElem(Number(1))
	arr.AppendElem(Number(2))
	if arr.ArrayLength() != 2 {
		t.Fatalf("length: %d", arr.ArrayLength())
	}
	// A sparse write far beyond the dense area lands in the property map.
	if err := in.SetProp(ObjValue(arr), "100000", Number(9), false); err != nil {
		t.Fatal(err)
	}
	if arr.ArrayLength() != 100001 {
		t.Errorf("sparse write length: %d", arr.ArrayLength())
	}
	v, err := in.GetPropKey(ObjValue(arr), "100000")
	if err != nil || v.Num() != 9 {
		t.Errorf("sparse read: %v %v", v, err)
	}
	// Truncation removes both dense and sparse elements.
	if err := in.SetProp(ObjValue(arr), "length", Number(1), false); err != nil {
		t.Fatal(err)
	}
	if arr.ArrayLength() != 1 || arr.HasOwn("100000") {
		t.Errorf("truncate failed: len=%d", arr.ArrayLength())
	}
}

// newTypedArray builds a one-element typed array outside any realm.
func newTypedArray(class string, kind ElemKind) *Object {
	o := newExoticObject(nil)
	o.Class, o.ElemKind = class, kind
	o.SetBuffer(&ArrayBuffer{Data: make([]byte, kind.Size())}, 0, 1)
	return o
}

// TestTypedArrayRoundTripProperty: every float64 survives a Float64Array
// store/load; int32 values survive Int32Array conversion.
func TestTypedArrayRoundTripProperty(t *testing.T) {
	f64 := newTypedArray("Float64Array", ElemFloat64)
	propF := func(x float64) bool {
		f64.TypedSet(0, x)
		got := f64.TypedGet(0)
		return got == x || (math.IsNaN(x) && math.IsNaN(got))
	}
	if err := quick.Check(propF, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	i32 := newTypedArray("Int32Array", ElemInt32)
	propI := func(x int32) bool {
		i32.TypedSet(0, float64(x))
		return i32.TypedGet(0) == float64(x)
	}
	if err := quick.Check(propI, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestClampedArrayRounding(t *testing.T) {
	o := newTypedArray("Uint8ClampedArray", ElemUint8Clamped)
	cases := map[float64]float64{-5: 0, 300: 255, 2.5: 2, 3.5: 4, 2.6: 3, math.NaN(): 0}
	for in, want := range cases {
		o.TypedSet(0, in)
		if got := o.TypedGet(0); got != want {
			t.Errorf("clamped(%v) = %v want %v", in, got, want)
		}
	}
}

func TestFuelAccounting(t *testing.T) {
	in := New(Config{Fuel: 100})
	if err := in.Burn(50); err != nil {
		t.Fatal(err)
	}
	if in.FuelUsed() != 50 {
		t.Errorf("FuelUsed: %d", in.FuelUsed())
	}
	err := in.Burn(100)
	abort, ok := IsAbort(err)
	if !ok || abort.Kind != AbortTimeout {
		t.Errorf("exhaustion must be a timeout abort: %v", err)
	}
}

func TestTypeOf(t *testing.T) {
	fn := NewObject(nil)
	fn.Native = func(*Interp, Value, []Value) (Value, error) { return Undefined(), nil }
	cases := map[string]Value{
		"undefined": Undefined(),
		"object":    Null(),
		"boolean":   Bool(true),
		"number":    Number(1),
		"string":    String(""),
		"function":  ObjValue(fn),
	}
	for want, v := range cases {
		if got := TypeOf(v); got != want {
			t.Errorf("TypeOf(%v) = %q want %q", v, got, want)
		}
	}
}
