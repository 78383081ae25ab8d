package builtins

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
)

// typedKinds maps constructor names to element kinds.
var typedKinds = []struct {
	name string
	kind interp.ElemKind
}{
	{"Int8Array", interp.ElemInt8},
	{"Uint8Array", interp.ElemUint8},
	{"Uint8ClampedArray", interp.ElemUint8Clamped},
	{"Int16Array", interp.ElemInt16},
	{"Uint16Array", interp.ElemUint16},
	{"Int32Array", interp.ElemInt32},
	{"Uint32Array", interp.ElemUint32},
	{"Float32Array", interp.ElemFloat32},
	{"Float64Array", interp.ElemFloat64},
}

func installTypedArrays(r *registry) {
	in := r.in

	// ArrayBuffer.
	abProto := in.NewObject(in.Protos["Object"])
	abCtor := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		n, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if n < 0 || n > 1<<26 {
			return interp.Undefined(), in.RangeErrorf("Invalid array buffer length")
		}
		if err := in.Burn(int64(n) / 64); err != nil {
			return interp.Undefined(), err
		}
		o := in.NewExoticObject(in.Protos["ArrayBuffer"])
		o.Class = "ArrayBuffer"
		o.SetBuffer(&interp.ArrayBuffer{Data: make([]byte, int(n))}, 0, 0)
		o.SetSlot("byteLength", interp.Number(n), 0)
		return interp.ObjValue(o), nil
	}
	r.ctor("ArrayBuffer", 1, abProto, abCtor, abCtor)

	// Shared %TypedArray%.prototype methods are installed per concrete type
	// (our subset has no abstract intrinsic object).
	for _, tk := range typedKinds {
		installOneTypedArray(r, tk.name, tk.kind)
	}

	installDataView(r)
}

func installOneTypedArray(r *registry, name string, kind interp.ElemKind) {
	in := r.in
	proto := in.NewObject(in.Protos["Object"])
	size := kind.Size()

	construct := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o := in.NewExoticObject(in.Protos[name])
		o.Class = name
		o.ElemKind = kind
		a0 := arg(args, 0)
		switch {
		case a0.IsUndefined():
			o.SetBuffer(&interp.ArrayBuffer{}, 0, 0)
		case a0.IsObject() && a0.Obj().Class == "ArrayBuffer":
			buf := a0.Obj().Buf()
			off := 0.0
			if ov := arg(args, 1); !ov.IsUndefined() {
				var err error
				off, err = in.ToInteger(ov)
				if err != nil {
					return interp.Undefined(), err
				}
			}
			if off < 0 || off > float64(len(buf.Data)) || jsnum.SafeInt(off)%size != 0 {
				return interp.Undefined(), in.RangeErrorf("start offset of %s should be a multiple of %d", name, size)
			}
			length := (len(buf.Data) - jsnum.SafeInt(off)) / size
			if lv := arg(args, 2); !lv.IsUndefined() {
				lf, err := in.ToInteger(lv)
				if err != nil {
					return interp.Undefined(), err
				}
				if lf < 0 || jsnum.SafeInt(lf)*size+jsnum.SafeInt(off) > len(buf.Data) {
					return interp.Undefined(), in.RangeErrorf("Invalid typed array length")
				}
				length = jsnum.SafeInt(lf)
			}
			o.SetBuffer(buf, jsnum.SafeInt(off), length)
			return interp.ObjValue(o), nil
		case a0.IsObject() && (a0.Obj().IsArray() || a0.Obj().ElemKind != interp.ElemNone):
			var src []interp.Value
			if a0.Obj().IsArray() {
				src = a0.Obj().ArrayElems()
			} else {
				for i := 0; i < a0.Obj().ArrayLen(); i++ {
					src = append(src, interp.Number(a0.Obj().TypedGet(i)))
				}
			}
			o.SetBuffer(&interp.ArrayBuffer{Data: make([]byte, len(src)*size)}, 0, len(src))
			for i, v := range src {
				n, err := in.ToNumber(v)
				if err != nil {
					return interp.Undefined(), err
				}
				o.TypedSet(i, n)
			}
			return interp.ObjValue(o), nil
		default:
			// Numeric length: the ToInteger conversion here is the
			// SpiderMonkey Listing-3 conformance rule (3.14 → 3).
			n, err := in.ToInteger(a0)
			if err != nil {
				return interp.Undefined(), err
			}
			nn, err2 := in.ToNumber(a0)
			if err2 == nil && (nn < 0 || math.IsInf(nn, 0)) {
				return interp.Undefined(), in.RangeErrorf("Invalid typed array length: %v", nn)
			}
			if n < 0 || n > 1<<24 {
				return interp.Undefined(), in.RangeErrorf("Invalid typed array length")
			}
			if err := in.Burn(int64(n) / 32); err != nil {
				return interp.Undefined(), err
			}
			o.SetBuffer(&interp.ArrayBuffer{Data: make([]byte, int(n)*size)}, 0, int(n))
		}
		return interp.ObjValue(o), nil
	}
	callErr := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined(), in.TypeErrorf("Constructor %s requires 'new'", name)
	}
	ctor := r.ctor(name, 3, proto, callErr, construct)
	ctor.SetSlot("BYTES_PER_ELEMENT", interp.Number(float64(size)), 0)
	proto.SetSlot("BYTES_PER_ELEMENT", interp.Number(float64(size)), 0)

	thisTyped := func(in *interp.Interp, this interp.Value, method string) (*interp.Object, error) {
		if this.IsObject() && this.Obj().Class == name {
			return this.Obj(), nil
		}
		return nil, in.TypeErrorf("%s called on incompatible receiver", method)
	}

	// %TypedArray%.prototype.set — the JSC Listing-5 API: a String source is
	// an array-like whose elements convert via ToNumber.
	r.method(proto, name+".prototype.set", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.set")
		if err != nil {
			return interp.Undefined(), err
		}
		offF, err := in.ToInteger(arg(args, 1))
		if err != nil {
			return interp.Undefined(), err
		}
		if offF < 0 || offF > float64(o.ArrayLen()) {
			return interp.Undefined(), in.RangeErrorf("offset is out of bounds")
		}
		off := jsnum.SafeInt(offF)
		src := arg(args, 0)
		var items []interp.Value
		switch {
		case src.IsObject() && src.Obj().IsArray():
			items = src.Obj().ArrayElems()
		case src.IsObject() && src.Obj().ElemKind != interp.ElemNone && src.Obj().Class != "DataView":
			for i := 0; i < src.Obj().ArrayLen(); i++ {
				items = append(items, interp.Number(src.Obj().TypedGet(i)))
			}
		default:
			// Generic array-like path: ToObject(source), read length, then
			// indexed elements. Strings land here per ECMA-262.
			so, err := in.ToObject(src)
			if err != nil {
				return interp.Undefined(), err
			}
			lenV, err := in.GetPropKey(interp.ObjValue(so), "length")
			if err != nil {
				return interp.Undefined(), err
			}
			n, err := in.ToInteger(lenV)
			if err != nil {
				return interp.Undefined(), err
			}
			for i := 0; i < jsnum.SafeInt(n); i++ {
				v, err := in.GetPropKey(interp.ObjValue(so), jsnum.Format(float64(i)))
				if err != nil {
					return interp.Undefined(), err
				}
				items = append(items, v)
			}
		}
		if off+len(items) > o.ArrayLen() {
			return interp.Undefined(), in.RangeErrorf("offset is out of bounds")
		}
		for i, v := range items {
			n, err := in.ToNumber(v)
			if err != nil {
				return interp.Undefined(), err
			}
			o.TypedSet(off+i, n)
		}
		return interp.Undefined(), nil
	})

	r.method(proto, name+".prototype.fill", 3, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.fill")
		if err != nil {
			return interp.Undefined(), err
		}
		n, err := in.ToNumber(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		start, end, err := sliceRange(in, restArgs(args, 1), o.ArrayLen())
		if err != nil {
			return interp.Undefined(), err
		}
		for i := start; i < end; i++ {
			o.TypedSet(i, n)
		}
		return this, nil
	})

	r.method(proto, name+".prototype.subarray", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.subarray")
		if err != nil {
			return interp.Undefined(), err
		}
		start, end, err := sliceRange(in, args, o.ArrayLen())
		if err != nil {
			return interp.Undefined(), err
		}
		sub := in.NewExoticObject(in.Protos[name])
		sub.Class = name
		sub.ElemKind = kind
		sub.SetBuffer(o.Buf(), o.ByteOff()+start*size, end-start)
		return interp.ObjValue(sub), nil
	})

	r.method(proto, name+".prototype.indexOf", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.indexOf")
		if err != nil {
			return interp.Undefined(), err
		}
		target, err := in.ToNumber(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		for i := 0; i < o.ArrayLen(); i++ {
			if o.TypedGet(i) == target {
				return interp.Number(float64(i)), nil
			}
		}
		return interp.Number(-1), nil
	})

	join := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.join")
		if err != nil {
			return interp.Undefined(), err
		}
		sep := ","
		if s := arg(args, 0); !s.IsUndefined() {
			sep, err = in.ToString(s)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		var parts []string
		for i := 0; i < o.ArrayLen(); i++ {
			parts = append(parts, jsnum.Format(o.TypedGet(i)))
		}
		return interp.String(strings.Join(parts, sep)), nil
	}
	r.method(proto, name+".prototype.join", 1, join)
	r.method(proto, name+".prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return join(in, this, nil)
	})

	r.method(proto, name+".prototype.slice", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisTyped(in, this, name+".prototype.slice")
		if err != nil {
			return interp.Undefined(), err
		}
		start, end, err := sliceRange(in, args, o.ArrayLen())
		if err != nil {
			return interp.Undefined(), err
		}
		out := in.NewExoticObject(in.Protos[name])
		out.Class = name
		out.ElemKind = kind
		out.SetBuffer(&interp.ArrayBuffer{Data: make([]byte, (end-start)*size)}, 0, end-start)
		for i := start; i < end; i++ {
			out.TypedSet(i-start, o.TypedGet(i))
		}
		return interp.ObjValue(out), nil
	})
}

func installDataView(r *registry) {
	in := r.in
	proto := in.NewObject(in.Protos["Object"])

	construct := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		a0 := arg(args, 0)
		if !a0.IsObject() || a0.Obj().Class != "ArrayBuffer" {
			return interp.Undefined(), in.TypeErrorf("First argument to DataView constructor must be an ArrayBuffer")
		}
		buf := a0.Obj().Buf()
		off := 0.0
		var err error
		if ov := arg(args, 1); !ov.IsUndefined() {
			off, err = in.ToInteger(ov)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		if off < 0 || off > float64(len(buf.Data)) || math.IsNaN(off) {
			return interp.Undefined(), in.RangeErrorf("Start offset %v is outside the bounds of the buffer", off)
		}
		length := len(buf.Data) - jsnum.SafeInt(off)
		if lv := arg(args, 2); !lv.IsUndefined() {
			lf, err := in.ToInteger(lv)
			if err != nil {
				return interp.Undefined(), err
			}
			if lf < 0 || jsnum.SafeInt(off)+jsnum.SafeInt(lf) > len(buf.Data) {
				return interp.Undefined(), in.RangeErrorf("Invalid DataView length")
			}
			length = jsnum.SafeInt(lf)
		}
		o := in.NewExoticObject(in.Protos["DataView"])
		o.Class = "DataView"
		o.ElemKind = interp.ElemUint8
		o.SetBuffer(buf, jsnum.SafeInt(off), length)
		o.SetSlot("byteLength", interp.Number(float64(length)), 0)
		o.SetSlot("byteOffset", interp.Number(off), 0)
		return interp.ObjValue(o), nil
	}
	callErr := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined(), in.TypeErrorf("Constructor DataView requires 'new'")
	}
	r.ctor("DataView", 3, proto, callErr, construct)

	thisDV := func(in *interp.Interp, this interp.Value, method string) (*interp.Object, error) {
		if this.IsObject() && this.Obj().Class == "DataView" {
			return this.Obj(), nil
		}
		return nil, in.TypeErrorf("%s called on incompatible receiver", method)
	}

	type access struct {
		name string
		size int
		get  func(d []byte, le bool) float64
		put  func(d []byte, v float64, le bool)
	}
	rd16 := func(d []byte, le bool) uint16 {
		if le {
			return uint16(d[0]) | uint16(d[1])<<8
		}
		return uint16(d[1]) | uint16(d[0])<<8
	}
	wr16 := func(d []byte, v uint16, le bool) {
		if le {
			d[0], d[1] = byte(v), byte(v>>8)
		} else {
			d[1], d[0] = byte(v), byte(v>>8)
		}
	}
	rd32 := func(d []byte, le bool) uint32 {
		if le {
			return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
		}
		return uint32(d[3]) | uint32(d[2])<<8 | uint32(d[1])<<16 | uint32(d[0])<<24
	}
	wr32 := func(d []byte, v uint32, le bool) {
		if le {
			d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		} else {
			d[3], d[2], d[1], d[0] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
	}
	rd64 := func(d []byte, le bool) uint64 {
		if le {
			return uint64(rd32(d, true)) | uint64(rd32(d[4:], true))<<32
		}
		return uint64(rd32(d[4:], false)) | uint64(rd32(d, false))<<32
	}
	wr64 := func(d []byte, v uint64, le bool) {
		if le {
			wr32(d, uint32(v), true)
			wr32(d[4:], uint32(v>>32), true)
		} else {
			wr32(d[4:], uint32(v), false)
			wr32(d, uint32(v>>32), false)
		}
	}

	accessors := []access{
		{"Int8", 1,
			func(d []byte, le bool) float64 { return float64(int8(d[0])) },
			func(d []byte, v float64, le bool) { d[0] = byte(int8(int64(v))) }},
		{"Uint8", 1,
			func(d []byte, le bool) float64 { return float64(d[0]) },
			func(d []byte, v float64, le bool) { d[0] = byte(uint8(int64(v))) }},
		{"Int16", 2,
			func(d []byte, le bool) float64 { return float64(int16(rd16(d, le))) },
			func(d []byte, v float64, le bool) { wr16(d, uint16(int64(v)), le) }},
		{"Uint16", 2,
			func(d []byte, le bool) float64 { return float64(rd16(d, le)) },
			func(d []byte, v float64, le bool) { wr16(d, uint16(int64(v)), le) }},
		{"Int32", 4,
			func(d []byte, le bool) float64 { return float64(int32(rd32(d, le))) },
			func(d []byte, v float64, le bool) { wr32(d, uint32(int64(v)), le) }},
		{"Uint32", 4,
			func(d []byte, le bool) float64 { return float64(rd32(d, le)) },
			func(d []byte, v float64, le bool) { wr32(d, uint32(int64(v)), le) }},
		{"Float32", 4,
			func(d []byte, le bool) float64 { return float64(math.Float32frombits(rd32(d, le))) },
			func(d []byte, v float64, le bool) { wr32(d, math.Float32bits(float32(v)), le) }},
		{"Float64", 8,
			func(d []byte, le bool) float64 { return math.Float64frombits(rd64(d, le)) },
			func(d []byte, v float64, le bool) { wr64(d, math.Float64bits(v), le) }},
	}

	for _, a := range accessors {
		a := a
		r.method(proto, "DataView.prototype.get"+a.name, 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
			o, err := thisDV(in, this, "DataView.prototype.get"+a.name)
			if err != nil {
				return interp.Undefined(), err
			}
			offF, err := in.ToInteger(arg(args, 0))
			if err != nil {
				return interp.Undefined(), err
			}
			le := interp.ToBoolean(arg(args, 1))
			off := jsnum.SafeInt(offF)
			if off < 0 || off+a.size > o.ArrayLen() {
				return interp.Undefined(), in.RangeErrorf("Offset is outside the bounds of the DataView")
			}
			return interp.Number(a.get(o.Buf().Data[o.ByteOff()+off:], le)), nil
		})
		r.method(proto, "DataView.prototype.set"+a.name, 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
			o, err := thisDV(in, this, "DataView.prototype.set"+a.name)
			if err != nil {
				return interp.Undefined(), err
			}
			offF, err := in.ToInteger(arg(args, 0))
			if err != nil {
				return interp.Undefined(), err
			}
			v, err := in.ToNumber(arg(args, 1))
			if err != nil {
				return interp.Undefined(), err
			}
			le := interp.ToBoolean(arg(args, 2))
			off := jsnum.SafeInt(offF)
			if off < 0 || off+a.size > o.ArrayLen() {
				return interp.Undefined(), in.RangeErrorf("Offset is outside the bounds of the DataView")
			}
			a.put(o.Buf().Data[o.ByteOff()+off:], v, le)
			return interp.Undefined(), nil
		})
	}
}
