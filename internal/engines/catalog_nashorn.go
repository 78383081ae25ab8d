package engines

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
)

// nashorn seeds the 18 Nashorn defects (18/12/2/1). Nashorn ceased active
// maintenance in June 2020, which is why only 2 of its 12 verified bugs
// were ever fixed (the paper's Table 2 note).
func (b *catalogBuilder) nashorn() {
	// ---- v13.0.1: 4 verified, none fixed, all new ----
	b.add(&Defect{
		ID: "na-001", Engine: "Nashorn", AttrVersion: "v13.0.1",
		Component: CodeGen, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelGen, Verified: true, DevFixed: false, Test262: true, New: true,
		Note: "defineProperty accepts descriptors mixing value and accessor fields",
		Witness: `var o = {};
Object.defineProperty(o, "x", {value: 1, get: function() { return 2; }});
print(o.x);`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) < 3 || !ctx.Args[2].IsObject() {
				return false
			}
			d := ctx.Args[2].Obj()
			return d.HasOwn("value") && (d.HasOwn("get") || d.HasOwn("set"))
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			if len(ctx.Args) > 0 && ctx.Args[0].IsObject() {
				ctx.Args[0].Obj().SetSlot("x", interp.Number(1), interp.DefaultAttr)
			}
			return ctx.Args[0]
		})),
	})
	b.add(&Defect{
		ID: "na-002", Engine: "Nashorn", AttrVersion: "v13.0.1",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.includes",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "includes uses strict equality for NaN (SameValueZero required)",
		Witness: `print([NaN].includes(NaN));`,
		Hook:    onAPI("Array.prototype.includes", argNaN(0), ret(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "na-003", Engine: "Nashorn", AttrVersion: "v13.0.1",
		Component: Implementation, APIType: "JSON", API: "JSON.parse",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "JSON.parse accepts single-quoted strings",
		Witness: `print(typeof JSON.parse("{'a': 1}"));`,
		Hook: onAPI("JSON.parse", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.Contains(ctx.Args[0].Str(), "'")
		}, func(ctx *interp.HookCtx) *interp.Override {
			in := ctx.In
			return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
				if _, isThrow := interp.IsThrow(err); isThrow {
					return interp.ObjValue(interp.NewObject(in.Protos["Object"])), nil
				}
				return res, err
			}}
		}),
	})
	b.add(&Defect{
		ID: "na-004", Engine: "Nashorn", AttrVersion: "v13.0.1",
		Component: RegexEngine, APIType: "RegExp", API: "RegExp.prototype.test",
		Channel: ChannelSpecData, Verified: true, DevFixed: false, New: true,
		Note:    "case-insensitive flag not applied inside character classes",
		Witness: `print(/[a-z]+/i.test("HELLO"));`,
		Hook: onRegex("RegExp.prototype.test", func(pattern, flags string) bool {
			return strings.Contains(flags, "i") && strings.Contains(pattern, "[")
		}, func(ctx *interp.HookCtx) *interp.Override {
			if ctx.Src == strings.ToLower(ctx.Src) {
				return nil // lower-case inputs match either way
			}
			return &interp.Override{Replace: true, Return: interp.Undefined()}
		}),
	})

	// ---- v12.0.1: 14 submitted (8 verified, 2 fixed, 6 unverified) ----
	b.add(&Defect{
		ID: "na-005", Engine: "Nashorn", AttrVersion: "v12.0.1", FixedIn: "v13.0.1",
		Component: CodeGen, APIType: "other", API: "parseFloat",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "parseFloat(\"Infinity\") returns NaN",
		Witness: `print(parseFloat("Infinity"));`,
		Hook: onAPI("parseFloat", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(strings.TrimSpace(ctx.Args[0].Str()), "Inf")
		}, ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "na-006", Engine: "Nashorn", AttrVersion: "v12.0.1", FixedIn: "v13.0.1",
		Component: Implementation, APIType: "other", API: "Math.sign",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "Math.sign(-0) returns +0 instead of -0",
		Witness: `print(1 / Math.sign(-0));`,
		Hook: onAPI("Math.sign", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindNumber &&
				ctx.Args[0].Num() == 0 && math.Signbit(ctx.Args[0].Num())
		}, ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "na-007", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: CodeGen, APIType: "Object", API: "Object.assign",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note: "Object.assign also copies inherited properties",
		Witness: `var proto = {inherited: 1};
var src = Object.create(proto);
print(Object.assign({}, src).inherited);`,
		Hook: onAPI("Object.assign", func(ctx *interp.HookCtx) bool {
			for _, a := range ctx.Args[1:] {
				if a.IsObject() && a.Obj().Proto != nil && len(a.Obj().Proto.EnumerableKeys()) > 0 {
					return true
				}
			}
			return false
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if !res.IsObject() {
				return res
			}
			for _, a := range ctx.Args[1:] {
				if a.IsObject() && a.Obj().Proto != nil {
					for _, k := range a.Obj().Proto.EnumerableKeys() {
						if v, ok, _ := protoGet(ctx.In, a.Obj().Proto, k); ok {
							res.Obj().SetSlot(k, v, interp.DefaultAttr)
						}
					}
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "na-008", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.indexOf",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "indexOf compares with loose equality",
		Witness: `print([1, 2, 3].indexOf("2"));`,
		Hook: onAPI("Array.prototype.indexOf", argString(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				if !ctx.This.IsObject() || !ctx.This.Obj().IsArray() {
					return interp.Number(-1)
				}
				want := ctx.Args[0].Str()
				for i, e := range ctx.This.Obj().ArrayElems() {
					if e.Kind() == interp.KindNumber && interp.FormatNumber(e.Num()) == want {
						return interp.Number(float64(i))
					}
					if e.Kind() == interp.KindString && e.Str() == want {
						return interp.Number(float64(i))
					}
				}
				return interp.Number(-1)
			})),
	})
	b.add(&Defect{
		ID: "na-009", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: CodeGen, APIType: "other", API: "isFinite",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: false,
		Note:    "isFinite(Infinity) returns true",
		Witness: `print(isFinite(1 / 0));`,
		Hook:    onAPI("isFinite", argInf(0), ret(interp.Bool(true))),
	})
	b.add(&Defect{
		ID: "na-010", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "Object", API: "Object.getOwnPropertyDescriptor",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "getOwnPropertyDescriptor returns null instead of undefined for absent properties",
		Witness: `print(Object.getOwnPropertyDescriptor({}, "nope"));`,
		Hook: onAPI("Object.getOwnPropertyDescriptor", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[0].IsObject() &&
				!ctx.Args[0].Obj().HasOwn(ctx.Args[1].Str())
		}, ret(interp.Null())),
	})
	b.add(&Defect{
		ID: "na-011", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "other", API: "parseInt",
		Channel: ChannelSpecData, Verified: true, DevFixed: false, New: true,
		Note:    "parseInt with radix 1 returns 0 instead of NaN",
		Witness: `print(parseInt("5", 1));`,
		Hook: onAPI("parseInt", argNumber(1, func(f float64) bool { return f == 1 }),
			ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "na-012", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:     "parser rejects arrow functions with parenthesised parameter lists",
		Witness:  `var f = (a, b) => a + b; print(f(1, 2));`,
		PreParse: rejectSource(") =>", "expected an operand but found ="),
	})
	b.add(&Defect{
		ID: "na-013", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "TypedArray", API: "Float64Array.prototype.fill",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note: "Float64Array.fill rounds values through float32",
		Witness: `var f = new Float64Array(1);
f.fill(0.1);
print(f[0]);`,
		Hook: onAPI("Float64Array.prototype.fill", nil,
			mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
				if res.IsObject() && res.Obj().ElemKind == interp.ElemFloat64 {
					o := res.Obj()
					for i := 0; i < o.ArrayLen(); i++ {
						o.TypedSet(i, float64(float32(o.TypedGet(i))))
					}
				}
				return res
			})),
	})
	b.add(&Defect{
		ID: "na-014", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "DataView", API: "DataView.prototype.getFloat32",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note: "getFloat32 ignores the littleEndian flag",
		Witness: `var b = new ArrayBuffer(4);
var dv = new DataView(b);
dv.setFloat32(0, 1.5, true);
print(dv.getFloat32(0, true));`,
		Hook: onAPI("DataView.prototype.getFloat32", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && interp.ToBoolean(ctx.Args[1])
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			o := ctx.This.Obj()
			off := int(ctx.Args[0].Num())
			d := o.Buf().Data[o.ByteOff()+off:]
			bits := uint32(d[3]) | uint32(d[2])<<8 | uint32(d[1])<<16 | uint32(d[0])<<24
			return interp.Number(float64(math.Float32frombits(bits)))
		})),
	})
	b.add(&Defect{
		ID: "na-015", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: CodeGen, APIType: "other", API: "Math.atan2",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Math.atan2(0, -0) returns 0 instead of PI",
		Witness: `print(Math.atan2(0, -0));`,
		Hook: onAPI("Math.atan2", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 &&
				ctx.Args[0].Kind() == interp.KindNumber && ctx.Args[0].Num() == 0 && !math.Signbit(ctx.Args[0].Num()) &&
				ctx.Args[1].Kind() == interp.KindNumber && ctx.Args[1].Num() == 0 && math.Signbit(ctx.Args[1].Num())
		}, ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "na-016", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "other", API: "Date.now",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Date.now returns seconds instead of milliseconds",
		Witness: `print(Date.now() > 1e12);`,
		Hook: onAPI("Date.now", nil, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			return interp.Number(math.Trunc(res.Num() / 1000))
		})),
	})
	b.add(&Defect{
		ID: "na-017", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: CodeGen, APIType: "other", API: "Function.prototype.call",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "call() with no arguments binds this to a fresh object, not the global",
		Witness: `function f() { return this === globalThis; }
print(f.call());`,
		Hook: onAPI("Function.prototype.call", noArgs(), func(ctx *interp.HookCtx) *interp.Override {
			if !ctx.This.IsObject() || !ctx.This.Obj().IsCallable() {
				return nil
			}
			res, err := ctx.In.Call(ctx.This.Obj(),
				interp.ObjValue(interp.NewObject(ctx.In.Protos["Object"])), nil)
			return &interp.Override{Replace: true, Return: res, Err: err}
		}),
	})
	b.add(&Defect{
		ID: "na-018", Engine: "Nashorn", AttrVersion: "v12.0.1",
		Component: Implementation, APIType: "other", API: "isNaN",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "isNaN(undefined) returns false",
		Witness: `print(isNaN(undefined));`,
		Hook:    onAPI("isNaN", argUndef(0), ret(interp.Bool(false))),
	})
}

// protoGet reads an own property from a prototype object for the
// Object.assign defect.
func protoGet(in *interp.Interp, proto *interp.Object, key string) (interp.Value, bool, error) {
	p, ok := proto.GetOwnProperty(key)
	if !ok {
		return interp.Undefined(), false, nil
	}
	if p.Accessor {
		if p.Get == nil {
			return interp.Undefined(), true, nil
		}
		v, err := in.Call(p.Get, interp.ObjValue(proto), nil)
		return v, true, err
	}
	return p.Value, true, nil
}
