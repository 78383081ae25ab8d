package engines

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/parser"
	"comfort/internal/js/regex"
)

// rhino seeds the 44 Rhino defects (44/29/29/4). Rhino gained ES2015
// support late, which is why v1.7.11/v1.7.12 dominate the counts (the
// paper's Table 3 discussion).
func (b *catalogBuilder) rhino() {
	// ---- v1.7.10: 2 verified/fixed, both new ----
	// Listing 4: toFixed out-of-range digits silently formats the number.
	b.add(&Defect{
		ID: "rh-001", Engine: "Rhino", AttrVersion: "v1.7.10",
		Component: CodeGen, APIType: "Number", API: "Number.prototype.toFixed",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note: "Listing 4: toFixed(-2) prints the value instead of throwing RangeError",
		Witness: `var foo = function(num) {
  var p = num.toFixed(-2);
  print(p);
};
var parameter = -634619;
foo(parameter);`,
		Hook: onAPI("Number.prototype.toFixed", argNeg(0),
			func(ctx *interp.HookCtx) *interp.Override {
				this := ctx.This
				return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
					if _, isThrow := interp.IsThrow(err); isThrow {
						if this.Kind() == interp.KindNumber {
							return interp.String(jsnum.Format(this.Num())), nil
						}
						if this.IsObject() && this.Obj().HasPrim {
							return interp.String(jsnum.Format(this.Obj().Prim.Num())), nil
						}
					}
					return res, err
				}}
			}),
	})
	// Listing 10 (CodeAlchemist case): no TypeError for a null receiver.
	b.add(&Defect{
		ID: "rh-002", Engine: "Rhino", AttrVersion: "v1.7.10",
		Component: Implementation, APIType: "String", API: "String.prototype.big",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Listing 10: String.prototype.big.call(null) does not throw",
		Witness: `var v0 = (function() {
  print(String.prototype.big.call(null));
});
v0();`,
		Hook: onAPI("String.prototype.big", func(ctx *interp.HookCtx) bool {
			return ctx.This.IsNullish()
		}, ret(interp.String("<big>null</big>"))),
	})

	// ---- v1.7.11: 17 submitted (8 verified+fixed, 9 unverified) ----
	// Listing 11 (Fuzzilli case): Object.seal crashes on String wrappers.
	b.add(&Defect{
		ID: "rh-003", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "Object", API: "Object.seal",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "Listing 11: Object.seal(new String(...)) crashes the engine",
		Witness: `function main() {
  var v2 = new String(2477);
  var v4 = Object.seal(v2);
}
main();`,
		Hook: onAPI("Object.seal", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() &&
				ctx.Args[0].Obj().Class == "String" && ctx.Args[0].Obj().HasPrim
		}, crash("segmentation fault in NativeString.sealObject")),
	})
	// Listing 12 (DIE case): compile() permitted on non-writable lastIndex.
	b.add(&Defect{
		ID: "rh-004", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: RegexEngine, APIType: "RegExp", API: "RegExp.prototype.compile",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "Listing 12: compile ignores a non-writable lastIndex property",
		Witness: `var regexp5 = new RegExp(/abc/);
Object.defineProperty(regexp5, "lastIndex", {value: "\\w?\\B", writable: false});
regex5 = regexp5.compile("def");
print(regexp5.lastIndex);`,
		Hook: onAPI("RegExp.prototype.compile", nil,
			func(ctx *interp.HookCtx) *interp.Override {
				this := ctx.This
				return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
					if _, isThrow := interp.IsThrow(err); isThrow {
						return this, nil
					}
					return res, err
				}}
			}),
	})
	// Listing 13 (Montage case): mutable function self-name binding.
	b.add(&Defect{
		ID: "rh-005", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "other", API: "funcname",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "Listing 13: named function expression self-name is writable",
		Witness: `(function v1() {
  v1 = 20;
  print(v1 !== 20);
  print(typeof v1);
}());`,
		Hook: onRefusedWrite(interp.HookSelfNameAssign),
	})
	b.add(&Defect{
		ID: "rh-006", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "other", API: "parseInt",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "parseInt defaults leading-zero numerals to octal",
		Witness: `print(parseInt("010"));`,
		Hook: onAPI("parseInt", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) > 1 && !ctx.Args[1].IsUndefined() {
				return false
			}
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(strings.TrimSpace(ctx.Args[0].Str()), "0") &&
				len(strings.TrimSpace(ctx.Args[0].Str())) > 1 &&
				!strings.HasPrefix(strings.TrimSpace(ctx.Args[0].Str()), "0x")
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			s := strings.TrimSpace(ctx.Args[0].Str())
			val := 0.0
			for _, c := range s[1:] {
				if c < '0' || c > '7' {
					break
				}
				val = val*8 + float64(c-'0')
			}
			return interp.Number(val)
		})),
	})
	b.add(&Defect{
		ID: "rh-007", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "String", API: "String.prototype.charAt",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "charAt with a negative position wraps from the end",
		Witness: `print("abc".charAt(-1));`,
		Hook: onAPI("String.prototype.charAt", argNeg(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				s := []rune(ctx.This.Str())
				i := len(s) + int(ctx.Args[0].Num())
				if i >= 0 && i < len(s) {
					return interp.String(string(s[i]))
				}
				return interp.String("")
			})),
	})
	b.add(&Defect{
		ID: "rh-008", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "other", API: "Object.prototype.toString",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.prototype.toString.call(null) reports [object Object]",
		Witness: `print(Object.prototype.toString.call(null));`,
		Hook: onAPI("Object.prototype.toString", func(ctx *interp.HookCtx) bool {
			return ctx.This.IsNull()
		}, ret(interp.String("[object Object]"))),
	})
	b.add(&Defect{
		ID: "rh-009", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects accessor properties in object literals",
		Witness:  `var o = {get x() { return 7; }}; print(o.x);`,
		PreParse: rejectSource("get x(", "invalid property id"),
	})
	b.add(&Defect{
		ID: "rh-010", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: StrictModeComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		WitnessStrict: true,
		Note:          "strict mode: legacy octal literals accepted",
		Witness:       `"use strict"; var x = 010; print(x);`,
		ParserOpts:    func(o *parser.Options) { o.AllowLegacyOctal = true },
	})
	// v1.7.11 unverified reports.
	b.add(&Defect{
		ID: "rh-011", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "Array", API: "Array.prototype.pop",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "pop on an empty array returns null instead of undefined",
		Witness: `print([].pop());`,
		Hook: onAPI("Array.prototype.pop", func(ctx *interp.HookCtx) bool {
			return ctx.This.IsObject() && ctx.This.Obj().IsArray() &&
				len(ctx.This.Obj().ArrayElems()) == 0
		}, ret(interp.Null())),
	})
	b.add(&Defect{
		ID: "rh-012", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "Array", API: "Array.prototype.concat",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "concat drops non-array arguments",
		Witness: `print([1].concat(2, [3]));`,
		Hook: onAPI("Array.prototype.concat", func(ctx *interp.HookCtx) bool {
			for _, a := range ctx.Args {
				if !a.IsObject() || !a.Obj().IsArray() {
					return true
				}
			}
			return false
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			var out []interp.Value
			if ctx.This.IsObject() && ctx.This.Obj().IsArray() {
				out = append(out, ctx.This.Obj().ArrayElems()...)
			}
			for _, a := range ctx.Args {
				if a.IsObject() && a.Obj().IsArray() {
					out = append(out, a.Obj().ArrayElems()...)
				}
			}
			return interp.ObjValue(ctx.In.NewArray(out))
		})),
	})
	b.add(&Defect{
		ID: "rh-013", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "String", API: "String.fromCharCode",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "fromCharCode(NaN) yields the string \"NaN\"",
		Witness: `print(String.fromCharCode(NaN).length);`,
		Hook:    onAPI("String.fromCharCode", argNaN(0), ret(interp.String("NaN"))),
	})
	b.add(&Defect{
		ID: "rh-014", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "Object", API: "Object.create",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Object.create(null) still inherits Object.prototype",
		Witness: `print(typeof Object.create(null).toString);`,
		Hook: onAPI("Object.create", argNull(0), retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.ObjValue(interp.NewObject(ctx.In.Protos["Object"]))
		})),
	})
	b.add(&Defect{
		ID: "rh-015", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "Date", API: "Date.prototype.getTime",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "getTime of an invalid Date returns 0 instead of NaN",
		Witness: `print(new Date("bogus").getTime());`,
		Hook: onAPI("Date.prototype.getTime", func(ctx *interp.HookCtx) bool {
			return ctx.This.IsObject() && ctx.This.Obj().Class == "Date" &&
				ctx.This.Obj().HasPrim && math.IsNaN(ctx.This.Obj().Prim.Num())
		}, ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "rh-016", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "other", API: "Math.log2",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Math.log2 of exact powers of two is off by 1 ULP",
		Witness: `print(Math.log2(8) === 3);`,
		Hook: onAPI("Math.log2", argNumber(0, func(f float64) bool {
			return f == 8 || f == 16 || f == 32
		}), retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.Number(math.Log2(ctx.Args[0].Num()) + 4.440892098500626e-16)
		})),
	})
	b.add(&Defect{
		ID: "rh-017", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: CodeGen, APIType: "other", API: "parseInt",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "parseInt does not trim leading whitespace",
		Witness: `print(parseInt("  42"));`,
		Hook: onAPI("parseInt", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(ctx.Args[0].Str(), " ")
		}, ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "rh-018", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "other", API: "Boolean",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Boolean(\"false\") returns false",
		Witness: `print(Boolean("false"));`,
		Hook: onAPI("Boolean", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				ctx.Args[0].Str() == "false"
		}, ret(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "rh-019", Engine: "Rhino", AttrVersion: "v1.7.11",
		Component: Implementation, APIType: "other", API: "Number.isInteger",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Number.isInteger coerces numeric strings",
		Witness: `print(Number.isInteger("5"));`,
		Hook: onAPI("Number.isInteger", argString(0), retFn(func(ctx *interp.HookCtx) interp.Value {
			f := jsnum.Parse(ctx.Args[0].Str())
			return interp.Bool(!math.IsNaN(f) && f == math.Trunc(f))
		})),
	})

	// ---- v1.7.12: 25 submitted (19 verified+fixed+new, 6 unverified) ----
	// The Figure 1/2 walkthrough bug: substr with an undefined length.
	b.add(&Defect{
		ID: "rh-020", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "String", API: "String.prototype.substr",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "Figure 2: substr(start, undefined) returns the empty string",
		Witness: `function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
var pre = "Name: ";
var len = undefined;
var name = foo(s, pre.length, len);
print(name);`,
		Hook: onAPI("String.prototype.substr", argUndef(1), ret(interp.String(""))),
	})
	b.add(&Defect{
		ID: "rh-021", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "String", API: "String.prototype.startsWith",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "startsWith accepts RegExp arguments instead of throwing TypeError",
		Witness: `print("abc".startsWith(/a/));`,
		Hook: onAPI("String.prototype.startsWith", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().Class == "RegExp"
		}, noThrow(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "rh-022", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "String", API: "String.prototype.trim",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "trim does not strip non-breaking spaces",
		Witness: "print(\"[\" + \" x \".trim() + \"]\");",
		Hook: onAPI("String.prototype.trim", func(ctx *interp.HookCtx) bool {
			return ctx.This.Kind() == interp.KindString && strings.ContainsRune(ctx.This.Str(), ' ')
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.String(strings.Trim(ctx.This.Str(), " \t\n\r\v\f"))
		})),
	})
	b.add(&Defect{
		ID: "rh-023", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note: "defineProperty ignores enumerable: false",
		Witness: `var o = {};
Object.defineProperty(o, "x", {value: 1, enumerable: false});
print(Object.keys(o).length);`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) < 3 || !ctx.Args[2].IsObject() {
				return false
			}
			d := ctx.Args[2].Obj()
			if p, ok := d.OwnProperty("enumerable"); ok {
				return !interp.ToBoolean(p.Value)
			}
			return false
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if len(ctx.Args) > 1 && ctx.Args[0].IsObject() {
				key := ctx.Args[1].Str()
				if p, ok := ctx.Args[0].Obj().GetOwnProperty(key); ok {
					p.Attr |= interp.Enumerable
					ctx.Args[0].Obj().DefineOwn(key, p)
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "rh-024", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Object", API: "Object.getOwnPropertyNames",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "getOwnPropertyNames omits non-enumerable properties (e.g. array length)",
		Witness: `print(Object.getOwnPropertyNames([1, 2]).length);`,
		Hook: onAPI("Object.getOwnPropertyNames", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject()
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			arr := ctx.In.NewArray(nil)
			for _, k := range ctx.Args[0].Obj().EnumerableKeys() {
				arr.AppendElem(interp.String(k))
			}
			return interp.ObjValue(arr)
		})),
	})
	b.add(&Defect{
		ID: "rh-025", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Object", API: "Object.entries",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Object.entries includes inherited enumerable properties",
		Witness: `var o = Object.create({inh: 1});
o.own = 2;
print(Object.entries(o).length);`,
		Hook: onAPI("Object.entries", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().Proto != nil &&
				len(ctx.Args[0].Obj().Proto.EnumerableKeys()) > 0
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if !res.IsObject() || !res.Obj().IsArray() {
				return res
			}
			proto := ctx.Args[0].Obj().Proto
			for _, k := range proto.EnumerableKeys() {
				if v, ok, _ := protoGet(ctx.In, proto, k); ok {
					pair := ctx.In.NewArray([]interp.Value{interp.String(k), v})
					res.Obj().AppendElem(interp.ObjValue(pair))
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "rh-026", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.fill",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "fill ignores its start argument",
		Witness: `print([0, 0, 0].fill(1, 1));`,
		Hook: onAPI("Array.prototype.fill", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && !ctx.Args[1].IsUndefined()
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			if ctx.This.IsObject() && ctx.This.Obj().IsArray() {
				elems := ctx.This.Obj().ArrayElems()
				for i := range elems {
					elems[i] = ctx.Args[0]
				}
			}
			return ctx.This
		})),
	})
	b.add(&Defect{
		ID: "rh-027", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.flat",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "flat(Infinity) only flattens one level",
		Witness: `print([1, [2, [3]]].flat(Infinity)[2] + 1);`,
		Hook: onAPI("Array.prototype.flat", argInf(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				var out []interp.Value
				if ctx.This.IsObject() && ctx.This.Obj().IsArray() {
					for _, e := range ctx.This.Obj().ArrayElems() {
						if e.IsObject() && e.Obj().IsArray() {
							out = append(out, e.Obj().ArrayElems()...)
						} else {
							out = append(out, e)
						}
					}
				}
				return interp.ObjValue(ctx.In.NewArray(out))
			})),
	})
	b.add(&Defect{
		ID: "rh-028", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Array", API: "Array.from",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "Array.from(string) returns a one-element array",
		Witness: `print(Array.from("abc").length);`,
		Hook: onAPI("Array.from", argString(0), retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.ObjValue(ctx.In.NewArray([]interp.Value{ctx.Args[0]}))
		})),
	})
	b.add(&Defect{
		ID: "rh-029", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "JSON", API: "JSON.stringify",
		Channel: ChannelGen, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "JSON.stringify emits unquoted object keys",
		Witness: `print(JSON.stringify({a: 1, b: "x"}));`,
		Hook: onAPI("JSON.stringify", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && !ctx.Args[0].Obj().IsArray()
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.Kind() != interp.KindString {
				return res
			}
			s := res.Str()
			// Strip the quotes around keys: {"a":1} → {a:1}.
			s = strings.ReplaceAll(s, "{\"", "{")
			s = strings.ReplaceAll(s, ",\"", ",")
			s = strings.ReplaceAll(s, "\":", ":")
			return interp.String(s)
		})),
	})
	b.add(&Defect{
		ID: "rh-030", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "DataView", API: "DataView.prototype.getUint8",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note: "out-of-bounds getUint8 returns 0 instead of throwing RangeError",
		Witness: `var dv = new DataView(new ArrayBuffer(1));
print(dv.getUint8(5));`,
		Hook: onAPI("DataView.prototype.getUint8", nil, noThrow(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "rh-031", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "other", API: "Math.max",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "Math.max skips NaN arguments instead of returning NaN",
		Witness: `print(Math.max(NaN, 1));`,
		Hook: onAPI("Math.max", func(ctx *interp.HookCtx) bool {
			hasNaN, hasNum := false, false
			for _, a := range ctx.Args {
				if a.Kind() == interp.KindNumber {
					if math.IsNaN(a.Num()) {
						hasNaN = true
					} else {
						hasNum = true
					}
				}
			}
			return hasNaN && hasNum
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			best := math.Inf(-1)
			for _, a := range ctx.Args {
				if a.Kind() == interp.KindNumber && !math.IsNaN(a.Num()) && a.Num() > best {
					best = a.Num()
				}
			}
			return interp.Number(best)
		})),
	})
	b.add(&Defect{
		ID: "rh-032", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "other", API: "parseFloat",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "parseFloat of small exponents underflows to 0",
		Witness: `print(parseFloat("1e-7"));`,
		Hook: onAPI("parseFloat", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.Contains(ctx.Args[0].Str(), "e-")
		}, ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "rh-033", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "other", API: "Function.prototype.apply",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "apply with a null argument array throws TypeError",
		Witness: `function f() { return 7; }
print(f.apply(null, null));`,
		Hook: onAPI("Function.prototype.apply", argNull(1),
			throwE("TypeError", "second argument to Function.prototype.apply must be an array")),
	})
	b.add(&Defect{
		ID: "rh-034", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects the exponentiation operator",
		Witness:  `print(2 ** 10);`,
		PreParse: rejectSource("**", "invalid exponentiation expression"),
	})
	b.add(&Defect{
		ID: "rh-035", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		WitnessStrict: true,
		Note:          "strict mode: duplicate function parameters accepted",
		Witness:       `"use strict"; function f(a, a) { return a; } print(f(1, 2));`,
		ParserOpts:    func(o *parser.Options) { o.AllowDuplicateParams = true },
	})
	b.add(&Defect{
		ID: "rh-036", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects for-of loops",
		Witness:  `for (var v of [1, 2]) print(v);`,
		PreParse: rejectSource(" of ", "invalid for..of construct"),
	})
	b.add(&Defect{
		ID: "rh-037", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: RegexEngine, APIType: "other", API: "String.prototype.match",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "lazy quantifiers behave greedily in match",
		Witness: `print("aaa".match(/a+?/)[0].length);`,
		Hook: onRegex("String.prototype.match", func(pattern, flags string) bool {
			return strings.Contains(pattern, "+?") || strings.Contains(pattern, "*?")
		}, func(ctx *interp.HookCtx) *interp.Override {
			greedy := strings.ReplaceAll(strings.ReplaceAll(ctx.Pattern, "+?", "+"), "*?", "*")
			re, err := regex.Compile(greedy, ctx.Flags)
			if err != nil {
				return nil
			}
			m, err := re.Exec(ctx.Src, 0)
			if err != nil || m == nil {
				return nil
			}
			return &interp.Override{Replace: true,
				Return: interp.ObjValue(fakeMatchObject(m.Groups[0][0], m.Groups[0][1]))}
		}),
	})
	b.add(&Defect{
		ID: "rh-038", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: StrictModeComp, APIType: "other", API: "assignment",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		WitnessStrict: true,
		Note:          "strict mode: assignment to undeclared identifiers creates globals",
		Witness:       `"use strict"; undeclaredGlobal = 5; print(undeclaredGlobal);`,
		Hook:          onRefusedWrite(interp.HookUndeclaredAssign),
	})
	// v1.7.12 unverified reports.
	b.add(&Defect{
		ID: "rh-039", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Array", API: "Array.prototype.reverse",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "reverse returns a reversed copy without mutating the receiver",
		Witness: `var a = [1, 2, 3];
a.reverse();
print(a);`,
		Hook: onAPI("Array.prototype.reverse", nil, retFn(func(ctx *interp.HookCtx) interp.Value {
			if !ctx.This.IsObject() || !ctx.This.Obj().IsArray() {
				return ctx.This
			}
			elems := ctx.This.Obj().ArrayElems()
			out := make([]interp.Value, len(elems))
			for i, e := range elems {
				out[len(elems)-1-i] = e
			}
			return interp.ObjValue(ctx.In.NewArray(out))
		})),
	})
	b.add(&Defect{
		ID: "rh-040", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "String", API: "String.prototype.repeat",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "repeat throws RangeError for fractional counts",
		Witness: `print("ab".repeat(2.5));`,
		Hook: onAPI("String.prototype.repeat", argFrac(0),
			throwE("RangeError", "Invalid count value")),
	})
	b.add(&Defect{
		ID: "rh-041", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Object", API: "Object.assign",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "Object.assign(null, ...) returns null instead of throwing",
		Witness: `print(Object.assign(null, {a: 1}));`,
		Hook:    onAPI("Object.assign", argNull(0), noThrow(interp.Null())),
	})
	b.add(&Defect{
		ID: "rh-042", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: Implementation, APIType: "Number", API: "Number.isSafeInteger",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "isSafeInteger(2^53) returns true",
		Witness: `print(Number.isSafeInteger(9007199254740992));`,
		Hook: onAPI("Number.isSafeInteger",
			argNumber(0, func(f float64) bool { return f == 9007199254740992 }),
			ret(interp.Bool(true))),
	})
	b.add(&Defect{
		ID: "rh-043", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "other", API: "Math.fround",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "Math.fround returns its argument without float32 rounding",
		Witness: `print(Math.fround(0.1) === 0.1);`,
		Hook: onAPI("Math.fround", nil, retFn(func(ctx *interp.HookCtx) interp.Value {
			if len(ctx.Args) > 0 {
				return ctx.Args[0]
			}
			return interp.Number(math.NaN())
		})),
	})
	b.add(&Defect{
		ID: "rh-044", Engine: "Rhino", AttrVersion: "v1.7.12",
		Component: CodeGen, APIType: "other", API: "parseInt",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "parseInt(\"Infinity\") returns Infinity instead of NaN",
		Witness: `print(parseInt("Infinity"));`,
		Hook: onAPI("parseInt", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.TrimSpace(ctx.Args[0].Str()) == "Infinity"
		}, ret(interp.Number(math.Inf(1)))),
	})
}
