package engines

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/parser"
)

// jerryScript seeds the 35 JerryScript defects (35/31/31/3). JerryScript,
// like Rhino, grew ES2015 support late; v2.2.0 carries the bulk of the
// conformance regressions (Table 3).
func (b *catalogBuilder) jerryScript() {
	// ---- v1.0: 1 verified/fixed/new ----
	b.add(&Defect{
		ID: "je-001", Engine: "JerryScript", AttrVersion: "v1.0",
		Component: CodeGen, APIType: "other", API: "Math.floor",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Math.floor(-0) returns +0 instead of -0",
		Witness: `print(1 / Math.floor(-0));`,
		Hook: onAPI("Math.floor", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindNumber &&
				ctx.Args[0].Num() == 0 && math.Signbit(ctx.Args[0].Num())
		}, ret(interp.Number(0))),
	})

	// ---- v2.0: 8 submitted (7 verified+fixed+new, 1 unverified) ----
	// Listing 12 (JerryScript variant).
	b.add(&Defect{
		ID: "je-002", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: RegexEngine, APIType: "other", API: "RegExp.prototype.compile",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Listing 12 (JerryScript variant): compile ignores non-writable lastIndex",
		Witness: `var re = new RegExp(/xyz/);
Object.defineProperty(re, "lastIndex", {value: 3, writable: false});
re.compile("q");
print(re.lastIndex);`,
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
	b.add(&Defect{
		ID: "je-003", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: CodeGen, APIType: "String", API: "String.prototype.substring",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "substring treats negative starts as slice does (from the end)",
		Witness: `print("hello".substring(-2));`,
		Hook: onAPI("String.prototype.substring", argNeg(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				s := []rune(ctx.This.Str())
				start := len(s) + int(ctx.Args[0].Num())
				if start < 0 {
					start = 0
				}
				return interp.String(string(s[start:]))
			})),
	})
	b.add(&Defect{
		ID: "je-004", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.push",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "push returns the array instead of the new length",
		Witness: `print([1].push(2));`,
		Hook: onAPI("Array.prototype.push", nil,
			mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
				return ctx.This
			})),
	})
	b.add(&Defect{
		ID: "je-005", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: CodeGen, APIType: "other", API: "String",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "String() with no arguments returns \"undefined\"",
		Witness: `print("[" + String() + "]");`,
		Hook:    onAPI("String", noArgs(), ret(interp.String("undefined"))),
	})
	b.add(&Defect{
		ID: "je-006", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: Implementation, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "defineProperty on a primitive returns it instead of throwing TypeError",
		Witness: `print(Object.defineProperty("s", "x", {value: 1}));`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && !ctx.Args[0].IsObject()
		}, func(ctx *interp.HookCtx) *interp.Override {
			arg := interp.Undefined()
			if len(ctx.Args) > 0 {
				arg = ctx.Args[0]
			}
			return &interp.Override{Replace: true, Return: arg}
		}),
	})
	b.add(&Defect{
		ID: "je-007", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: Implementation, APIType: "Number", API: "Number.prototype.toString",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "toString(2) of negative numbers prints the unsigned two's complement",
		Witness: `print((-2).toString(2));`,
		Hook: onAPI("Number.prototype.toString", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) == 0 || ctx.Args[0].Kind() != interp.KindNumber || ctx.Args[0].Num() != 2 {
				return false
			}
			if ctx.This.Kind() == interp.KindNumber {
				return ctx.This.Num() < 0
			}
			return ctx.This.IsObject() && ctx.This.Obj().HasPrim && ctx.This.Obj().Prim.Num() < 0
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			n := ctx.This.Num()
			if ctx.This.IsObject() {
				n = ctx.This.Obj().Prim.Num()
			}
			return interp.String(jsnum.FormatRadix(float64(jsnum.ToUint32(n)), 2))
		})),
	})
	b.add(&Defect{
		ID: "je-008", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects 0o octal integer literals",
		Witness:  `print(0o17);`,
		PreParse: rejectSource("0o", "invalid octal literal"),
	})
	b.add(&Defect{
		ID: "je-009", Engine: "JerryScript", AttrVersion: "v2.0",
		Component: Implementation, APIType: "Array", API: "Array.prototype.slice",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "slice() with no arguments returns the receiver, not a copy",
		Witness: `var a = [1, 2];
var b2 = a.slice();
b2[0] = 9;
print(a[0]);`,
		Hook: onAPI("Array.prototype.slice", noArgs(),
			retFn(func(ctx *interp.HookCtx) interp.Value { return ctx.This })),
	})

	// ---- v2.1.0: 6 submitted (5 verified+fixed, 1 unverified) ----
	b.add(&Defect{
		ID: "je-010", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: CodeGen, APIType: "String", API: "String.prototype.split",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "split drops empty fields between adjacent separators",
		Witness: `print("a,,b".split(",").length);`,
		Hook: onAPI("String.prototype.split", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				ctx.Args[0].Str() != "" && ctx.This.Kind() == interp.KindString &&
				strings.Contains(ctx.This.Str(), ctx.Args[0].Str()+ctx.Args[0].Str())
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			arr := ctx.In.NewArray(nil)
			for _, part := range strings.Split(ctx.This.Str(), ctx.Args[0].Str()) {
				if part != "" {
					arr.AppendElem(interp.String(part))
				}
			}
			return interp.ObjValue(arr)
		})),
	})
	b.add(&Defect{
		ID: "je-011", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: CodeGen, APIType: "other", API: "Array",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Array(n) as a function call ignores the length argument",
		Witness: `print(Array(3).length);`,
		Hook: onAPI("Array", argNumber(0, func(f float64) bool { return f > 0 }),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				return interp.ObjValue(ctx.In.NewArray(nil))
			})),
	})
	b.add(&Defect{
		ID: "je-012", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: Implementation, APIType: "Date", API: "Date.parse",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "Date.parse rejects ISO 8601 date-time strings",
		Witness: `print(isNaN(Date.parse("2020-01-01T00:00:00Z")));`,
		Hook: onAPI("Date.parse", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.Contains(ctx.Args[0].Str(), "T")
		}, ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "je-013", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: Implementation, APIType: "Object", API: "Object.prototype.hasOwnProperty",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note:    "hasOwnProperty always false for array indices",
		Witness: `print([1].hasOwnProperty(0));`,
		Hook: onAPI("Object.prototype.hasOwnProperty", func(ctx *interp.HookCtx) bool {
			return ctx.This.IsObject() && ctx.This.Obj().IsArray() && len(ctx.Args) > 0 &&
				ctx.Args[0].Kind() == interp.KindNumber
		}, ret(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "je-014", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: StrictModeComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		WitnessStrict: true,
		Note:          "strict mode: delete of an unqualified identifier accepted",
		Witness:       `"use strict"; var x = 1; print(delete x);`,
		ParserOpts:    func(o *parser.Options) { o.AllowSloppyDelete = true },
	})
	b.add(&Defect{
		ID: "je-015", Engine: "JerryScript", AttrVersion: "v2.1.0",
		Component: Implementation, APIType: "DataView", API: "new DataView",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "DataView.byteOffset reports the byteLength",
		Witness: `print(new DataView(new ArrayBuffer(8), 2).byteOffset);`,
		Hook: onConstruct("DataView", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().Class == "DataView" {
				res.Obj().SetSlot("byteOffset", interp.Number(float64(res.Obj().ArrayLen())), 0)
			}
			return res
		})),
	})

	// ---- v2.2.0: 18 submitted (16 verified+fixed, 2 unverified) ----
	// Listing 8: the regex split anchor bug, added to Test262.
	b.add(&Defect{
		ID: "je-016", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: RegexEngine, APIType: "other", API: "String.prototype.split",
		Channel: ChannelGen, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "Listing 8: ^ anchor honoured mid-string when splitting",
		Witness: `var foo = function() {
  var a = "anA".split(/^A/);
  print(a);
};
foo();`,
		Hook: anchorAnywhere("String.prototype.split"),
	})
	b.add(&Defect{
		ID: "je-017", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: RegexEngine, APIType: "other", API: "RegExp.prototype.test",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "multiline ^ fails to match after \\r line terminators",
		Witness: `print(/^b/m.test("a\rb"));`,
		Hook: onRegex("RegExp.prototype.test", func(pattern, flags string) bool {
			return strings.Contains(flags, "m") && strings.HasPrefix(pattern, "^")
		}, func(ctx *interp.HookCtx) *interp.Override {
			if strings.Contains(ctx.Src, "\r") {
				return &interp.Override{Replace: true, Return: interp.Undefined()}
			}
			return nil
		}),
	})
	b.add(&Defect{
		ID: "je-018", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: CodeGen, APIType: "String", API: "String.prototype.padStart",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "padStart(NaN) pads to length 3 instead of 0",
		Witness: `print("x".padStart(NaN));`,
		Hook: onAPI("String.prototype.padStart", argNaN(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				s := ctx.This.Str()
				for len(s) < 3 {
					s = " " + s
				}
				return interp.String(s)
			})),
	})
	b.add(&Defect{
		ID: "je-019", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: CodeGen, APIType: "String", API: "String.prototype.concat",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "concat ignores arguments beyond the first",
		Witness: `print("a".concat("b", "c"));`,
		Hook: onAPI("String.prototype.concat", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			first := ""
			if len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString {
				first = ctx.Args[0].Str()
			}
			return interp.String(ctx.This.Str() + first)
		})),
	})
	b.add(&Defect{
		ID: "je-020", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "Object", API: "Object.freeze",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.freeze returns undefined instead of the object",
		Witness: `print(Object.freeze({}) === undefined);`,
		Hook: onAPI("Object.freeze", nil,
			mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
				return interp.Undefined()
			})),
	})
	b.add(&Defect{
		ID: "je-021", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "Object", API: "Object.create",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.create ignores the property-descriptor argument",
		Witness: `print(Object.create({}, {x: {value: 5}}).x);`,
		Hook: onAPI("Object.create", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[1].IsObject()
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			var proto *interp.Object
			if ctx.Args[0].IsObject() {
				proto = ctx.Args[0].Obj()
			}
			return interp.ObjValue(interp.NewObject(proto))
		})),
	})
	b.add(&Defect{
		ID: "je-022", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: CodeGen, APIType: "Array", API: "Array.prototype.indexOf",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "indexOf with a negative fromIndex always returns -1",
		Witness: `print([1, 2, 3].indexOf(3, -1));`,
		Hook:    onAPI("Array.prototype.indexOf", argNeg(1), ret(interp.Number(-1))),
	})
	b.add(&Defect{
		ID: "je-023", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "TypedArray", API: "new Uint8ClampedArray",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "Uint8ClampedArray truncates instead of rounding to nearest",
		Witness: `print(new Uint8ClampedArray([2.6])[0]);`,
		Hook: onConstruct("Uint8ClampedArray", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().IsArray()
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().ElemKind == interp.ElemUint8Clamped {
				src := ctx.Args[0].Obj().ArrayElems()
				for i := 0; i < res.Obj().ArrayLen() && i < len(src); i++ {
					if src[i].Kind() == interp.KindNumber {
						res.Obj().TypedSet(i, math.Trunc(src[i].Num()))
					}
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "je-024", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "JSON", API: "JSON.stringify",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note:    "JSON.stringify(undefined) returns the string \"undefined\"",
		Witness: `print(typeof JSON.stringify(undefined));`,
		Hook:    onAPI("JSON.stringify", argMissingOrUndef(0), ret(interp.String("undefined"))),
	})
	b.add(&Defect{
		ID: "je-025", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "other", API: "parseInt",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "parseInt ignores the radix argument",
		Witness: `print(parseInt("11", 2));`,
		Hook: onAPI("parseInt", argNumber(1, func(f float64) bool { return f == 2 }),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				return interp.Number(jsnum.Parse(strings.TrimSpace(ctx.Args[0].Str())))
			})),
	})
	b.add(&Defect{
		ID: "je-026", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "other", API: "Math.sign",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Math.sign returns booleans",
		Witness: `print(Math.sign(-5));`,
		Hook: onAPI("Math.sign", argNumber(0, func(f float64) bool { return f != 0 && !math.IsNaN(f) }),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				return interp.Bool(ctx.Args[0].Num() > 0)
			})),
	})
	b.add(&Defect{
		ID: "je-028", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: CodeGen, APIType: "other", API: "Number",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Number(\"\") returns NaN instead of 0",
		Witness: `print(Number(""));`,
		Hook: onAPI("Number", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString && ctx.Args[0].Str() == ""
		}, ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "je-029", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects let declarations in for-of heads",
		Witness:  `for (let v of [1]) print(v);`,
		PreParse: rejectSource("for (let", "let is not supported in for statements"),
	})
	b.add(&Defect{
		ID: "je-030", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects nullish coalescing",
		Witness:  `print(null ?? "fallback");`,
		PreParse: rejectSource("??", "unexpected token '?'"),
	})
	b.add(&Defect{
		ID: "je-031", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:       "parser accepts reserved words as identifiers",
		Witness:    `var class = 5; print(class);`,
		ParserOpts: func(o *parser.Options) { o.AllowReservedIdent = true },
	})
	b.add(&Defect{
		ID: "je-032", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: StrictModeComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		WitnessStrict: true,
		Note:          "strict mode: assignment to arguments accepted",
		Witness:       `"use strict"; function f() { arguments = 5; return arguments; } print(f());`,
		ParserOpts:    func(o *parser.Options) { o.AllowEvalArgumentsAssign = true },
	})
	b.add(&Defect{
		ID: "je-033", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: Implementation, APIType: "Array", API: "Array.prototype.join",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note:    "join with an undefined separator uses the string \"undefined\"",
		Witness: `print([1, 2].join(undefined));`,
		Hook: onAPI("Array.prototype.join", argUndef(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				if !ctx.This.IsObject() || !ctx.This.Obj().IsArray() {
					return interp.String("")
				}
				var parts []string
				for _, e := range ctx.This.Obj().ArrayElems() {
					if e.Kind() == interp.KindNumber {
						parts = append(parts, jsnum.Format(e.Num()))
					} else if e.Kind() == interp.KindString {
						parts = append(parts, e.Str())
					} else {
						parts = append(parts, "")
					}
				}
				return interp.String(strings.Join(parts, "undefined"))
			})),
	})
	b.add(&Defect{
		ID: "je-034", Engine: "JerryScript", AttrVersion: "v2.2.0",
		Component: CodeGen, APIType: "other", API: "Math.cbrt",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "Math.cbrt(27) is off by 1 ULP",
		Witness: `print(Math.cbrt(27) === 3);`,
		Hook: onAPI("Math.cbrt", argNumber(0, func(f float64) bool { return f == 27 }),
			ret(interp.Number(3.0000000000000004))),
	})

	// ---- v2.3.0: 2 verified/fixed/new ----
	b.add(&Defect{
		ID: "je-035", Engine: "JerryScript", AttrVersion: "v2.3.0",
		Component: CodeGen, APIType: "other", API: "Math.imul",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Math.imul returns the unwrapped float product",
		Witness: `print(Math.imul(65537, 65537));`,
		Hook: onAPI("Math.imul", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[0].Kind() == interp.KindNumber &&
				ctx.Args[1].Kind() == interp.KindNumber &&
				math.Abs(ctx.Args[0].Num()*ctx.Args[1].Num()) > 2147483647
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.Number(ctx.Args[0].Num() * ctx.Args[1].Num())
		})),
	})
	b.add(&Defect{
		ID: "je-036", Engine: "JerryScript", AttrVersion: "v2.3.0",
		Component: Implementation, APIType: "other", API: "parseFloat",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "parseFloat(\".5\") returns NaN",
		Witness: `print(parseFloat(".5"));`,
		Hook: onAPI("parseFloat", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(strings.TrimSpace(ctx.Args[0].Str()), ".")
		}, ret(interp.Number(math.NaN()))),
	})
}
