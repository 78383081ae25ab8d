package engines

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/regex"
)

// chakraCore seeds the 7 ChakraCore defects (7/7/5/1).
func (b *catalogBuilder) chakraCore() {
	// Listing 7: eval accepts a for-statement without a loop body.
	b.add(&Defect{
		ID: "ch-001", Engine: "ChakraCore", AttrVersion: "v1.11.8",
		Component: ParserComp, APIType: "eval", API: "eval",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "Listing 7: eval fails to throw SyntaxError for a bodyless for-loop",
		Witness: `var foo = function(cmd) {
  eval(cmd);
  print("Run Here 1");
};
var str = "for(;false;)";
foo(str);`,
		Hook: lenientEvalHook("for("),
	})
	b.add(&Defect{
		ID: "ch-002", Engine: "ChakraCore", AttrVersion: "v1.11.8",
		Component: CodeGen, APIType: "String", API: "String.prototype.endsWith",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "endsWith ignores its endPosition argument",
		Witness: `print("abcdef".endsWith("abc", 3));`,
		Hook: onAPI("String.prototype.endsWith", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && !ctx.Args[1].IsUndefined()
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.Bool(strings.HasSuffix(ctx.This.Str(), ctx.Args[0].Str()))
		})),
	})
	b.add(&Defect{
		ID: "ch-003", Engine: "ChakraCore", AttrVersion: "v1.11.12",
		Component: Implementation, APIType: "Object", API: "Object.keys",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.keys on arrays includes the length property",
		Witness: `print(Object.keys([7, 8]));`,
		Hook: onAPI("Object.keys", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().IsArray()
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().IsArray() {
				res.Obj().AppendElem(interp.String("length"))
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "ch-004", Engine: "ChakraCore", AttrVersion: "v1.11.13",
		Component: Implementation, APIType: "other", API: "Math.hypot",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		Note:    "Math.hypot() with no arguments returns NaN instead of +0",
		Witness: `print(Math.hypot());`,
		Hook:    onAPI("Math.hypot", noArgs(), ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "ch-005", Engine: "ChakraCore", AttrVersion: "v1.11.16",
		Component: Optimizer, APIType: "other", API: "functier",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "optimizing JIT tier returns NaN from hot functions (17th call)",
		Witness: `function hot(i) { return i * 2; }
var sum = 0;
for (var i = 0; i < 20; i++) { sum += hot(i); }
print(sum);`,
		Hook: onTier(17, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Replace: true, Return: interp.Number(math.NaN())}
		}),
	})
	b.add(&Defect{
		ID: "ch-006", Engine: "ChakraCore", AttrVersion: "v1.11.16",
		Component: CodeGen, APIType: "String", API: "String.prototype.trimStart",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "trimStart also trims trailing whitespace",
		Witness: `print("[" + "  a  ".trimStart() + "]");`,
		Hook: onAPI("String.prototype.trimStart", nil, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.String(strings.TrimSpace(ctx.This.Str()))
		})),
	})
	b.add(&Defect{
		ID: "ch-007", Engine: "ChakraCore", AttrVersion: "v1.11.16",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: false, New: true,
		Note:     "parser rejects binary integer literals (0b...)",
		Witness:  `var x = 0b1010; print(x);`,
		PreParse: rejectSource("0b", "unexpected binary literal"),
	})
}

// jsc seeds the 12 JSC defects (12/11/11/3).
func (b *catalogBuilder) jsc() {
	// Listing 5: %TypedArray%.prototype.set rejects String sources.
	b.add(&Defect{
		ID: "jsc-001", Engine: "JSC", AttrVersion: "244445", FixedIn: "261782",
		Component: CodeGen, APIType: "TypedArray", API: "Uint8Array.prototype.set",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: false,
		Note: "Listing 5: TypedArray.set throws TypeError for String array-likes",
		Witness: `var foo = function() {
  var e = '123';
  A = new Uint8Array(5);
  A.set(e);
  print(A);
};
foo();`,
		Hook: onAPI("Uint8Array.prototype.set", argString(0),
			throwE("TypeError", "Argument 1 is not an object")),
	})
	b.add(&Defect{
		ID: "jsc-002", Engine: "JSC", AttrVersion: "246135",
		Component: CodeGen, APIType: "String", API: "String.prototype.padEnd",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "padEnd pads at the start (padStart semantics)",
		Witness: `print("7".padEnd(3, "0"));`,
		Hook: onAPI("String.prototype.padEnd", nil, retFn(func(ctx *interp.HookCtx) interp.Value {
			s := ctx.This.Str()
			n := jsnum.SafeInt(ctx.Args[0].Num())
			if n > 4096 {
				n = 4096
			}
			fill := " "
			if len(ctx.Args) > 1 && ctx.Args[1].Kind() == interp.KindString {
				fill = ctx.Args[1].Str()
			}
			for len(s) < n && fill != "" {
				s = fill + s
				if len(s) > n {
					s = s[len(s)-n:]
				}
			}
			return interp.String(s)
		})),
	})
	b.add(&Defect{
		ID: "jsc-003", Engine: "JSC", AttrVersion: "246135",
		Component: Implementation, APIType: "Number", API: "Number.prototype.toPrecision",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "toPrecision(p) behaves like toFixed(p)",
		Witness: `print((123.456).toPrecision(4));`,
		Hook: onAPI("Number.prototype.toPrecision", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindNumber
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.String(toFixedHook(ctx.This.Num(), int(ctx.Args[0].Num())))
		})),
	})
	b.add(&Defect{
		ID: "jsc-004", Engine: "JSC", AttrVersion: "246135",
		Component: Implementation, APIType: "DataView", API: "DataView.prototype.getInt16",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "getInt16 ignores the littleEndian flag",
		Witness: `var b = new ArrayBuffer(2);
var dv = new DataView(b);
dv.setUint8(0, 1);
dv.setUint8(1, 2);
print(dv.getInt16(0, true));`,
		Hook: onAPI("DataView.prototype.getInt16", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && interp.ToBoolean(ctx.Args[1])
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			o := ctx.This.Obj()
			off := int(ctx.Args[0].Num())
			d := o.Buf().Data[o.ByteOff()+off:]
			return interp.Number(float64(int16(uint16(d[1]) | uint16(d[0])<<8)))
		})),
	})
	b.add(&Defect{
		ID: "jsc-005", Engine: "JSC", AttrVersion: "246135",
		Component: Implementation, APIType: "Object", API: "Object.entries",
		Channel: ChannelGen, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "Object.entries returns keys instead of [key,value] pairs",
		Witness: `print(JSON.stringify(Object.entries({a: 1})));`,
		Hook: onAPI("Object.entries", nil, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
				if err != nil || !res.IsObject() || !res.Obj().IsArray() {
					return res, err
				}
				elems := res.Obj().ArrayElems()
				for i, e := range elems {
					if e.IsObject() && e.Obj().IsArray() && len(e.Obj().ArrayElems()) > 0 {
						elems[i] = e.Obj().ArrayElems()[0]
					}
				}
				return res, nil
			}}
		}),
	})
	b.add(&Defect{
		ID: "jsc-006", Engine: "JSC", AttrVersion: "246135",
		Component: CodeGen, APIType: "String", API: "String.prototype.split",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "split with limit 0 returns [\"\"] instead of []",
		Witness: `print("a,b".split(",", 0).length);`,
		Hook: onAPI("String.prototype.split", and(argString(0), argZero(1)),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				return interp.ObjValue(ctx.In.NewArray([]interp.Value{interp.String("")}))
			})),
	})
	b.add(&Defect{
		ID: "jsc-007", Engine: "JSC", AttrVersion: "246135",
		Component: RegexEngine, APIType: "other", API: "RegExp.prototype.test",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "sticky (y) flag treated as global: matches beyond lastIndex",
		Witness: `var re = /b/y;
print(re.test("ab"));`,
		Hook: onRegex("RegExp.prototype.test", func(pattern, flags string) bool {
			return strings.Contains(flags, "y")
		}, func(ctx *interp.HookCtx) *interp.Override {
			// Re-run without stickiness and fake the resulting range.
			return fakeUnanchored(ctx, "")
		}),
	})
	b.add(&Defect{
		ID: "jsc-008", Engine: "JSC", AttrVersion: "246135",
		Component: StrictModeComp, APIType: "other", API: "propset",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		StrictOnly: true, WitnessStrict: true,
		Note: "strict mode: write to non-writable property is silently ignored",
		Witness: `"use strict";
var o = {};
Object.defineProperty(o, "x", {value: 1, writable: false});
o.x = 2;
print(o.x);`,
		Hook: onPropSet(func(ctx *interp.HookCtx) bool {
			key, _ := ctx.In.ToPropertyKey(ctx.Key) // a string or a number
			if p, ok := ctx.Obj.OwnProperty(key); ok {
				return !p.Accessor && p.Attr&interp.Writable == 0
			}
			return false
		}, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Handled: true}
		}),
	})
	b.add(&Defect{
		ID: "jsc-009", Engine: "JSC", AttrVersion: "246135",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects trailing commas in argument lists",
		Witness:  `print(Math.max(1, 2, ));`,
		PreParse: rejectSource(", )", "unexpected token ')'"),
	})
	b.add(&Defect{
		ID: "jsc-010", Engine: "JSC", AttrVersion: "251631",
		Component: Implementation, APIType: "TypedArray", API: "Uint16Array.prototype.set",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "set with negative offset silently wraps instead of throwing RangeError",
		Witness: `var a = new Uint16Array(4);
a.set([1], -1);
print(a);`,
		Hook: onAPI("Uint16Array.prototype.set", argNeg(1), noThrow(interp.Undefined())),
	})
	b.add(&Defect{
		ID: "jsc-011", Engine: "JSC", AttrVersion: "251631",
		Component: CodeGen, APIType: "String", API: "String.prototype.at",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "at(-1) returns undefined instead of the last element",
		Witness: `print("abc".at(-1));`,
		Hook:    onAPI("String.prototype.at", argNeg(0), ret(interp.Undefined())),
	})
	b.add(&Defect{
		ID: "jsc-012", Engine: "JSC", AttrVersion: "261782",
		Component: Implementation, APIType: "TypedArray", API: "Object.freeze",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Object.freeze is a no-op on typed arrays",
		Witness: `var a = new Uint8Array(2);
Object.freeze(a);
print(Object.isFrozen(a));`,
		Hook: onAPI("Object.freeze", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() &&
				ctx.Args[0].Obj().ElemKind != interp.ElemNone
		}, retFn(func(ctx *interp.HookCtx) interp.Value { return ctx.Args[0] })),
	})
}

// hermes seeds the 16 Hermes defects (16/16/15/4).
func (b *catalogBuilder) hermes() {
	// Listing 2: quadratic relocation when an array is filled right-to-left.
	b.add(&Defect{
		ID: "he-001", Engine: "Hermes", AttrVersion: "v0.1.1", FixedIn: "v0.3.0",
		Component: CodeGen, APIType: "Array", API: "arraygrow",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Listing 2: reverse-order element insertion relocates the array each time",
		Witness: `var foo = function(size) {
  var array = new Array(size);
  while (size--) {
    array[size] = 0;
  }
};
var parameter = 30000;
foo(parameter);
print("done");`,
		Hook: hermesReverseFillHook(),
	})
	// Listing 13 (Montage case): function self-name binding is mutable.
	b.add(&Defect{
		ID: "he-002", Engine: "Hermes", AttrVersion: "v0.1.1",
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
		ID: "he-003", Engine: "Hermes", AttrVersion: "v0.1.1",
		Component: Implementation, APIType: "eval", API: "eval",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "eval(\"\") returns null instead of undefined",
		Witness: `print(eval(""));`,
		Hook: onAPI("eval", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString && ctx.Args[0].Str() == ""
		}, ret(interp.Null())),
	})
	b.add(&Defect{
		ID: "he-004", Engine: "Hermes", AttrVersion: "v0.1.1",
		Component: RegexEngine, APIType: "other", API: "RegExp.prototype.test",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note:    "\\b word boundary fails next to digits",
		Witness: `print(/\b\d+\b/.test("abc 123"));`,
		Hook: onRegex("RegExp.prototype.test", func(pattern, flags string) bool {
			return strings.Contains(pattern, `\b`) && strings.Contains(pattern, `\d`)
		}, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Replace: true, Return: interp.Undefined()} // no match
		}),
	})
	b.add(&Defect{
		ID: "he-005", Engine: "Hermes", AttrVersion: "v0.1.1",
		Component: Implementation, APIType: "String", API: "String.prototype.includes",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "includes(\"\") returns false; the empty string occurs in every string",
		Witness: `print("abc".includes(""));`,
		Hook: onAPI("String.prototype.includes", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString && ctx.Args[0].Str() == ""
		}, ret(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "he-006", Engine: "Hermes", AttrVersion: "v0.1.1",
		Component: Implementation, APIType: "Object", API: "Object.getPrototypeOf",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		Note:    "getPrototypeOf throws TypeError on primitives (ES5 behaviour kept in ES2015 mode)",
		Witness: `print(Object.getPrototypeOf("s") === String.prototype);`,
		Hook: onAPI("Object.getPrototypeOf", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && !ctx.Args[0].IsObject() && !ctx.Args[0].IsNullish()
		}, throwE("TypeError", "Object.getPrototypeOf called on non-object")),
	})
	b.add(&Defect{
		ID: "he-007", Engine: "Hermes", AttrVersion: "v0.1.1",
		Component: CodeGen, APIType: "other", API: "Math.min",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Math.min() with no arguments returns -Infinity instead of +Infinity",
		Witness: `print(Math.min());`,
		Hook:    onAPI("Math.min", noArgs(), ret(interp.Number(math.Inf(-1)))),
	})
	b.add(&Defect{
		ID: "he-008", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: ParserComp, APIType: "other", API: "parser",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:     "parser rejects \\u{...} code point escapes in string literals",
		Witness:  `print("\u{48}i");`,
		PreParse: rejectSource(`\u{`, "malformed Unicode character escape sequence"),
	})
	b.add(&Defect{
		ID: "he-009", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: ParserComp, APIType: "other", API: "eval",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "eval accepts strict-mode functions with duplicate parameter names",
		Witness: `eval("'use strict'; function d(a, a) { return a; } print(d(1, 2));");
print("after");`,
		Hook: lenientEvalHook("function"),
	})
	b.add(&Defect{
		ID: "he-010", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: Implementation, APIType: "Object", API: "Object.keys",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.keys returns keys in reverse insertion order",
		Witness: `print(Object.keys({a: 1, b: 2, c: 3}));`,
		Hook: onAPI("Object.keys", nil, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().IsArray() {
				e := res.Obj().ArrayElems()
				for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
					e[i], e[j] = e[j], e[i]
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "he-011", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: CodeGen, APIType: "String", API: "String.prototype.lastIndexOf",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "lastIndexOf returns the first occurrence",
		Witness: `print("abcabc".lastIndexOf("b"));`,
		Hook: onAPI("String.prototype.lastIndexOf", argString(0),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				return interp.Number(float64(strings.Index(ctx.This.Str(), ctx.Args[0].Str())))
			})),
	})
	b.add(&Defect{
		ID: "he-012", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: CodeGen, APIType: "other", API: "Number",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "Number(\"0o17\") returns NaN; octal string numerals unsupported",
		Witness: `print(Number("0o17"));`,
		Hook: onAPI("Number", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(ctx.Args[0].Str(), "0o")
		}, ret(interp.Number(math.NaN()))),
	})
	b.add(&Defect{
		ID: "he-013", Engine: "Hermes", AttrVersion: "v0.3.0",
		Component: Implementation, APIType: "other", API: "JSON.stringify",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note:    "JSON.stringify(Infinity) emits Infinity instead of null",
		Witness: `print(JSON.stringify([1 / 0]));`,
		Hook: onAPI("JSON.stringify", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) == 0 {
				return false
			}
			a := ctx.Args[0]
			if a.Kind() == interp.KindNumber && math.IsInf(a.Num(), 0) {
				return true
			}
			if a.IsObject() && a.Obj().IsArray() {
				for _, e := range a.Obj().ArrayElems() {
					if e.Kind() == interp.KindNumber && math.IsInf(e.Num(), 0) {
						return true
					}
				}
			}
			return false
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.Kind() == interp.KindString {
				return interp.String(strings.ReplaceAll(res.Str(), "null", "Infinity"))
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "he-014", Engine: "Hermes", AttrVersion: "v0.4.0",
		Component: Implementation, APIType: "Array", API: "Array.prototype.splice",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note: "splice with negative deleteCount removes through the end",
		Witness: `var a = [1, 2, 3, 4];
a.splice(1, -1);
print(a);`,
		Hook: onAPI("Array.prototype.splice", argNeg(1),
			func(ctx *interp.HookCtx) *interp.Override {
				if !ctx.This.IsObject() || !ctx.This.Obj().IsArray() {
					return nil
				}
				o := ctx.This.Obj()
				start := int(ctx.Args[0].Num())
				elems := o.ArrayElems()
				if start < 0 {
					start += len(elems)
				}
				if start < 0 || start > len(elems) {
					return nil
				}
				removed := ctx.In.NewArray(append([]interp.Value(nil), elems[start:]...))
				o.SetArrayElems(elems[:start])
				return &interp.Override{Replace: true, Return: interp.ObjValue(removed)}
			}),
	})
	b.add(&Defect{
		ID: "he-015", Engine: "Hermes", AttrVersion: "v0.6.0",
		Component: Optimizer, APIType: "other", API: "functier",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "optimizing tier drops return values of hot functions (23rd call)",
		Witness: `function hot(i) { return i + 1; }
var sum = 0;
for (var i = 0; i < 30; i++) { sum += hot(i); }
print(sum);`,
		Hook: onTier(23, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Replace: true, Return: interp.Undefined()}
		}),
	})
	b.add(&Defect{
		ID: "he-016", Engine: "Hermes", AttrVersion: "v0.6.0",
		Component: CodeGen, APIType: "other", API: "isNaN",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "isNaN(\" \") returns true; ToNumber of whitespace strings is +0",
		Witness: `print(isNaN(" "));`,
		Hook: onAPI("isNaN", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.TrimSpace(ctx.Args[0].Str()) == "" && ctx.Args[0].Str() != ""
		}, ret(interp.Bool(true))),
	})
}

// quickJS seeds the 17 QuickJS defects (17/14/14/4).
func (b *catalogBuilder) quickJS() {
	// Listing 6: boolean-keyed property store appends to arrays.
	b.add(&Defect{
		ID: "qu-001", Engine: "QuickJS", AttrVersion: "2019-07-09",
		Component: CodeGen, APIType: "Array", API: "propset",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "Listing 6: obj[true] = v appends v to the array",
		Witness: `var foo = function() {
  var property = true;
  var obj = [1, 2, 5];
  obj[property] = 10;
  print(obj);
  print(obj[property]);
};
foo();`,
		Hook: onPropSet(func(ctx *interp.HookCtx) bool {
			return ctx.Obj.IsArray() && ctx.Key.Kind() == interp.KindString && ctx.Key.Str() == "true"
		}, func(ctx *interp.HookCtx) *interp.Override {
			ctx.Obj.AppendElem(ctx.Val)
			return &interp.Override{Handled: true}
		}),
	})
	// Listing 9: crash in String.prototype.normalize on an empty string.
	b.add(&Defect{
		ID: "qu-002", Engine: "QuickJS", AttrVersion: "2019-07-09",
		Component: Implementation, APIType: "String", API: "String.prototype.normalize",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note: "Listing 9: normalize(true) on the empty string crashes (memory safety)",
		Witness: `var foo = function(str) {
  str.normalize(true);
};
var parameter = "";
foo(parameter);`,
		Hook: onAPI("String.prototype.normalize", and(thisEmptyString(), argBool(0)),
			crash("heap-buffer-overflow in js_string_normalize")),
	})
	b.add(&Defect{
		ID: "qu-003", Engine: "QuickJS", AttrVersion: "2019-07-09",
		Component: Implementation, APIType: "eval", API: "eval",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		Note:    "eval of a non-string coerces to string instead of returning it unchanged",
		Witness: `print(typeof eval(5));`,
		Hook: onAPI("eval", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindNumber
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.String(jsnum.Format(ctx.Args[0].Num()))
		})),
	})
	b.add(&Defect{
		ID: "qu-004", Engine: "QuickJS", AttrVersion: "2019-09-01",
		Component: ParserComp, APIType: "eval", API: "eval",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "eval throws SyntaxError for comment-only programs",
		Witness: `print(eval("// nothing here"));`,
		Hook: onAPI("eval", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(strings.TrimSpace(ctx.Args[0].Str()), "//")
		}, throwE("SyntaxError", "unexpected end of comment-only input")),
	})
	b.add(&Defect{
		ID: "qu-005", Engine: "QuickJS", AttrVersion: "2019-09-01",
		Component: RegexEngine, APIType: "other", API: "RegExp.prototype.test",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "backreferences always match the empty string",
		Witness: `print(/(ab)\1/.test("abab"));`,
		Hook: onRegex("RegExp.prototype.test", func(pattern, flags string) bool {
			return strings.Contains(pattern, `\1`)
		}, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Replace: true, Return: interp.Undefined()}
		}),
	})
	b.add(&Defect{
		ID: "qu-006", Engine: "QuickJS", AttrVersion: "2019-09-01",
		Component: Implementation, APIType: "Array", API: "Array.prototype.sort",
		Channel: ChannelGen, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "default sort comparator is numeric instead of lexicographic",
		Witness: `print([10, 9, 1].sort());`,
		Hook: onAPI("Array.prototype.sort", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) == 0 || !ctx.Args[0].IsObject()
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().IsArray() {
				elems := res.Obj().ArrayElems()
				numericSort(elems)
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "qu-007", Engine: "QuickJS", AttrVersion: "2019-09-01",
		Component: Implementation, APIType: "Object", API: "Object.isFrozen",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note:    "Object.isFrozen(primitive) returns false; primitives are frozen by definition",
		Witness: `print(Object.isFrozen(5));`,
		Hook: onAPI("Object.isFrozen", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && !ctx.Args[0].IsObject()
		}, ret(interp.Bool(false))),
	})
	b.add(&Defect{
		ID: "qu-008", Engine: "QuickJS", AttrVersion: "2019-09-18",
		Component: StrictModeComp, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		StrictOnly: true, WitnessStrict: true,
		Note: "strict mode: defineProperty on a frozen object returns instead of throwing",
		Witness: `"use strict";
var o = Object.freeze({});
try {
  Object.defineProperty(o, "x", {value: 1});
  print("no throw");
} catch (e) {
  print("throws", e instanceof TypeError);
}`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().Integrity() == interp.Frozen
		}, noThrow(interp.Undefined())),
	})
	b.add(&Defect{
		ID: "qu-009", Engine: "QuickJS", AttrVersion: "2019-09-18",
		Component: Implementation, APIType: "TypedArray", API: "new Int32Array",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "Int32Array construction from arrays with holes yields garbage values",
		Witness: `var a = new Int32Array([1, , 3]);
print(a[1]);`,
		Hook: onConstruct("Int32Array", func(ctx *interp.HookCtx) bool {
			if len(ctx.Args) == 0 || !ctx.Args[0].IsObject() || !ctx.Args[0].Obj().IsArray() {
				return false
			}
			for _, e := range ctx.Args[0].Obj().ArrayElems() {
				if e.IsUndefined() {
					return true
				}
			}
			return false
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() && res.Obj().ElemKind != interp.ElemNone {
				for i, e := range ctx.Args[0].Obj().ArrayElems() {
					if e.IsUndefined() && i < res.Obj().ArrayLen() {
						res.Obj().TypedSet(i, 7)
					}
				}
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "qu-010", Engine: "QuickJS", AttrVersion: "2019-09-18",
		Component: Implementation, APIType: "other", API: "Function.prototype.bind",
		Channel: ChannelGen, Verified: false, DevFixed: false, New: false,
		Note: "bind drops the pre-bound argument list",
		Witness: `function add(a, b) { return a + b; }
var inc = add.bind(null, 1);
print(inc(5));`,
		Hook: onAPI("Function.prototype.bind", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1
		}, mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
			if res.IsObject() {
				o := res.Obj()
				o.SetBound(o.BoundTarget(), o.BoundThis(), nil)
			}
			return res
		})),
	})
	b.add(&Defect{
		ID: "qu-011", Engine: "QuickJS", AttrVersion: "2019-10-27",
		Component: CodeGen, APIType: "String", API: "String.prototype.padStart",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "padStart with an undefined filler pads with \"undefined\"",
		Witness: `print("5".padStart(4));`,
		Hook: onAPI("String.prototype.padStart", argMissingOrUndef(1),
			retFn(func(ctx *interp.HookCtx) interp.Value {
				s := ctx.This.Str()
				n := 0
				if len(ctx.Args) > 0 {
					n = jsnum.SafeInt(ctx.Args[0].Num())
				}
				pad := "undefinedundefinedundefined"
				if n > len(s) && n-len(s) <= len(pad) {
					s = pad[:n-len(s)] + s
				}
				return interp.String(s)
			})),
	})
	b.add(&Defect{
		ID: "qu-012", Engine: "QuickJS", AttrVersion: "2019-10-27",
		Component: CodeGen, APIType: "Number", API: "Number.prototype.toString",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "toString(radix>10) produces uppercase digits",
		Witness: `print((255).toString(16));`,
		Hook: onAPI("Number.prototype.toString", argBigNum(0, 11),
			mapResult(func(ctx *interp.HookCtx, res interp.Value) interp.Value {
				if res.Kind() == interp.KindString {
					return interp.String(strings.ToUpper(res.Str()))
				}
				return res
			})),
	})
	b.add(&Defect{
		ID: "qu-013", Engine: "QuickJS", AttrVersion: "2019-10-27",
		Component: Implementation, APIType: "Object", API: "Object.values",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "Object.values returns the keys",
		Witness: `print(Object.values({a: 1, b: 2}));`,
		Hook: onAPI("Object.values", nil, retFn(func(ctx *interp.HookCtx) interp.Value {
			arr := ctx.In.NewArray(nil)
			if len(ctx.Args) > 0 && ctx.Args[0].IsObject() {
				for _, k := range ctx.Args[0].Obj().EnumerableKeys() {
					arr.AppendElem(interp.String(k))
				}
			}
			return interp.ObjValue(arr)
		})),
	})
	b.add(&Defect{
		ID: "qu-014", Engine: "QuickJS", AttrVersion: "2019-10-27",
		Component: CodeGen, APIType: "other", API: "Math.pow",
		Channel: ChannelSpecData, Verified: false, DevFixed: false, New: false,
		Note:    "Math.pow(x, -0) returns 0 instead of 1",
		Witness: `print(Math.pow(2, -0));`,
		Hook: onAPI("Math.pow", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[1].Kind() == interp.KindNumber &&
				ctx.Args[1].Num() == 0 && math.Signbit(ctx.Args[1].Num())
		}, ret(interp.Number(0))),
	})
	b.add(&Defect{
		ID: "qu-015", Engine: "QuickJS", AttrVersion: "2020-01-05",
		Component: Optimizer, APIType: "other", API: "functier",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "optimized code raises a spurious TypeError on the 31st call",
		Witness: `function hot(i) { return i; }
var sum = 0;
for (var i = 0; i < 40; i++) { sum += hot(i); }
print(sum);`,
		Hook: onTier(31, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Replace: true,
				Err: &interp.Throw{Val: ctx.In.NewError("TypeError", "assertion failed in optimized frame")}}
		}),
	})
	b.add(&Defect{
		ID: "qu-016", Engine: "QuickJS", AttrVersion: "2020-01-05",
		Component: StrictModeComp, APIType: "Array", API: "Object.freeze",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		StrictOnly: true, WitnessStrict: true,
		Note: "strict mode: Object.freeze does not freeze arrays",
		Witness: `"use strict";
var a = Object.freeze([1]);
try { a[0] = 2; } catch (e) {}
print(a[0]);`,
		Hook: onAPI("Object.freeze", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].IsObject() && ctx.Args[0].Obj().IsArray()
		}, retFn(func(ctx *interp.HookCtx) interp.Value { return ctx.Args[0] })),
	})
	b.add(&Defect{
		ID: "qu-017", Engine: "QuickJS", AttrVersion: "2020-04-12",
		Component: CodeGen, APIType: "String", API: "String.prototype.trim",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note:    "trim does not strip the BOM (\\uFEFF)",
		Witness: `print(("\uFEFF" + "x").trim().length);`,
		Hook: onAPI("String.prototype.trim", func(ctx *interp.HookCtx) bool {
			return ctx.This.Kind() == interp.KindString && strings.ContainsRune(ctx.This.Str(), '\uFEFF')
		}, retFn(func(ctx *interp.HookCtx) interp.Value {
			return interp.String(strings.Trim(ctx.This.Str(), " \t\n\r"))
		})),
	})
}

// ---------- shared behaviour helpers ----------

// toFixedHook replicates toFixed digits for the toPrecision defect.
func toFixedHook(x float64, digits int) string {
	neg := math.Signbit(x)
	a := math.Abs(x)
	pow := math.Pow(10, float64(digits))
	scaled := a * pow
	i := math.Floor(scaled)
	if scaled-i >= 0.5 {
		i++
	}
	s := jsnum.Format(i / pow)
	if neg && i != 0 {
		s = "-" + s
	}
	return s
}

// numericSort sorts values as numbers (the qu-006 defect behaviour).
func numericSort(elems []interp.Value) {
	for i := 1; i < len(elems); i++ {
		for j := i; j > 0; j-- {
			a, b := elems[j-1], elems[j]
			if a.Kind() == interp.KindNumber && b.Kind() == interp.KindNumber && a.Num() > b.Num() {
				elems[j-1], elems[j] = elems[j], elems[j-1]
			}
		}
	}
}

// fakeUnanchored re-executes the pattern without stickiness/anchoring and
// fakes the match it finds (nil when the honest engine agrees).
func fakeUnanchored(ctx *interp.HookCtx, stripPrefix string) *interp.Override {
	pattern := strings.TrimPrefix(ctx.Pattern, stripPrefix)
	flags := strings.ReplaceAll(ctx.Flags, "y", "")
	re, err := regex.Compile(pattern, flags)
	if err != nil {
		return nil
	}
	m, err := re.Exec(ctx.Src, 0)
	if err != nil || m == nil {
		return nil
	}
	return &interp.Override{Replace: true,
		Return: interp.ObjValue(fakeMatchObject(m.Groups[0][0], m.Groups[0][1]))}
}

// hermesReverseFillHook implements the Listing-2 allocation defect: every
// element write left of the lowest index written so far costs work
// proportional to the relocation distance. The array's grow mark holds
// that lowest index plus one (zero: none yet), so scripts never see it.
func hermesReverseFillHook() *Hook {
	return &Hook{Site: interp.HookArrayGrow, Fn: func(ctx *interp.HookCtx) *interp.Override {
		o := ctx.Obj
		length := int64(o.ArrayLength())
		if length < 1024 {
			return nil
		}
		min := length
		if m := o.GrowMark(); m != 0 {
			min = int64(m) - 1
		}
		idx := int64(ctx.Index)
		if idx >= min {
			return nil
		}
		if ctx.Probe {
			return probeMatch
		}
		o.SetGrowMark(ctx.Index + 1)
		return &interp.Override{CostExtra: (min - idx) + (length-idx)/64}
	}}
}
