package builtins

import (
	"strings"
	"testing"

	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// conformanceCases are programs whose results ECMA-262 fixes. Every
// testbed shares the reference interpreter, so a reference bug here is
// one no differential campaign can see; the expected values come from the
// cited spec steps, not from running the interpreter.
var conformanceCases = []struct {
	name string
	src  string
	// strict runs the program on a strict testbed (interp.Config.Strict
	// and parser.Options.Strict), as cmd/jsrun -strict does.
	strict bool
	// want is the printed output; throws names the uncaught error's
	// constructor when the program must not complete.
	want, throws string
}{
	// SetIntegrityLevel (7.3.15) changes attributes and extensibility;
	// it adds no property.
	{name: "freeze adds no property",
		src:  `print(Object.getOwnPropertyNames(Object.freeze({a: 1})).join());`,
		want: "a"},
	{name: "seal adds no property",
		src:  `print(Object.getOwnPropertyNames(Object.seal({a: 1})).join());`,
		want: "a"},
	{name: "frozen array adds no property",
		src:  `print(Object.getOwnPropertyNames(Object.freeze([7])).join());`,
		want: "0,length"},
	// OrdinaryFunctionCreate, SetFunctionName and MakeConstructor
	// (10.2.3, 10.2.9, 10.2.5) define length, name and prototype, in
	// that order; strictness is the [[Strict]] slot, and an arrow
	// function is never a constructor.
	{name: "strict function own properties",
		src:  `print(Object.getOwnPropertyNames(function () { "use strict"; }).join());`,
		want: "length,name,prototype"},
	{name: "arrow function own properties",
		src:  `print(Object.getOwnPropertyNames(() => 1).join(), "__arrow__" in (() => 1));`,
		want: "length,name false"},
	// TestIntegrityLevel (7.3.16) reads extensibility and attributes;
	// an ordinary property of any name is just a property.
	{name: "forged markers neither seal nor freeze",
		src:  `print(Object.isSealed({__sealed__: true}), Object.isFrozen({__frozen__: true}));`,
		want: "false false"},
	{name: "forged frozen marker on an array",
		src:  `var a = [1, 2]; a.__frozen__ = true; a[0] = 9; a[2] = 3; print(a.join(), a.length);`,
		want: "9,2,3 3"},
	{name: "frozen array ignores element writes",
		src:  `var a = Object.freeze([1, 2]); a[0] = 9; a[2] = 3; print(a.join(), a.length, Object.isFrozen(a), Object.isSealed(a));`,
		want: "1,2 2 true true"},
	// OrdinarySet returns false and PutValue throws in strict code.
	{name: "frozen array element write in strict code",
		src: `"use strict"; var a = Object.freeze([1, 2]);
try { a[0] = 9; print("no throw"); } catch (e) { print(e.name, a[0]); }`,
		want: "TypeError 1"},
	{name: "freeze returns its argument",
		src:  `var o = {}; print(Object.freeze(o) === o, Object.seal(o) === o, Object.freeze(1));`,
		want: "true true 1"},
	{name: "sealed object",
		src: `var s = Object.seal({x: 1}); s.x = 2; s.y = 3; delete s.x;
print(s.x, s.y, Object.isSealed(s), Object.isFrozen(s), Object.isExtensible(s));`,
		want: "2 undefined true false false"},
	{name: "seal then freeze, freeze then seal",
		src: `var a = Object.freeze(Object.seal({q: 1})), b = Object.seal(Object.freeze({q: 1}));
print(Object.isFrozen(a), Object.isSealed(a), Object.isFrozen(b), Object.isSealed(b));`,
		want: "true true true true"},
	{name: "non-extensible empty object is frozen",
		src:  `var o = Object.preventExtensions({}); print(Object.isFrozen(o), Object.isSealed(o), o === Object.preventExtensions(o));`,
		want: "true true true"},
	{name: "non-extensible object with a configurable property",
		src:  `var o = Object.preventExtensions({a: 1}); print(Object.isFrozen(o), Object.isSealed(o));`,
		want: "false false"},
	{name: "defineProperty'd non-configurable property",
		src: `var o = {}; Object.defineProperty(o, "a", {value: 1, writable: true});
var g = {}; Object.defineProperty(g, "b", {get: function () { return 2; }});
Object.preventExtensions(o); Object.preventExtensions(g);
print(Object.isSealed(o), Object.isFrozen(o), Object.isSealed(g), Object.isFrozen(g), o.a, g.b);`,
		want: "true false true true 1 2"},
	{name: "non-extensible array with an element",
		src:  `var a = Object.preventExtensions([1]); print(Object.isFrozen(a), Object.isSealed(a), Object.isSealed(Object.preventExtensions([])));`,
		want: "false false true"},
	// GlobalDeclarationInstantiation (16.1.7) step 8.a.iv: NaN is a
	// non-configurable, non-writable global, so CanDeclareGlobalFunction
	// fails before any binding exists and the script throws a TypeError.
	{name: "global function over NaN",
		src:    `function NaN() {} print(typeof NaN);`,
		throws: "TypeError"},
	{name: "global function over a configurable global",
		src:  `function parseInt() { return 1; } print(parseInt("7"), Object.getOwnPropertyDescriptor(this, "parseInt").enumerable);`,
		want: "1 true"},
	// EvalDeclarationInstantiation (19.2.1.3) step 8.a.iv checks every
	// function before step 16 creates f1.
	{name: "eval function over undefined",
		src:  `try { eval("function f1() {} function undefined() {}"); } catch (e) { print(e.name, typeof f1); }`,
		want: "TypeError undefined"},
	// A SyntaxError's message is its own; Error.prototype.toString
	// (20.5.3.4) prefixes the name.
	{name: "eval parse error message",
		src: `try { eval("var 1;"); } catch (e) {
  print(e instanceof SyntaxError, e.message.indexOf("SyntaxError"), String(e) === "SyntaxError: " + e.message); }`,
		want: "true -1 true"},
	{name: "eval early error message",
		src: `try { eval("let a; let a;"); } catch (e) {
  print(e instanceof SyntaxError, e.message.indexOf("SyntaxError")); }`,
		want: "true -1"},
	// Function code is strict when its source text is contained in
	// strict mode code (11.2.2), an arrow with an expression body
	// included, so PutValue throws on an unresolvable reference.
	{name: "expression-bodied arrow in strict code",
		src: `"use strict"; var f = () => (undeclared1 = 1);
try { f(); print("no throw"); } catch (e) { print(e.name); }`,
		want: "ReferenceError"},
	{name: "expression-bodied arrow in a strict function",
		src: `function g() { "use strict"; return () => (undeclared2 = 1); }
try { g()(); print("no throw"); } catch (e) { print(e.name); }`,
		want: "ReferenceError"},
	{name: "expression-bodied arrow in sloppy code",
		src:  `var f = () => (undeclared3 = 1); f(); print(undeclared3);`,
		want: "1"},
	// EvaluateCall (13.3.6.2) passes undefined as this for a plain call;
	// OrdinaryCallBindThis (10.2.1.2) keeps it for a strict callee and
	// substitutes the global object for a sloppy one. A built-in gets
	// undefined as is.
	{name: "plain call of a strict function",
		src:  `function s() { "use strict"; return this; } print(s() === undefined);`,
		want: "true"},
	{name: "plain call of a sloppy function from strict code",
		src:  `var g = this; function f() { return this === g; } (function () { "use strict"; print(f()); })();`,
		want: "true"},
	{name: "plain call of a built-in",
		src:  `var ts = Object.prototype.toString; print(ts());`,
		want: "[object Undefined]"},
	// ScriptEvaluation (16.1.6) evaluates a script in the global
	// environment, whose this binding is the global object in both modes
	// (GetThisEnvironment, 9.4.3); an arrow function takes it lexically.
	{name: "top-level this",
		src:  `print(this === globalThis, typeof this);`,
		want: "true object"},
	{name: "top-level this in strict code",
		src:    `print(this === globalThis, (() => this)() === globalThis);`,
		strict: true,
		want:   "true true"},
	{name: "strict function this in strict code",
		src:    `function f() { return this; } print(f() === undefined);`,
		strict: true,
		want:   "true"},
	// Arrow functions and methods take UniqueFormalParameters (15.3.1,
	// 15.4.1), and a parameter list that is not simple rejects
	// duplicates too (15.2.1): each is an early SyntaxError in either
	// mode.
	{name: "duplicate arrow parameters",
		src:  `try { eval("var f = (a, a) => a; print(f(1, 2));"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "duplicate arrow parameters in strict code",
		src:    `try { eval("var f = (a, a) => a; print(f(1, 2));"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	{name: "duplicate method parameters",
		src:  `try { eval("({ m(a, a) { return a; } }).m(1, 2)"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "duplicate method parameters in strict code",
		src:    `try { eval("({ m(a, a) { return a; } }).m(1, 2)"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	{name: "duplicate rest parameter",
		src:  `try { eval("function f(a, ...a) { return a; }"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "distinct arrow and method parameters",
		src:  `var f = (a, b) => a - b; print(f(3, 1), ({ m(a, b) { return a * b; } }).m(2, 3));`,
		want: "2 6"},
	// A function whose parameter list is not simple may not have a "use
	// strict" directive of its own (15.2.1, 15.3.1, 15.4.1): an early
	// SyntaxError in either mode, however strict the enclosing code.
	{name: "use strict in a function with a rest parameter",
		src:  `try { eval("function f(...a) { 'use strict'; return a.length; } print(f(1, 2));"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "use strict in an arrow function with a rest parameter in strict code",
		src:    `try { eval("var f = (...a) => { 'use strict'; return a.length; }; print(f(1, 2));"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	{name: "use strict in a method with a rest parameter",
		src:  `try { eval("({ m(a, ...b) { 'use strict'; } })"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "rest parameters without use strict",
		src:  `function f(...a) { "x"; return a.length; } print(f(1, 2), ((...b) => { "use asm"; return b.length; })(3));`,
		want: "2 1"},
	// A getter takes no parameters and a setter exactly one, which is not
	// a rest parameter (15.4): anything else is a SyntaxError.
	{name: "setter with two parameters",
		src:  `try { eval("var o = { set x(a, b) {} }; print(1);"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "setter with a rest parameter in strict code",
		src:    `try { eval("var o = { set x(...a) {} };"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	{name: "getter with a parameter",
		src:  `try { eval("var o = { get x(a) { return 1; } }; print(o.x);"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "accessors with their parameter lists",
		src:  `var v = 0; var o = { get x() { return 1; }, set x(a) { v = a; } }; o.x = 5; print(o.x, v);`,
		want: "1 5"},
	// A function's own "use strict" makes its parameters and name strict
	// code (11.2.2), where eval and arguments are not binding names
	// (13.1.1): an early SyntaxError in sloppy code too.
	{name: "eval parameter of a strict function",
		src:  `try { eval("function f(eval) { 'use strict'; return eval; } print(f(3));"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "arguments parameter of a strict method",
		src:  `try { eval("({ m(arguments) { 'use strict'; } })"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "strict function named eval",
		src:  `try { eval("(function eval() { 'use strict'; })"); } catch (e) { print(e.name); }`,
		want: "SyntaxError"},
	{name: "function named arguments in strict code",
		src:    `try { eval("function arguments() {}"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	{name: "eval parameter of a sloppy function",
		src:  `function f(eval) { return eval; } print(f(3));`,
		want: "3"},
	// FunctionDeclarationInstantiation (10.2.11) step 15: a parameter
	// named arguments means no arguments object, so the parameter keeps
	// its value.
	{name: "parameter named arguments",
		src:  `function f(arguments) { return arguments; } print(f(3));`,
		want: "3"},
	{name: "rest parameter named arguments",
		src:  `function f(a, ...arguments) { return arguments.length + ":" + arguments[1]; } print(f(3, 4, 5));`,
		want: "2:5"},
	{name: "parameter named arguments in strict code",
		src:    `try { eval("function f(arguments) { return arguments; }"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "SyntaxError"},
	// String.prototype.replace (22.1.3.19) expands a string pattern's
	// replacement with GetSubstitution (22.1.3.19.1) and no captures, as
	// for a RegExp: $$ is one $, $` and $' the text before and after the
	// match, and $n stays literal.
	{name: "replace string pattern $$",
		src:  `print("abc".replace("b", "$$"), "abc".replace(/b/, "$$"));`,
		want: "a$c a$c"},
	{name: "replace string pattern $& $` $'",
		src:  "print(\"abc\".replace(\"b\", \"[$&|$`|$']\"));",
		want: "a[b|a|c]c"},
	{name: "replace string pattern $n without captures",
		src:  `print("abc".replace("b", "$1$01"));`,
		want: "a$1$01c"},
	{name: "replace string pattern after a non-ASCII prefix",
		src:  "print(\"\u00e9ab\".replace(\"a\", \"[$`]\"), \"\u00e9ab\".replace(\"a\", function (m, pos) { return pos; }));",
		want: "\u00e9[\u00e9]b \u00e91b"},
	// x++, x op= y and x ||= y evaluate GetValue on their target first
	// (13.4.2.1, 13.15.2 steps 1.b and 4-6), and GetValue of an
	// unresolvable reference throws a ReferenceError (6.2.5.5 step 3) in
	// both modes; only a plain assignment creates a global in sloppy code
	// (PutValue step 3.b).
	{name: "update of an undeclared name",
		src:  `try { undeclaredA++; print("no throw"); } catch (e) { print(e.name, typeof undeclaredA); }`,
		want: "ReferenceError undefined"},
	{name: "compound assignment to an undeclared name",
		src:  `try { undeclaredB += 1; print("no throw"); } catch (e) { print(e.name, "undeclaredB" in this); }`,
		want: "ReferenceError false"},
	{name: "logical assignments to an undeclared name",
		src:  `var r = []; try { undeclaredC ||= 1; } catch (e) { r.push(e.name); } try { undeclaredD &&= 1; } catch (e) { r.push(e.name); } try { undeclaredE ??= 1; } catch (e) { r.push(e.name); } print(r.join());`,
		want: "ReferenceError,ReferenceError,ReferenceError"},
	{name: "update of an undeclared name in strict code",
		src:    `try { undeclaredF--; print("no throw"); } catch (e) { print(e.name); }`,
		strict: true,
		want:   "ReferenceError"},
	{name: "plain assignment to an undeclared name",
		src:  `undeclaredG = 1; undeclaredG++; print(undeclaredG);`,
		want: "2"},
	// The operators both evaluators take from one helper (interp/ops.go),
	// so only spec-given values can catch a wrong helper. Unary operators
	// (13.5): ! ToBoolean, - and + ToNumber, ~ ToInt32 then NOT, void.
	{name: "unary operators",
		src:  `print(!0, !"", -"3", +"4", ~5, ~-1, void 6, typeof -0);`,
		want: "true true -3 4 -6 0 undefined number"},
	// typeof of an unresolvable reference is "undefined" (13.5.3 step
	// 2.a); globalThis (19.1) and undefined resolve.
	{name: "typeof of unbound and built-in names",
		src:  `function f() { return typeof notDeclared; } print(typeof notDeclared, f(), typeof globalThis, typeof undefined, typeof Math);`,
		want: "undefined undefined object undefined object"},
	// delete of a property (13.5.1.2 step 5): [[Delete]] returns false on
	// a non-configurable property, which strict code turns into a
	// TypeError; a primitive base is converted and deleted from.
	{name: "delete of a non-configurable property",
		src:  `var o = {}; Object.defineProperty(o, "x", {value: 1}); o.y = 2; print(delete o.x, delete o.y, o.x, o.y, delete o.z);`,
		want: "false true 1 undefined true"},
	{name: "delete of a non-configurable property in strict code",
		src:    `var o = {}; Object.defineProperty(o, "x", {value: 1}); try { delete o.x; print("deleted"); } catch (e) { print(e.name, o.x); }`,
		strict: true,
		want:   "TypeError 1"},
	// delete of a binding (13.5.1.2 step 4): a declarative record's let
	// and a var's non-configurable global property stay; an implicit
	// global (a configurable property) goes.
	{name: "delete of global bindings",
		src:  `let g = 1; var v = 2; w = 3; function f() { return delete g; } print(delete g, f(), delete v, delete w, typeof g, typeof v, typeof w);`,
		want: "false false false true number number undefined"},
	// Compound assignment (13.15.2 step 5) applies the operator its
	// token names, on a function's slot, a global and a property.
	{name: "compound assignment operators",
		src: `function f() { var a = 5; a ^= 3; var b = 5; b |= 3; var c = 5; c &= 3; var d = 1; d <<= 4; var e = -16; e >>= 2; var g = -16; g >>>= 28; var h = 2; h **= 10; var i = 7; i %= 4; var j = 1; j += "2"; var k = 9; k -= 4; var l = 3; l *= 4; var m = 9; m /= 2; return [a, b, c, d, e, g, h, i, j, k, l, m].join(); }
var a = 5; a ^= 3; var o = {x: 5}; o.x ^= 3; o.x -= 1; print(f(), a, o.x);`,
		want: "6,7,1,16,-4,15,1024,3,12,5,12,4.5 6 5"},
	// Logical operators (13.13.1) and logical assignment (13.15.2 steps
	// 7-9): && and || test ToBoolean, ?? nullishness, and an assignment
	// that short-circuits evaluates no right-hand side.
	{name: "logical operators",
		src:  `print(0 && 1, 2 && 3, 0 || 4, 5 || 6, null ?? 7, 0 ?? 8, undefined ?? "", "" ?? 9);`,
		want: "0 3 4 5 7 0  "},
	{name: "logical assignment operators",
		src:  `var y = 0, n = 0; y ??= (n = 1); var z = null; z ??= 2; var p = 0; p ||= 5; var q = 1; q &&= 7; var r = 0; r &&= (n = 2); var o = {s: ""}; o.s ||= "t"; print(y, n, z, p, q, r, o.s);`,
		want: "0 0 2 5 7 0 t"},
	// Labelled continue and break (14.7.1.2 LoopContinues, 14.13.3):
	// each ends at the loop its label names; an unlabelled break ends the
	// switch.
	{name: "labelled break and continue",
		src:  `var s = ""; outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j == 1) continue outer; if (i == 2) break outer; s += i + "" + j + ","; } } for (var k in {a: 1, b: 2}) { switch (k) { case "a": s += "A"; break; default: s += "D"; } } print(s);`,
		want: "00,10,AD"},
	// for-in/for-of bind each key or item (14.7.5.7); a catch parameter
	// is a binding of the catch block (14.15.2).
	{name: "for-in, for-of and catch bindings",
		src:  `var ks = []; for (var k in {a: 1, b: 2}) ks.push(k); for (const v of [3, 4]) ks.push(v); var e = "outer"; try { throw "inner"; } catch (e) { e += "!"; ks.push(e); } print(ks.join(), k, e);`,
		want: "a,b,3,4,inner! b outer"},
	// Array spread (13.2.4.1) and NamedEvaluation of an anonymous
	// function (13.15.2 step 1.c, 14.3.1.2).
	{name: "array spread and function names",
		src:  `var f = function () {}; var g; g = function () {}; print([1, ...[2, 3], ..."ab"].join(), f.name, g.name);`,
		want: "1,2,3,a,b f g"},
}

// TestReferenceConformance runs conformanceCases on the compiled path and
// on the tree walker (the evaluator of eval code), each on a shape-layout
// and a dictionary-layout realm.
func TestReferenceConformance(t *testing.T) {
	for _, evaluator := range []string{"compiled", "tree walker"} {
		for _, l := range layouts {
			for _, c := range conformanceCases {
				prog, err := parser.ParseWith(c.src, parser.Options{Strict: c.strict})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				resolve.Program(prog)
				in := NewRuntime(interp.Config{Fuel: 1_000_000, Strict: c.strict, DisableShapes: l.dict})
				if evaluator == "compiled" {
					compile.Program(prog)
					err = compile.Of(prog).Run(in)
				} else {
					err = in.Run(prog)
				}
				got := strings.TrimSuffix(in.Out.String(), "\n")
				thrown := ""
				if th, ok := interp.IsThrow(err); ok {
					thrown = interp.ErrorName(th.Val)
				} else if err != nil {
					t.Fatalf("%s/%s/%s: %v", evaluator, l.name, c.name, err)
				}
				if got != c.want || thrown != c.throws {
					t.Errorf("%s/%s/%s:\n got %q, threw %q\nwant %q, threw %q",
						evaluator, l.name, c.name, got, thrown, c.want, c.throws)
				}
			}
		}
	}
}
