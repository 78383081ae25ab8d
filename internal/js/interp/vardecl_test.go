package interp_test

import (
	"strings"
	"testing"

	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// runVarProgram runs src on a fresh reference realm, compiled or on the
// tree walker, with shape-layout or dictionary objects.
func runVarProgram(t *testing.T, src string, strict, compiled, dict bool) (*interp.Interp, string, error) {
	t.Helper()
	prog, err := parser.ParseWith(src, parser.Options{Strict: strict})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	resolve.Program(prog)
	in := builtins.NewRuntime(interp.Config{Fuel: 500000, Strict: strict, DisableShapes: dict})
	if compiled {
		compile.Program(prog)
		err = compile.Of(prog).Run(in)
	} else {
		err = in.Run(prog)
	}
	return in, in.Out.String(), err
}

// TestVarDeclarationSemantics pins the spec results of var declarations
// on both evaluators and both object layouts (eval code always
// tree-walks).
func TestVarDeclarationSemantics(t *testing.T) {
	cases := []struct {
		name, src string
		strict    bool
		out       string // expected output
		err       string // expected error substring, "" = none
	}{
		{name: "read-only global keeps its value",
			src: `var NaN = 3; print(NaN, JSON.stringify(Object.getOwnPropertyDescriptor(this, "NaN")));`,
			out: "NaN {\"value\":null,\"writable\":false,\"enumerable\":false,\"configurable\":false}\n"},
		{name: "read-only global throws in strict code", src: `var NaN = 3;`, strict: true,
			err: "TypeError"},
		{name: "initializer keeps the attributes",
			src: `var print = print; eval("var parseInt = parseInt;"); print(Object.keys(this).indexOf("print"), Object.keys(this).indexOf("parseInt"));`,
			out: "-1 -1\n"},
		{name: "undefined initializer overwrites",
			src: `function f() { var a = 7; var a = undefined; return a; } print(f()); for (var x of [1, undefined, 2]) print(x);`,
			out: "undefined\n1\nundefined\n2\n"},
		{name: "block and loop vars land on the global object",
			src: `{ var blk = 1; } for (var i = 0; i < 2; i++) {} for (var k in {p: 1}) {} print(this.blk, this.i, this.k, blk, i, k);`,
			out: "1 2 p 1 2 p\n"},
		{name: "read-only global in a block throws in strict code",
			src: `try { var NaN = 3; } catch (e) { print(e.name); } print(NaN);`, strict: true,
			out: "TypeError\nNaN\n"},
		{name: "assignment keeps the attributes",
			src: `var o = {}; Object.defineProperty(o, "x", {value: 1, writable: true}); o.x = 2; print(Object.keys(o).length, o.x);`,
			out: "0 2\n"},
	}
	for _, tc := range cases {
		for _, dict := range []bool{false, true} {
			for _, compiled := range []bool{false, true} {
				_, out, err := runVarProgram(t, tc.src, tc.strict, compiled, dict)
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				if out != tc.out || (tc.err == "") != (err == nil) || !strings.Contains(errStr, tc.err) {
					t.Errorf("%s (dictionary=%v compiled=%v): output %q, error %q; want %q, error %q",
						tc.name, dict, compiled, out, errStr, tc.out, tc.err)
				}
			}
		}
	}
}

// TestGlobalVarKeepsShapeLayout pins that var declarations over built-in
// globals, in the program and in eval code, leave the global object on
// the hidden-class layout: an initializer no longer rewrites the
// property's attributes.
func TestGlobalVarKeepsShapeLayout(t *testing.T) {
	const src = `var print = print; var NaN = 1; eval("var undefined = 5; var parseInt = parseInt;"); print(typeof undefined);`
	for _, compiled := range []bool{false, true} {
		in, out, err := runVarProgram(t, src, false, compiled, false)
		if err != nil || out != "undefined\n" {
			t.Fatalf("compiled=%v: output %q, error %v", compiled, out, err)
		}
		if !in.Global.ShapeLayout() {
			t.Errorf("compiled=%v: the global object fell into dictionary mode", compiled)
		}
	}
}
