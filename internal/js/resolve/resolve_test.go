package resolve_test

import (
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// run executes src on a fresh reference runtime, optionally resolving
// first, and returns (printed output, error rendering).
func run(t *testing.T, src string, resolved bool) (string, string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if resolved {
		resolve.Program(prog)
	}
	in := builtins.NewRuntime(interp.Config{Fuel: 500000})
	errStr := ""
	if rerr := in.Run(prog); rerr != nil {
		errStr = rerr.Error()
	}
	return in.Out.String(), errStr
}

// both asserts the two evaluator paths agree, and returns the output.
func both(t *testing.T, src string) (string, string) {
	t.Helper()
	ro, re := run(t, src, true)
	mo, me := run(t, src, false)
	if ro != mo || re != me {
		t.Errorf("paths diverge on %q:\nresolved: out=%q err=%q\nmap:      out=%q err=%q", src, ro, re, mo, me)
	}
	return ro, re
}

// TestScopeSemantics cross-checks the slot evaluator against the map
// evaluator on the scope-rule corner cases the resolver must reproduce, and
// pins the expected behaviour where it is observable.
func TestScopeSemantics(t *testing.T) {
	cases := []struct {
		name, src string
		out       string // expected print output ("" = only cross-check)
		errSubstr string
	}{
		{name: "let shadow read before decl", // TDZ-free: pre-decl reads see the outer binding
			src: `function f(){ let x = 1; { print(x); let x = 2; print(x); } print(x); } f();`,
			out: "1\n2\n1\n"},
		{name: "var hoisting", src: `function f(){ print(v); var v = 3; print(v); } f();`, out: "undefined\n3\n"},
		{name: "var undefined keeps value", src: `function f(){ var x = 1; var x; print(x); } f();`, out: "1\n"},
		{name: "top-level var undefined keeps value", src: `var x = 1; var x; print(x);`, out: "1\n"},
		{name: "func decl hoists past block", // closure env is the function frame, not the block
			src: `function f(){ { let y = 1; function g(){ return typeof y; } var h = g; } return h(); } var y2; print(f());`,
			out: "undefined\n"},
		{name: "self name immutable silent", src: `var f = function me(){ me = 5; return typeof me; }; print(f());`, out: "function\n"},
		{name: "self name shadowed by param", src: `var f = function me(me){ return me; }; print(f(7));`, out: "7\n"},
		{name: "self name shadowed by outer var", // Has walks the closure chain: self does not bind
			src: `function outer(){ var g = 1; var f = function g(){ g = 2; }; f(); return g; } print(outer());`, out: "2\n"},
		{name: "self name typeof with outer shadow",
			src: `function outer(){ var g = 1; var f = function g(){ return typeof g; }; return f(); } print(outer());`, out: "number\n"},
		{name: "func decl self assign hits hoisted var",
			src: `function outer(){ function g(){ g = 1; return typeof g; } var r = g(); return r + "," + typeof g; } print(outer());`, out: "number,number\n"},
		{name: "self plus inner var share binding",
			src: `var f = function me(){ var me; print(typeof me); me = 3; print(typeof me); }; f();`, out: "function\nfunction\n"},
		{name: "self unbound inner var declares",
			src: `var me = 0; function outer(){ var me = 9; var f = function me(){ var me; return typeof me; }; return f(); } print(outer());`, out: "undefined\n"},
		{name: "arguments object", src: `function f(){ return arguments.length + "," + arguments[1]; } print(f(1,2,3));`, out: "3,2\n"},
		{name: "arguments in arrow", src: `function f(){ var a = () => arguments[0]; return a(); } print(f(42));`, out: "42\n"},
		{name: "duplicate params", src: `function f(a, a){ return a; } print(f(1, 2));`, out: "2\n"},
		{name: "param var collision", src: `function f(a){ var a; print(a); var a = 9; print(a); } f(5);`, out: "5\n9\n"},
		{name: "func decl overwrites param", src: `function f(g){ function g(){ return 1; } return g(); } print(f(0));`, out: "1\n"},
		{name: "catch param", src: `try { throw 1; } catch (e) { print(e); } print(typeof e);`, out: "1\nundefined\n"},
		{name: "catch param shadows", src: `function f(){ var e = "outer"; try { throw "in"; } catch (e) { print(e); } print(e); } f();`, out: "in\nouter\n"},
		{name: "switch case lets", src: `function f(n){ switch(n){ case 1: let z = "a"; case 2: print(typeof z); } } f(2); f(1);`, out: "undefined\nstring\n"},
		{name: "for let closure", src: `function f(){ var fs = []; for (let i = 0; i < 3; i++) { fs[fs.length] = function(){ return i; }; } return fs[0]() + "" + fs[2](); } print(f());`},
		{name: "for-in let per iteration", src: `var o = {a:1, b:2}; var ks = ""; for (let k in o) { ks = ks + k; } print(ks);`, out: "ab\n"},
		{name: "for-of var undefined quirk", // each iteration writes its value, undefined included
			src: `function f(){ for (var x of [1, undefined, 2]) { print(x); } } f();`,
			out: "1\nundefined\n2\n"},
		{name: "var initializer undefined overwrites",
			src: `function f(){ var a = 7; var a = undefined; return a; } print(f()); var g = 7; var g = undefined; print(g);`,
			out: "undefined\nundefined\n"},
		{name: "typeof undeclared", src: `print(typeof zzz); function f(){ print(typeof zzz); } f();`, out: "undefined\nundefined\n"},
		{name: "typeof let before decl in block", src: `function f(){ { print(typeof q); let q = 1; } } f();`, out: "undefined\n"},
		{name: "delete local is false", src: `function f(){ var x = 1; print(delete x); } f();`, out: "false\n"},
		{name: "delete global", src: `gg = 1; print(delete gg); print(typeof gg);`, out: "true\nundefined\n"},
		{name: "const assignment throws", src: `function f(){ const c = 1; c = 2; } f();`, errSubstr: "Assignment to constant"},
		{name: "sloppy undeclared assign creates global", src: `function f(){ und = 3; } f(); print(und);`, out: "3\n"},
		{name: "braceless if let", src: `function f(){ if (true) let w = 1; print(typeof w); } f();`},
		{name: "eval sees only globals", src: `var ge = 1; function f(){ var le = 2; return eval("typeof le") + eval("typeof ge"); } print(f());`, out: "undefinednumber\n"},
		{name: "eval declares global lexical", src: `eval("let el = 5;"); print(el);`, out: "5\n"},
		{name: "closure over call frames", src: `function mk(n){ return function(){ return n; }; } var a = mk(1), b = mk(2); print(a() + b());`, out: "3\n"},
		{name: "nested function depth", src: `function f(){ var x = 1; function g(){ var y = 2; function h(){ return x + y; } return h(); } return g(); } print(f());`, out: "3\n"},
		{name: "global shadow from function", src: `var gv = "g"; function f(){ var gv = "l"; return gv; } print(f() + gv);`, out: "lg\n"},
		{name: "globalThis mirror", src: `var tv = 4; print(globalThis.tv);`, out: "4\n"},
		{name: "top-level block let", src: `{ let bl = "b"; print(bl); } print(typeof bl);`, out: "b\nundefined\n"},
		{name: "top-level block var global split", // block vars land on the global object, like top-level ones
			src: `{ var j = 5; } print(globalThis.j); print(j);`, out: "5\n5\n"},
		{name: "top-level for var global split",
			src: `for (var i = 0; i < 3; i++) {} print(globalThis.i); print(i);`, out: "3\n3\n"},
		{name: "labelled loops", src: `function f(){ var s=""; outer: for (let i=0;i<3;i++){ for (let j=0;j<3;j++){ if (j==1) continue outer; s+=i+""+j; } } return s; } print(f());`, out: "001020\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errStr := both(t, tc.src)
			if tc.out != "" && out != tc.out {
				t.Errorf("output %q, want %q", out, tc.out)
			}
			if tc.errSubstr != "" && !contains(errStr, tc.errSubstr) {
				t.Errorf("error %q, want substring %q", errStr, tc.errSubstr)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSlotLayout pins the static layout the resolver computes.
func TestSlotLayout(t *testing.T) {
	src := `function f(a, b) { var c = a; let d = b; return function g() { return a + d; }; }`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	fd, ok := prog.Body[0].(*ast.FuncDecl)
	if !ok {
		t.Fatal("expected function declaration")
	}
	sc := fd.Fn.Scope
	if sc == nil {
		t.Fatal("function scope not annotated")
	}
	// a, b, the self-name f (Call binds it for declarations too), c, d —
	// and no arguments slot (the body never mentions it).
	if sc.NumSlots != 5 {
		t.Errorf("frame size %d (%v), want 5", sc.NumSlots, sc.Names)
	}
	if sc.ArgumentsSlot != -1 {
		t.Errorf("arguments slot %d materialised despite being unobservable", sc.ArgumentsSlot)
	}
	if len(sc.ParamSlots) != 2 {
		t.Errorf("param slots %v, want 2 entries", sc.ParamSlots)
	}
}

// TestArgumentsSlotMaterialises checks the arguments-object elision is
// exactly as conservative as required.
func TestArgumentsSlotMaterialises(t *testing.T) {
	progFor := func(src string) *ast.ScopeInfo {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		return prog.Body[0].(*ast.FuncDecl).Fn.Scope
	}
	if sc := progFor(`function f() { return arguments; }`); sc.ArgumentsSlot < 0 {
		t.Error("direct use must materialise the arguments slot")
	}
	if sc := progFor(`function f() { return () => arguments[0]; }`); sc.ArgumentsSlot < 0 {
		t.Error("arrow use must materialise the enclosing arguments slot")
	}
	if sc := progFor(`function f() { return function(){ return arguments; }; }`); sc.ArgumentsSlot >= 0 {
		t.Error("a nested non-arrow function's arguments must not materialise the outer slot")
	}
}

// TestRefKinds pins representative reference classifications.
func TestRefKinds(t *testing.T) {
	src := `var g = 1;
function f(p) {
  var l = p;
  { print(l); print(g); print(q); let q = 2; print(q); }
  return l;
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	var idents []*ast.Ident
	ast.Walk(prog, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			idents = append(idents, id)
		}
		return true
	})
	kindOf := func(name string) []ast.RefKind {
		var ks []ast.RefKind
		for _, id := range idents {
			if id.Name == name {
				ks = append(ks, id.Ref.Kind)
			}
		}
		return ks
	}
	for _, k := range kindOf("l") {
		if k != ast.RefSlot {
			t.Errorf("reference to var l classified %v, want RefSlot", k)
		}
	}
	for _, k := range kindOf("g") {
		if k != ast.RefGlobal {
			t.Errorf("reference to global g classified %v, want RefGlobal", k)
		}
	}
	ks := kindOf("q")
	if len(ks) != 2 || ks[0] != ast.RefDynamic || ks[1] != ast.RefSlot {
		t.Errorf("references to q classified %v, want [RefDynamic RefSlot]", ks)
	}
}
