package compile_test

import (
	"errors"
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// run executes src on one evaluator path and reports output, fuel and the
// terminating error. The tree-walker path skips the compile pass, so no
// function literal carries a compiled body and the program tree-walks end
// to end.
func run(t *testing.T, src string, compiled bool, strict bool) (string, int64, error) {
	t.Helper()
	prog, err := parser.ParseWith(src, parser.Options{Strict: strict})
	if err != nil {
		// Some battery programs are sloppy-only (e.g. delete of an
		// unqualified name); an identical parse rejection on both paths is
		// trivially parity.
		return "", 0, errParse
	}
	resolve.Program(prog)
	if compiled {
		compile.Program(prog)
	}
	in := builtins.NewRuntime(interp.Config{Fuel: 500000, Strict: strict})
	var runErr error
	if compiled {
		runErr = compile.Of(prog).Run(in)
	} else {
		runErr = in.Run(prog)
	}
	return in.Out.String(), in.FuelUsed(), runErr
}

// errParse marks a battery program the strict parser rejects.
var errParse = errors.New("parse rejected")

// parityPrograms exercise every statement and expression form, the
// labelled break/continue protocol (including its dynamic quirks), frame
// pooling under recursion and exception unwinding, and the fuel-abort
// boundary.
var parityPrograms = []string{
	`print(1+2*3);`,
	`function f(a,b){var s=0; for(var i=a;i<b;i++){s+=i;} return s;} print(f(1,10));`,
	`var a=[1,2,3]; var o={x:1,get y(){return 42;}}; for (var k in o){print(k);} print(o.y); print(a.map(function(v){return v*2;}).join(","));`,
	`try { null.x; } catch (e) { print("caught: " + e); } finally { print("fin"); }`,
	`outer: for (var i=0;i<3;i++){ for (var j=0;j<3;j++){ if (j==1) continue outer; print(i+","+j);} }`,
	`var s=""; do { s += "x"; } while (s.length < 3); print(s); label: { print("in"); break label; print("no"); }`,
	`switch(2){case 1: print("one"); case 2: print("two"); case 3: print("three"); break; default: print("def");} print(typeof zzz); print(typeof print);`,
	`function F(v){this.v=v;} F.prototype.get=function(){return this.v;}; var o=new F(7); print(o.get()); print(o instanceof F);`,
	`var x = 5; x += 3; x++; --x; print(x); var y; print(y === undefined); delete x; print(typeof x);`,
	`print(eval("1+2")); var t = [0]; t[0]++; print(t[0]); print("abc".charCodeAt(1));`,
	// Recursion in a poolable frame: every activation must see its own
	// slots, including while unwinding through throws.
	`function fib(n){ if (n < 2) return n; return fib(n-1)+fib(n-2); } print(fib(12));`,
	`function deep(n){ var mine = n; if (n === 3) throw "stop@" + mine; deep(n+1); return mine; }
	 try { deep(0); } catch (e) { print(e); }`,
	// A closure-bearing function must NOT pool (the inner literal captures
	// the frame); its captured state must survive across calls.
	`function counter(){ var c = 0; return function(){ c++; return c; }; }
	 var c1 = counter(), c2 = counter(); print(c1()); print(c1()); print(c2());`,
	// The tree walker lets a label flow into the first loop that consumes
	// it — even through a labelled block; the compiled path must keep the
	// dynamic protocol.
	`foo: { var n = 0; while (n < 5) { n++; if (n === 2) { break foo; } } print("after:" + n); }`,
	`var log = ""; bar: { for (var i=0;i<4;i++){ if (i===2) continue bar; log += i; } log += "|tail"; } print(log);`,
	// Spread, template literals, sequence and conditional expressions.
	"var parts = [1,2]; function sum(a,b,c){return a+b+c;} print(sum(0, ...parts)); print(`tpl ${1+1} ${\"x\"}`);",
	`var q = (1, 2, 3); print(q); print(q > 2 ? "big" : "small"); var arr=[...[4,5],6]; print(arr.join("-"));`,
	// Named function expression self-name (silent sloppy write), arguments
	// object, update through members.
	`var f = function me(n){ me = 7; if (n > 0) { return me(n-1)+1; } return 0; }; print(f(3));`,
	`function g(){ return arguments.length + ":" + arguments[1]; } print(g(9,8,7));`,
	`var store = {}; var ob = { set v(x){ store.last = x; }, get v(){ return (store.last||0)*2; }, ["k"+1]: 10 };
	 ob.v = 21; print(ob.v); print(ob.k1); var m = {n: 1}; m.n += 4; m["n"]--; print(m.n);`,
	// for-of over strings/arrays, for-in over prototype chains.
	`for (var ch of "ab") { print(ch); } for (var v of [10,20]) { print(v); }
	 function P(){} P.prototype.inherited = 1; var pi = new P(); pi.own = 2;
	 var ks=[]; for (var key in pi) { ks.push(key); } print(ks.sort().join(","));`,
	// typeof/delete against the three reference classes, void, bitwise.
	`var dv = 3; function h(){ var local = 1; print(typeof local, typeof dv, typeof nope); } h();
	 print(void 0 === undefined); print(~5, 1<<4, 37>>>2, 8%3);`,
	// Exceptions crossing frames, finally overriding control flow.
	`function t1(){ try { return "try"; } finally { print("f1"); } } print(t1());
	 function t2(){ for (;;) { try { break; } finally { print("f2"); } } return "done"; } print(t2());`,
	// Dense-array traffic (by-value fast paths) and string builtins.
	`var big=[]; for (var i=0;i<50;i++){ big[i]=i; } var acc=0; for (var j=0;j<50;j++){ acc+=big[j]; } print(acc);
	 print("padme".padStart(8, "*")); print("x,y".split(",").length);`,
	// Logical assignment and nullish operators.
	`var la = 0; la ||= 5; print(la); var lb = 1; lb &&= 9; print(lb); var lc = null; lc ??= "n"; print(lc); print(null ?? "d");`,
	// Hoisting order: function declarations instantiated past blocks,
	// var/function name collisions, let shadowing in blocks.
	`print(hoisted()); function hoisted(){ return "up"; }
	 var shadow = "outer"; { let shadow = "inner"; print(shadow); } print(shadow);`,
	// Fuel-exhaustion parity: the abort must land on the same step.
	`var spin = 0; while (true) { spin++; }`,
}

// TestParity cross-checks the compiled and tree evaluators over the
// handwritten program battery — byte-identical output, error rendering and
// fuel, in both modes.
func TestParity(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for i, src := range parityPrograms {
			co, cf, ce := run(t, src, true, strict)
			to, tf, te := run(t, src, false, strict)
			ceStr, teStr := "", ""
			if ce != nil {
				ceStr = ce.Error()
			}
			if te != nil {
				teStr = te.Error()
			}
			if co != to || cf != tf || ceStr != teStr {
				t.Errorf("case %d (strict=%v) diverges:\ncompiled: out=%q fuel=%d err=%q\ntree:     out=%q fuel=%d err=%q\nsrc: %s",
					i, strict, co, cf, ceStr, to, tf, teStr, src)
			}
		}
	}
}

// TestCoverageParity pins that compiled execution records the same
// statement/function/branch coverage as the tree walk (Figure 9 must not
// depend on the evaluator path).
func TestCoverageParity(t *testing.T) {
	src := `function pick(n){ if (n > 1) { return "hi"; } else { return "lo"; } }
	 for (var i = 0; i < 3; i++) { print(pick(i)); }
	 switch (1) { case 1: print("c1"); break; default: print("cd"); }`
	cover := func(compiled bool) *interp.Coverage {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		if compiled {
			compile.Program(prog)
		}
		in := builtins.NewRuntime(interp.Config{Fuel: 100000})
		in.Cov = interp.NewCoverage()
		if compiled {
			err = compile.Of(prog).Run(in)
		} else {
			err = in.Run(prog)
		}
		if err != nil {
			t.Fatal(err)
		}
		return in.Cov
	}
	a, b := cover(true), cover(false)
	if len(a.Stmts) != len(b.Stmts) || len(a.Funcs) != len(b.Funcs) || len(a.Branches) != len(b.Branches) {
		t.Fatalf("coverage cardinality diverges: compiled (%d,%d,%d) vs tree (%d,%d,%d)",
			len(a.Stmts), len(a.Funcs), len(a.Branches), len(b.Stmts), len(b.Funcs), len(b.Branches))
	}
	for id := range b.Stmts {
		if !a.Stmts[id] {
			t.Errorf("compiled path missed statement %d", id)
		}
	}
	for key := range b.Branches {
		if !a.Branches[key] {
			t.Errorf("compiled path missed branch %v", key)
		}
	}
}

// TestCompileIdempotent guards the cache-sharing contract: compiling twice
// must be a no-op.
func TestCompileIdempotent(t *testing.T) {
	prog, err := parser.Parse("function f(a){return a*2;} print(f(21));")
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	compile.Program(prog)
	first := compile.Of(prog)
	if first == nil {
		t.Fatal("compile pass did not attach")
	}
	compile.Program(prog)
	if compile.Of(prog) != first {
		t.Error("recompilation replaced the attachment")
	}
}

// TestCompileRequiresResolve pins the layering: the compiler consumes the
// resolver's scope annotations and declines unresolved trees.
func TestCompileRequiresResolve(t *testing.T) {
	prog, err := parser.Parse("print(1);")
	if err != nil {
		t.Fatal(err)
	}
	compile.Program(prog)
	if compile.Of(prog) != nil {
		t.Error("compiler attached to an unresolved program")
	}
}

// TestPoolableMarking pins the frame-escape analysis: closure-free
// function scopes pool, closure-bearing ones must not.
func TestPoolableMarking(t *testing.T) {
	prog, err := parser.Parse(`
		function leafy(a, b) { var t = a + b; return t; }
		function maker() { var c = 0; return function () { return c; }; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	compile.Program(prog)
	scopes := map[string]*ast.ScopeInfo{}
	for _, st := range prog.Body {
		if fd, ok := st.(*ast.FuncDecl); ok {
			scopes[fd.Fn.Name] = fd.Fn.Scope
		}
	}
	if sc := scopes["leafy"]; sc == nil || !sc.Poolable {
		t.Error("closure-free function scope not marked Poolable")
	}
	if sc := scopes["maker"]; sc == nil || sc.Poolable {
		t.Error("closure-bearing function scope marked Poolable")
	}
}
