// Interpreter microbenchmarks: workload-shaped programs executed on the
// resolve-once slot path and on the legacy dynamic map path, so every perf
// PR can see exactly what the evaluator change bought (EXPERIMENTS.md
// records the numbers). The programs are interpreter-bound: one parse and
// one realm per measurement loop iteration would drown the signal, so the
// program is parsed once and the runtime rebuilt per iteration only where
// required for isolation (global state is mutated by runs).
package comfort

import (
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// interpBenchSrcs are the four workload shapes of the BenchmarkInterp
// suite. Work happens inside functions (the slot path's target — top-level
// code stays on the dynamic global path by design).
var interpBenchSrcs = map[string]string{
	"idents": `
function work(n) {
  var a = 1, b = 2, c = 3, d = 4;
  var acc = 0;
  for (var i = 0; i < n; i++) {
    var t = a + b - c + d;
    acc = acc + t - b + c - d + a;
    if (acc > 1000000) { acc = acc - 1000000; }
  }
  return acc;
}
print(work(4000));`,
	"calls": `
function leaf(x, y) { return x + y; }
function mid(x) { var s = leaf(x, 1) + leaf(x, 2); return s + leaf(x, 3); }
function work(n) {
  var acc = 0;
  for (var i = 0; i < n; i++) { acc = acc + mid(i % 7); }
  return acc;
}
print(work(1200));`,
	"arrays": `
function work(n) {
  var a = [];
  for (var i = 0; i < n; i++) { a[i] = i * 2; }
  var acc = 0;
  for (var j = 0; j < n; j++) { acc = acc + a[j]; a[j] = acc % 9973; }
  return acc + a.length;
}
print(work(2500));`,
	"strings": `
function work(n) {
  var s = "";
  for (var i = 0; i < n; i++) { s = s + "ab"; }
  var acc = 0;
  for (var j = 0; j < s.length; j = j + 7) { acc = acc + s.charCodeAt(j); }
  return acc + s.length;
}
print(work(600));`,
	// objects exercises the hidden-class layout on the compiled path:
	// literal construction (one shape transition chain per iteration),
	// monomorphic and polymorphic member access, member writes, and
	// method calls through the prototype-less function chain.
	"objects": `
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.sum = function() { return this.x + this.y; };
function makeTagged(i) {
  if (i % 2 === 0) { return {kind: 1, x: i, y: i + 1}; }
  return {kind: 2, x: i, y: i - 1, z: i};
}
function makeMega(i) {
  switch (i % 6) {
  case 0: return {m: i, a0: 0};
  case 1: return {m: i, a1: 0};
  case 2: return {m: i, a2: 0};
  case 3: return {m: i, a3: 0};
  case 4: return {m: i, a4: 0};
  default: return {m: i, a5: 0};
  }
}
function work(n) {
  var p = new Point(0, 0);
  var acc = 0;
  for (var i = 0; i < n; i++) {
    p.x = p.x + 1;
    p.y = p.y + 2;
    var o = makeTagged(i);
    acc = acc + o.kind + o.x - o.y + p.sum();
    var lit = {a: i, b: acc};
    lit.a = lit.a + lit.b;
    acc = acc + lit.a % 7919;
    acc = acc + makeMega(i).m % 13;
    if (acc > 1000000000) { acc = acc % 1000000; }
  }
  return acc;
}
function storm(n) {
  // Transition storm: one object growing a fresh key per iteration, then
  // a delete to force the dictionary fallback, then post-fallback writes.
  var g = {seed: 0};
  for (var i = 0; i < n; i++) { g["k" + (i % 24)] = i; }
  delete g.seed;
  var t = 0;
  for (var j = 0; j < n; j++) { g.k0 = j; t = t + g.k0 + (("seed" in g) ? 1 : 0); }
  return t;
}
print(work(1500) + storm(400));`,
}

var interpBenchOrder = []string{"idents", "calls", "arrays", "strings", "objects"}

// benchMode selects one of the three evaluator paths: compiled thunks,
// the resolved tree walker, and the legacy dynamic map walker.
type benchMode int

const (
	benchCompiled benchMode = iota
	benchResolved
	benchMap
)

func parseBench(b *testing.B, src string, mode benchMode) *ast.Program {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	if mode != benchMap {
		resolve.Program(prog)
	}
	if mode == benchCompiled {
		compile.Program(prog)
	}
	return prog
}

func runBenchProgram(b *testing.B, prog *ast.Program, mode benchMode) {
	b.Helper()
	in := builtins.NewRuntime(interp.Config{Fuel: 50_000_000})
	var err error
	if mode == benchCompiled {
		err = compile.Of(prog).Run(in)
	} else {
		err = in.Run(prog)
	}
	if err != nil {
		b.Fatalf("run: %v", err)
	}
}

// BenchmarkInterp measures the evaluator itself on identifier-, call-,
// array- and string-heavy programs, on all three evaluator paths:
// compiled closure thunks, the resolved tree walker, and the legacy
// dynamic map walker.
func BenchmarkInterp(b *testing.B) {
	modes := []struct {
		name string
		mode benchMode
	}{{"compiled", benchCompiled}, {"resolved", benchResolved}, {"map", benchMap}}
	for _, name := range interpBenchOrder {
		src := interpBenchSrcs[name]
		for _, m := range modes {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				prog := parseBench(b, src, m.mode)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runBenchProgram(b, prog, m.mode)
				}
			})
		}
	}
}

// BenchmarkCompilePass isolates the compile-once pass itself (it runs once
// per parse; campaigns amortise it across every behaviour class and case
// sharing the compiled program).
func BenchmarkCompilePass(b *testing.B) {
	src := interpBenchSrcs["calls"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		resolve.Program(prog)
		compile.Program(prog)
	}
}

// BenchmarkResolvePass isolates the resolve-once pass itself (it runs once
// per parse; campaigns amortise it across every behaviour class and case
// sharing the compiled program).
func BenchmarkResolvePass(b *testing.B) {
	src := interpBenchSrcs["calls"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		resolve.Program(prog)
	}
}
