package engines

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/fuzzers"
	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
)

// poisonSrc wrecks a realm: it declares top-level var, let, const and
// implicit globals and, through eval, lexical bindings in the global
// environment itself, draws from Math.random, touches every global (so every
// lazy section installs), throws to materialise error prototypes, and then
// overwrites, deletes, redefines as an accessor, re-prototypes, seals and
// freezes every property of the global object, of every built-in
// reachable from it, of their prototypes and of the literal prototypes.
const poisonSrc = `
var poisonVar = Math.random() + Math.random();
let poisonLet = 1;
const poisonConst = 2;
poisonImplicit = 3;
eval("let poisonEvalLet = 4; const poisonEvalConst = 5;");
(function (G) {
  var names = Object.getOwnPropertyNames, define = Object.defineProperty;
  var setProto = Object.setPrototypeOf, freeze = Object.freeze, seal = Object.seal, protoOf = Object.getPrototypeOf;
  var touched = 0, failed = 0, report = print;
  var globals = names(G);
  var objs = [G];
  for (var i = 0; i < globals.length; i++) {
    var v = G[globals[i]];
    if (v !== null && (typeof v === "object" || typeof v === "function")) {
      objs.push(v);
      var p = v.prototype;
      if (p !== null && (typeof p === "object" || typeof p === "function")) objs.push(p);
    }
  }
  objs.push(protoOf(function () {}), protoOf([]), protoOf(""), protoOf(1), protoOf(true), protoOf(/x/), protoOf({}));
  try { null.x; } catch (e) { objs.push(protoOf(e)); }
  try { undefinedName; } catch (e) { objs.push(protoOf(e)); }
  var n = objs.length;
  for (var i = n - 1; i >= 0; i--) {
    var o = objs[i], ks = names(o);
    for (var j = 0; j < ks.length; j++) {
      var k = ks[j];
      try { o[k] = "poisoned " + k; } catch (e) { failed++; }
      try { delete o[k]; } catch (e) { failed++; }
      try { define(o, k, {get: function () { return 7; }, configurable: false}); } catch (e) { failed++; }
      touched++;
    }
    try { setProto(o, null); } catch (e) { failed++; }
    try { seal(o); freeze(o); } catch (e) { failed++; }
  }
  report(globals.length, n, touched, failed);
})(this);
`

// TestRealmResetPoisonOracle pins the realm pool's contract: a realm reset
// from the template after any run behaves exactly like a new one. One
// realm runs the poison program before every checked program X; then X
// runs on that realm, reset, and on a realm Template.New built, and the
// two ExecResults must be equal, fuel included. X covers the corpus, the
// poison program itself, every catalog
// witness on its single-defect runner, 1,000 seed-1 COMFORT cases spread
// over all testbeds, and an injected panic followed by a normal run.
func TestRealmResetPoisonOracle(t *testing.T) {
	ref := ReferenceTestbed(false).Prepare()
	poisonOpts := RunOptions{Fuel: 2_000_000, Seed: 3}
	poison, err := ref.Parse(poisonSrc)
	if err != nil {
		t.Fatal(err)
	}
	poisonCfg := realmConfig(ref.baseCfg, poisonOpts)
	// The report line prints how many globals, objects and properties the
	// poison reached, and how many of its writes threw.
	if res := execRealm(builtins.NewRuntime(poisonCfg), poison, poisonOpts); res.Outcome != OutcomePass || len(strings.Fields(res.Output)) != 4 {
		t.Fatalf("poison program no longer runs to completion: %+v", res)
	}
	pooled := builtins.NewRuntime(poisonCfg)
	checked := 0
	check := func(what string, p *PreparedTestbed, src string, opts RunOptions) {
		t.Helper()
		if p.PreParseError(src) != "" {
			return
		}
		prog, err := p.Parse(src)
		if _, static := staticResult(prog, err); static {
			return
		}
		builtins.ResetRuntime(pooled, poisonCfg)
		execRealm(pooled, poison, poisonOpts)
		cfg := realmConfig(p.baseCfg, opts)
		builtins.ResetRuntime(pooled, cfg)
		got := execRealm(pooled, prog, opts)
		want := execRealm(builtins.NewRuntime(cfg), prog, opts)
		if got != want {
			t.Errorf("%s on %s: reset realm diverges from a new one\nreset: %+v\nnew:   %+v\n%s",
				what, p.Testbed.ID(), got, want, src)
		}
		checked++
	}

	opts := RunOptions{Fuel: 200_000, Seed: 42}
	check("poison", ref, poisonSrc, poisonOpts)
	check("globals", ref, `print(typeof poisonVar, typeof poisonImplicit, typeof poisonEvalLet, Math.random());`, opts)
	check("integrity", ref, `var p = Array.prototype; p[0] = 1;
print(Object.isFrozen(Math), Object.isSealed(JSON), Object.isSealed(this), Object.isFrozen(p), p[0]);`, opts)
	for i, src := range corpus.Programs() {
		check("corpus", ref, src, opts)
		check("corpus (strict)", ReferenceTestbed(true).Prepare(), src, opts)
		if i%8 == 0 {
			injected := opts
			injected.InjectPanic = true
			check("injected panic", ref, src, injected)
			check("corpus after a panic", ref, src, opts)
		}
	}
	for _, d := range Catalog() {
		check("witness "+d.ID, NewDefectRunner(d, d.WitnessStrict), d.Witness, opts)
	}
	testbeds := Testbeds()
	f := fuzzers.NewComfort()
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1000; {
		batch := f.Next(rng)
		if len(batch) == 0 {
			t.Fatal("COMFORT stream ended early")
		}
		for _, src := range batch {
			if n == 1000 {
				break
			}
			check("COMFORT case", testbeds[n%len(testbeds)].Prepare(), src, opts)
			n++
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d programs reached the interpreter", checked)
	}
}

// TestRealmPoolRecycles runs through the pooled entry point itself: a
// global and a prototype write of one run are gone in the next.
func TestRealmPoolRecycles(t *testing.T) {
	ref := ReferenceTestbed(false).Prepare()
	for i := 0; i < 3; i++ {
		res := ref.Run(`print(typeof leaked, typeof [].push); leaked = 1; Array.prototype.push = 2;`,
			RunOptions{Fuel: 100_000, Seed: 1})
		if res.Outcome != OutcomePass || res.Output != "undefined function\n" {
			t.Fatalf("run %d saw an earlier run's state: %+v", i, res)
		}
	}
}

// grownSlotsProgram declares n top-level vars named prefix0, prefix1, ...
// after body.
func grownSlotsProgram(prefix string, n int, body string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "var %s%d = %q;\n", prefix, i, prefix)
	}
	return b.String() + body
}

// TestRealmResetGrownSlots pins the slot arrays a pooled realm keeps: a
// reset hands every template object whose slots a run grew its grown
// array back. The poison program declares 70 globals (the global object's
// array outgrows its first headroom), grows Array.prototype and
// String.prototype past their pending tails, and sends String.prototype
// to dictionary mode with a delete. The probe then grows the same objects
// again and prints each one's own property names with the type of every
// value, so a stale value left in a reused array's tail shows in its
// output, which must equal a new clone's. The poison runs before every
// probe, so later rounds reset arrays that earlier rounds reused.
func TestRealmResetGrownSlots(t *testing.T) {
	ref := ReferenceTestbed(false).Prepare()
	opts := RunOptions{Fuel: 2_000_000, Seed: 3}
	parse := func(src string) *ast.Program {
		t.Helper()
		prog, err := ref.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	poison := parse(grownSlotsProgram("g", 70, `
Array.prototype.push = "poisoned";
String.prototype.charAt = "poisoned";
for (var i = 0; i < 20; i++) { Array.prototype["a" + i] = i; String.prototype["s" + i] = i; }
delete String.prototype.s0;
`))
	probe := parse(grownSlotsProgram("h", 70, `
var g3;
Array.prototype.b = 1;
String.prototype.c = 2;
print(typeof g0, typeof "".charAt, typeof [].push, [].a0, "".s1);
function show(o) {
  var ks = Object.getOwnPropertyNames(o), out = [];
  for (var j = 0; j < ks.length; j++) { out.push(ks[j] + ":" + typeof o[ks[j]]); }
  print(out.join());
}
show(this);
show(Array.prototype);
show(String.prototype);
show(Object.prototype);
`))
	cfg := realmConfig(ref.baseCfg, opts)
	want := execRealm(builtins.NewRuntime(cfg), probe, opts)
	if want.Outcome != OutcomePass || !strings.HasPrefix(want.Output, "undefined function function undefined undefined\n") {
		t.Fatalf("probe no longer runs as written: %+v", want)
	}
	pooled := builtins.NewRuntime(cfg)
	for round := 0; round < 3; round++ {
		builtins.ResetRuntime(pooled, cfg)
		if res := execRealm(pooled, poison, opts); res.Outcome != OutcomePass {
			t.Fatalf("round %d: poison program failed: %+v", round, res)
		}
		builtins.ResetRuntime(pooled, cfg)
		if got := execRealm(pooled, probe, opts); got != want {
			t.Fatalf("round %d: reset realm diverges from a new one\nreset: %+v\nnew:   %+v", round, got, want)
		}
	}
}
