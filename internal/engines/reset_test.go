package engines

import (
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/fuzzers"
	"comfort/internal/js/builtins"
)

// poisonSrc wrecks a realm: it declares top-level var, let, const and
// implicit globals and, through eval, lexical bindings in the global
// environment itself, draws from Math.random, touches every global (so every
// lazy section installs), throws to materialise error prototypes, and then
// overwrites, deletes, redefines as an accessor, re-prototypes and freezes
// every property of the global object, of every built-in reachable from
// it, of their prototypes and of the literal prototypes.
const poisonSrc = `
var poisonVar = Math.random() + Math.random();
let poisonLet = 1;
const poisonConst = 2;
poisonImplicit = 3;
eval("let poisonEvalLet = 4; const poisonEvalConst = 5;");
(function (G) {
  var names = Object.getOwnPropertyNames, define = Object.defineProperty;
  var setProto = Object.setPrototypeOf, freeze = Object.freeze, protoOf = Object.getPrototypeOf;
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
    try { freeze(o); } catch (e) { failed++; }
  }
  report(globals.length, n, touched, failed);
})(this);
`

// TestRealmResetPoisonOracle pins the realm pool's contract: a realm reset
// from the template after any run behaves exactly like a new one. One
// realm runs the poison program before every checked program X; then X
// runs on that realm, reset, and on a realm Template.New built, and the
// two ExecResults must be equal, fuel and inline-cache counters included.
// X covers the corpus, the poison program itself (its inline-cache sites
// meet the poison run's entries at the same indices), every catalog
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
