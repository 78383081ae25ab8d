package engines

import (
	"fmt"
	"sync"
	"testing"

	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// TestCatalogHooksKeyed: every catalog hook carries a key — a hook site,
// an API name exactly at the named sites — and an Fn the table can call.
func TestCatalogHooksKeyed(t *testing.T) {
	hooks := 0
	for _, d := range Catalog() {
		h := d.Hook
		if h == nil {
			continue
		}
		hooks++
		switch {
		case h.Fn == nil:
			t.Errorf("%s: keyed hook without Fn", d.ID)
		case h.Site < 0 || int(h.Site) >= numSites:
			t.Errorf("%s: hook keyed at unknown site %d", d.ID, h.Site)
		case named(h.Site) && h.Name == "":
			t.Errorf("%s: hook keyed at %s without an API name", d.ID, h.Site)
		case !named(h.Site) && h.Name != "":
			t.Errorf("%s: hook keyed at %s carries the API name %q, which the site does not set", d.ID, h.Site, h.Name)
		}
	}
	if hooks == 0 {
		t.Fatal("no catalog hook")
	}
}

// TestNumSitesCoversHookSites: every interp.HookSite is below numSites,
// the bound of a table's site index. A site added past it would index
// past hookTable.groups and panic inside a run.
func TestNumSitesCoversHookSites(t *testing.T) {
	for s := interp.HookSite(0); int(s) < numSites; s++ {
		if s.String() == "unknown" {
			t.Errorf("hook site %d below numSites has no name", s)
		}
	}
	if s := interp.HookSite(numSites).String(); s != "unknown" {
		t.Errorf("hook site %d (numSites) is %q; raise numSites to cover it", numSites, s)
	}
}

// keySrc reaches every key watchKeys names.
const keySrc = `var s = "abc"; var c = s.charCodeAt(1) + s.charCodeAt(2);
var a = new Array(3); a[5] = 1; a.push(2);
var o = {}; o.x = 1; o.y = 2;
/b/.test(s); s.split(/b/);
function f() { return 1; } for (var i = 0; i < 3; i++) { f(); }
print(c, a.length, o.x, s.length);`

var watchKeys = []Hook{
	{Site: interp.HookBuiltin, Name: "String.prototype.charCodeAt"},
	{Site: interp.HookConstruct, Name: "Array"},
	{Site: interp.HookBuiltin, Name: "Array.prototype.push"},
	{Site: interp.HookRegexExec, Name: "RegExp.prototype.test"},
	{Site: interp.HookRegexExec, Name: "String.prototype.split"},
	{Site: interp.HookBuiltin, Name: "String.prototype.split"}, // same name, other site
	{Site: interp.HookPropSet},
	{Site: interp.HookArrayGrow},
	{Site: interp.HookFuncTier},
}

// atKey reports whether ctx describes a site of key k.
func atKey(ctx *interp.HookCtx, k Hook) bool {
	return ctx.Site == k.Site && (!named(k.Site) || ctx.Name == k.Name)
}

// TestHookTableAsksOnlyAtKey: through combineHooks and through a probe,
// a recording hook is called at exactly the sites of its key — every one
// of them, and no other — as counted by a raw hook that sees every site.
func TestHookTableAsksOnlyAtKey(t *testing.T) {
	asked := make([]int, len(watchKeys))
	var defects []*Defect
	for i, k := range watchKeys {
		defects = append(defects, &Defect{ID: fmt.Sprintf("watch-%d", i), Hook: &Hook{Site: k.Site, Name: k.Name,
			Fn: func(ctx *interp.HookCtx) *interp.Override {
				if !atKey(ctx, k) {
					t.Errorf("hook keyed at %s %q asked at %s %q", k.Site, k.Name, ctx.Site, ctx.Name)
				}
				asked[i]++
				return nil
			}}})
	}
	want := make([]int, len(watchKeys))
	raw := interp.Config{Hook: func(ctx *interp.HookCtx) *interp.Override {
		for i, k := range watchKeys {
			if atKey(ctx, k) {
				want[i]++
			}
		}
		return nil
	}}
	prog, err := parseProgram(keySrc, parser.Options{}).Mode(false)
	if err != nil {
		t.Fatal(err)
	}
	if res := runRealm(raw, prog, probeOpts); res.Outcome != OutcomePass {
		t.Fatalf("program failed: %+v", res)
	}
	for i, n := range want {
		if n == 0 {
			t.Fatalf("program never reaches %s %q; the check is vacuous", watchKeys[i].Site, watchKeys[i].Name)
		}
	}
	check := func(path string) {
		for i := range watchKeys {
			if asked[i] != want[i] {
				t.Errorf("%s: hook keyed at %s %q asked %d times, the key's sites were reached %d times",
					path, watchKeys[i].Site, watchKeys[i].Name, asked[i], want[i])
			}
		}
		clear(asked)
	}
	runRealm(interp.Config{Hook: combineHooks(defects)}, prog, probeOpts)
	check("combineHooks")
	pr := newProbe(interp.Config{}, [][]*Defect{defects})
	pr.ExecParsed(prog, err, probeOpts)
	check("probe") // the hooks never match, so the probe asks them at every site
}

// TestHookKeysConcurrent: tables built concurrently, each with a named
// key no other table holds, while the others dispatch; every hook is
// still asked at exactly its key's sites. Run under -race it also checks
// that the tables share no mutable state.
func TestHookKeysConcurrent(t *testing.T) {
	prog, err := parseProgram(`var s = "abc"; print(s.charCodeAt(0), s.charCodeAt(1));`, parser.Options{}).Mode(false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				asked := 0
				count := func(*interp.HookCtx) *interp.Override { asked++; return nil }
				hooks := []*Defect{
					{ID: "a", Hook: &Hook{Site: interp.HookBuiltin, Name: fmt.Sprintf("unused-%d-%d", g, i), Fn: count}},
					{ID: "b", Hook: &Hook{Site: interp.HookBuiltin, Name: "String.prototype.charCodeAt", Fn: count}},
				}
				runRealm(interp.Config{Hook: combineHooks(hooks)}, prog, probeOpts)
				if asked != 2 {
					t.Errorf("goroutine %d run %d: hooks asked %d times, want 2", g, i, asked)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProbeKeepsShapeLayout pins a consequence of the probe's purity the
// result comparison of TestProbeIsPure cannot see: asking the catalog's
// triggers leaves a shape-layout object in shape layout. At property
// stores and at Object.defineProperty, a pair of watchers brackets the
// catalog hooks keyed there (their IDs sort before and after every
// catalog ID) and records the layout of the object the site hands the
// triggers: the stored-to object, and the descriptor.
func TestProbeKeepsShapeLayout(t *testing.T) {
	const src = `var o = {a: 1}; o.b = 2; o.a = 3;
var d = {value: 1, enumerable: true}; Object.defineProperty({}, "x", d); o.c = d.value;`
	type watcher struct {
		id   string
		key  Hook
		seen []bool // the watched object's layout per site: true = shape
	}
	for _, strict := range []bool{false, true} {
		watchers := []*watcher{
			{id: "!before-store", key: Hook{Site: interp.HookPropSet}},
			{id: "!before-define", key: Hook{Site: interp.HookBuiltin, Name: "Object.defineProperty"}},
			{id: "~after-store", key: Hook{Site: interp.HookPropSet}},
			{id: "~after-define", key: Hook{Site: interp.HookBuiltin, Name: "Object.defineProperty"}},
		}
		hooks := hookDefects(Catalog(), strict)
		for _, w := range watchers {
			hooks = append(hooks, &Defect{ID: w.id, Hook: &Hook{Site: w.key.Site, Name: w.key.Name,
				Fn: func(ctx *interp.HookCtx) *interp.Override {
					o := ctx.Obj
					if ctx.Site == interp.HookBuiltin {
						o = ctx.Args[2].Obj()
					}
					w.seen = append(w.seen, o.ShapeLayout())
					return nil
				}}})
		}
		pr := newProbe(interp.Config{Strict: strict}, [][]*Defect{hooks})
		prog, err := parseProgram(src, parser.Options{}).Mode(strict)
		if res, _ := pr.ExecParsed(prog, err, probeOpts); res.Outcome != OutcomePass {
			t.Fatalf("strict=%v: program failed: %+v", strict, res)
		}
		for i := 0; i < 2; i++ {
			before, after := watchers[i], watchers[i+2]
			shaped := 0
			for j, s := range before.seen {
				if s {
					shaped++
					if !after.seen[j] {
						t.Errorf("strict=%v: a probed trigger at %s %q turned site %d's object into dictionary layout",
							strict, before.key.Site, before.key.Name, j)
					}
				}
			}
			if shaped == 0 {
				t.Errorf("strict=%v: no %s %q site saw a shape-layout object; the check is vacuous", strict, before.key.Site, before.key.Name)
			}
		}
	}
}

// probeLoops are the interp-loops workload's programs at their base loop
// bounds: evaluator-bound loops over arithmetic, calls, dense arrays,
// strings and property traffic.
var probeLoops = []string{
	`function w(n){ var a = 0, b = 1; for (var i = 0; i < n; i++) { var t = a + b; a = b; b = t % 99991; } return a; } print(w(3000));`,
	`function leaf(x){ return x + 1; } function w(n){ var acc = 0; for (var i = 0; i < n; i++) { acc += leaf(i) % 17; } return acc; } print(w(1500));`,
	`function w(n){ var a = []; for (var i = 0; i < n; i++) { a[i] = i; } var s = 0; for (var j = 0; j < n; j++) { s += a[j]; } return s; } print(w(1200));`,
	`function w(n){ var s = ""; for (var i = 0; i < n; i++) { s = s + "ab"; } var acc = 0; for (var j = 0; j < s.length; j = j + 7) { acc = acc + s.charCodeAt(j); } return acc + s.length; } print(w(600));`,
	`function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.sum = function() { return this.x + this.y; };
function tagged(i) { if (i % 2 === 0) { return {kind: 1, x: i, y: i + 1}; } return {kind: 2, x: i, y: i - 1, z: i}; }
function mega(i) {
  switch (i % 6) {
  case 0: return {m: i, a0: 0};
  case 1: return {m: i, a1: 0};
  case 2: return {m: i, a2: 0};
  case 3: return {m: i, a3: 0};
  case 4: return {m: i, a4: 0};
  default: return {m: i, a5: 0};
  }
}
function w(n) {
  var p = new Point(0, 0), acc = 0;
  for (var i = 0; i < n; i++) {
    p.x = p.x + 1; p.y = p.y + 2;
    var o = tagged(i);
    acc = acc + o.kind + o.x - o.y + p.sum() + mega(i).m % 13;
    if (acc > 1000000000) { acc = acc % 1000000; }
  }
  return acc;
}
print(w(800));`,
}

// BenchmarkProbeInterpLoops is one probe run of each interp-loops program
// per op, in normal mode, over the union of every testbed's hooks: the
// probe a campaign over all testbeds runs per case and mode.
func BenchmarkProbeInterpLoops(b *testing.B) {
	var members []*PreparedTestbed
	for _, tb := range Testbeds() {
		if !tb.Strict {
			members = append(members, tb.Prepare())
		}
	}
	pr := NewProbe(members)
	opts := RunOptions{Fuel: 2_000_000, Seed: 1}
	progs := make([]parser.Modes, len(probeLoops))
	for i, src := range probeLoops {
		progs[i] = parseProgram(src, parser.Options{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, m := range progs {
			prog, err := m.Mode(false)
			if res, _ := pr.ExecParsed(prog, err, opts); res.Outcome != OutcomePass {
				b.Fatalf("probe run failed: %+v", res)
			}
		}
	}
}
