package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
	"comfort/internal/js/analyze"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// referencePath is one second implementation the default pipeline
// (resolve → compile → analyze, shape-mode objects) is checked against. A
// path is picked by the passes its program skips — no resolve pass runs
// on map scopes, no compile pass tree-walks end to end, no analyze pass
// recomputes the early-error report per execution — plus the one switch
// no pass selects: dictionary-mode objects.
type referencePath struct {
	name                      string
	resolve, compile, analyze bool
	dict                      bool
}

var (
	defaultPath = referencePath{name: "default", resolve: true, compile: true, analyze: true}
	mapScopes   = referencePath{name: "map scopes", analyze: true}
	treeWalker  = referencePath{name: "tree walker", resolve: true, analyze: true}
	dictObjs    = referencePath{name: "dictionary objects", resolve: true, compile: true, analyze: true, dict: true}
	dictTree    = referencePath{name: "dictionary objects on the tree walker", resolve: true, analyze: true, dict: true}
	recomputed  = referencePath{name: "recomputed report", resolve: true, compile: true}
)

// runPath executes src on p along path: the default pipeline's pre-parse
// gate and ExecParsed, over a program that went through only the path's
// passes. The early-error verdict comes from the resolver, so a path
// without the resolve pass takes its report from a resolved twin parse.
func runPath(p *engines.PreparedTestbed, src string, path referencePath, opts engines.RunOptions) engines.ExecResult {
	if msg := p.PreParseError(src); msg != "" {
		return engines.PreParseResult(msg)
	}
	prog, err := parser.ParseWith(src, p.ParseOptions())
	if err == nil {
		if path.resolve {
			resolve.Program(prog)
		}
		if path.compile {
			compile.Program(prog)
		}
		if path.analyze && path.resolve {
			analyze.Program(prog)
		} else if path.analyze {
			twin, _ := parser.ParseWith(src, p.ParseOptions())
			resolve.Program(twin)
			prog.Analysis = analyze.Program(twin)
		}
	}
	if path.dict {
		opts = engines.DictionaryObjects(opts)
	}
	return p.ExecParsed(prog, err, opts)
}

// oracleTestbeds picks a behaviour-diverse testbed subset: the defect-free
// reference in both modes plus the oldest (defect-richest) and newest
// version of every engine family, both modes each.
func oracleTestbeds() []*engines.PreparedTestbed {
	tbs := []engines.Testbed{
		engines.ReferenceTestbed(false),
		engines.ReferenceTestbed(true),
	}
	for _, e := range engines.All() {
		for _, v := range []engines.Version{e.Versions[0], e.Latest()} {
			tbs = append(tbs, engines.Testbed{Version: v, Strict: false})
			tbs = append(tbs, engines.Testbed{Version: v, Strict: true})
		}
	}
	prepared := make([]*engines.PreparedTestbed, len(tbs))
	for i, tb := range tbs {
		prepared[i] = tb.Prepare()
	}
	return prepared
}

// firstCases draws the first n cases f generates from one RNG seeded
// with seed.
func firstCases(f fuzzers.Fuzzer, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var cases []string
	for len(cases) < n {
		batch := f.Next(rng)
		if len(batch) == 0 {
			break
		}
		cases = append(cases, batch...)
	}
	if len(cases) > n {
		cases = cases[:n]
	}
	return cases
}

// earlyErrorSamples drive the static early-error gate explicitly: fuzzer
// corpora are mostly statically valid. (Bare break/continue/return
// placement is the parser's job — these are the rules only the analyzer
// sees.)
var earlyErrorSamples = []string{
	"let a = 1; let a = 2; print(a);",
	"const c = 1; c = 2; print(c);",
	"x: { continue x; }",
	"x: x: while (true) { break; }",
	"try { print(1); } catch (e) { let e = 1; }",
	"for (let i = 0, i = 1; false; ) { }",
	"x: while (true) { break y; }",
	"function f(p) { let p = 1; } f(0);",
}

// forOracleCases calls fn on every program the per-execution path
// oracles check: the first 25 cases each fuzzer generates from a fixed
// seed, then the early-error samples.
func forOracleCases(fn func(name string, ci int, src string)) {
	for fi, f := range fuzzers.All() {
		for ci, src := range firstCases(f, int64(100+fi), 25) {
			fn(f.Name(), ci, src)
		}
	}
	for ci, src := range earlyErrorSamples {
		fn("early-error-samples", ci, src)
	}
}

// checkReferencePaths is the per-execution differential oracle shared by
// the path tests: each program the six fuzzers generate from fixed seeds,
// plus the early-error samples, must produce byte-identical ExecResults —
// output, outcome, error rendering, fuel and the early-error marker — on
// the default pipeline and on every given reference path, across
// defect-laden and reference testbeds in both modes. Programs the
// analyzer statically rejects must additionally be rejected identically
// by every testbed — the soundness condition that lets the scheduler
// classify an early-error case from the reference testbed alone. It
// returns the number of programs the analyzer rejected.
func checkReferencePaths(t *testing.T, paths ...referencePath) (earlyErrorProgs int) {
	t.Helper()
	prepared := oracleTestbeds()
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	checkOne := func(name string, ci int, src string) {
		var rejected, accepted int
		for _, p := range prepared {
			if msg := p.PreParseError(src); msg != "" {
				continue // identical gate on every path
			}
			prog, perr := p.Parse(src)
			want := p.ExecParsed(prog, perr, opts)
			for _, path := range paths {
				got := runPath(p, src, path, opts)
				if got != want {
					t.Fatalf("%s case %d on %s: %s diverges from the default path\ndefault: %+v\n%s: %+v\nprogram:\n%s",
						name, ci, p.Testbed.ID(), path.name, want, path.name, got, src)
				}
			}
			if perr != nil {
				continue
			}
			if rep := analyze.Of(prog); rep.Invalid() {
				if !want.EarlyError {
					t.Fatalf("%s case %d on %s: analyzer reports %q but the testbed ran the program\nprogram:\n%s",
						name, ci, p.Testbed.ID(), rep.FirstError().Render(), src)
				}
				rejected++
			} else {
				accepted++
			}
		}
		if rejected > 0 && accepted > 0 {
			t.Fatalf("%s case %d: early-error verdict differs across testbeds (%d reject, %d run)\nprogram:\n%s",
				name, ci, rejected, accepted, src)
		}
		if rejected > 0 {
			earlyErrorProgs++
		}
	}
	forOracleCases(checkOne)
	return earlyErrorProgs
}

// checkShapeTransitions is the shapes oracles' vacuity guard: comparing
// the default path with dictionary objects shows something only if the
// default path runs its programs on the hidden-class layout. A synthetic
// defect whose hook never intervenes is keyed at the property-store site:
// it watches every property store srcs reach on a single-defect testbed
// and counts them by the layout of the realm they run on, plus the stores
// that add a key on a shape-layout realm (each one a shape transition).
// The default path must reach shape layout only, with at least one
// transition; the dictionary path must reach dictionary layout only. The
// guard reads no production counter.
func checkShapeTransitions(t *testing.T, srcs []string) {
	t.Helper()
	var shapeSites, dictSites, transitions int
	watch := &engines.Defect{ID: "layout-watch", Hook: &engines.Hook{Site: interp.HookPropSet, Fn: func(ctx *interp.HookCtx) *interp.Override {
		if ctx.In.DisableShapes {
			dictSites++
			return nil
		}
		shapeSites++
		if !ctx.Obj.HasOwn(ctx.Key.Str()) {
			transitions++
		}
		return nil
	}}}
	p := engines.NewDefectRunner(watch, false)
	opts := engines.RunOptions{Fuel: difftest.DefaultFuel, Seed: 9}
	for _, path := range []referencePath{defaultPath, dictObjs} {
		shapeSites, dictSites, transitions = 0, 0, 0
		for _, src := range srcs {
			runPath(p, src, path, opts)
		}
		t.Logf("%s path: %d property stores on shape layout (%d transitions), %d on dictionary layout",
			path.name, shapeSites, transitions, dictSites)
		if path.dict && (dictSites == 0 || shapeSites != 0) {
			t.Fatalf("%s path made %d property stores on shape layout; it must run dictionary objects only", path.name, shapeSites)
		}
		if !path.dict && (transitions == 0 || dictSites != 0) {
			t.Fatalf("%s path made %d shape transitions and %d property stores on dictionary layout; the shape comparison is vacuous",
				path.name, transitions, dictSites)
		}
	}
}

// TestEvaluatorOracle is the differential oracle for the resolve-once
// interpreter: slot-indexed scopes against map scopes (no resolve pass).
func TestEvaluatorOracle(t *testing.T) {
	checkReferencePaths(t, mapScopes)
}

// TestCompiledOracle is the differential oracle for the compile-once thunk
// evaluator: compiled closure thunks against the resolved tree walker (no
// compile pass).
func TestCompiledOracle(t *testing.T) {
	checkReferencePaths(t, treeWalker)
}

// TestShapesOracle is the differential oracle for the hidden-class object
// layout: shape-mode objects against dictionary objects, on the compiled
// path and on the tree walker. The default path must actually run the
// programs through shape transitions, or the comparison is vacuous.
func TestShapesOracle(t *testing.T) {
	checkReferencePaths(t, dictObjs, dictTree)
	var srcs []string
	forOracleCases(func(_ string, _ int, src string) { srcs = append(srcs, src) })
	checkShapeTransitions(t, srcs)
}

// TestAnalyzeOracle is the differential oracle for the cached static
// analysis: the report the analyze pass attaches once against the report
// recomputed per execution (no analyze pass), plus the cross-testbed
// soundness of every early-error verdict.
func TestAnalyzeOracle(t *testing.T) {
	if n := checkReferencePaths(t, recomputed); n < 8 {
		t.Fatalf("early-error gate exercised on only %d programs; the oracle lost its teeth", n)
	}
}

// schedulerSeed seeds the grid-level oracles' cases and runs.
const schedulerSeed = 2021

// schedulerCases returns the 150 COMFORT cases the grid-level oracles run.
func schedulerCases() []string {
	return firstCases(fuzzers.NewComfort(), schedulerSeed, 150)
}

// checkSchedulerPath is the grid-level twin of checkReferencePaths: a
// 4-worker scheduler runs 150 COMFORT cases over every testbed on the
// default path, sharing compiled programs, shapes and analysis reports
// across concurrent workers, and each behaviour class's delivered result
// must equal a direct run of the case on path. It returns the scheduler
// for its execution counters.
func checkSchedulerPath(t *testing.T, path referencePath) *exec.Scheduler {
	t.Helper()
	srcs := schedulerCases()
	sched := exec.New(exec.Config{
		Testbeds: engines.Testbeds(),
		Workers:  4,
		Fuel:     difftest.DefaultFuel,
		Seed:     schedulerSeed,
	})
	opts := engines.RunOptions{Fuel: difftest.DefaultFuel, Seed: schedulerSeed}
	ctx := context.Background()
	delivered := 0
	for oc := range sched.Run(ctx, exec.FromSlice(ctx, srcs)) {
		delivered++
		checked := map[string]bool{}
		for _, e := range oc.Entries() {
			p := e.Testbed.Prepare()
			if checked[p.BehaviorKey()] {
				continue
			}
			checked[p.BehaviorKey()] = true
			if got := runPath(p, oc.Src, path, opts); got != e.Result {
				t.Fatalf("case %d on %s: %s diverges from the scheduler's result\nscheduler: %+v\n%s: %+v\nprogram:\n%s",
					oc.Index, e.Testbed.ID(), path.name, e.Result, path.name, got, oc.Src)
			}
		}
	}
	if delivered != len(srcs) {
		t.Fatalf("scheduler delivered %d of %d cases", delivered, len(srcs))
	}
	return sched
}

// TestCampaignResolveOracle compares every result a concurrent campaign
// grid delivers with the map-scope path.
func TestCampaignResolveOracle(t *testing.T) {
	checkSchedulerPath(t, mapScopes)
}

// TestCampaignCompileOracle compares every result a concurrent campaign
// grid delivers with the tree walker, and pins full compiled-path
// coverage on the default path (the Fallback counter stays at zero).
func TestCampaignCompileOracle(t *testing.T) {
	sched := checkSchedulerPath(t, treeWalker)
	if st := sched.Stats(); st.Compiled == 0 || st.Fallback != 0 {
		t.Errorf("default path should run fully compiled: compiled=%d fallback=%d", st.Compiled, st.Fallback)
	}
}

// TestCampaignShapesOracle compares every result a concurrent campaign
// grid delivers with dictionary objects, and pins that the default path
// runs the grid's cases through shape transitions.
func TestCampaignShapesOracle(t *testing.T) {
	checkSchedulerPath(t, dictObjs)
	checkShapeTransitions(t, schedulerCases())
}

// TestCampaignWorkerIndependenceResolved pins worker-count independence
// with resolution enabled (the default path): findings and tallies must not
// depend on scheduling.
func TestCampaignWorkerIndependenceResolved(t *testing.T) {
	run := func(workers int) *Result {
		return Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    120,
			Seed:     77,
			Workers:  workers,
		})
	}
	a, b := run(1), run(8)
	if got, want := findingsKey(a), findingsKey(b); got != want {
		t.Errorf("findings depend on worker count:\n1 worker: %s\n8 workers: %s", got, want)
	}
	if a.CasesRun != b.CasesRun || a.Executed != b.Executed {
		t.Errorf("case accounting depends on worker count: (%d,%d) vs (%d,%d)",
			a.CasesRun, a.Executed, b.CasesRun, b.Executed)
	}
}

// findingsKey renders a campaign's findings deterministically for
// comparison.
func findingsKey(r *Result) string {
	ids := make([]string, 0, len(r.Found))
	for id := range r.Found {
		ids = append(ids, id)
	}
	sortStrings(ids)
	out := ""
	for _, id := range ids {
		f := r.Found[id]
		out += fmt.Sprintf("%s[%s|%s|%d];", id, f.Engine, f.Verdict, len(f.TestCase))
	}
	if out == "" {
		out = "(none)"
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestResolveIdempotent guards the compiled-program cache's sharing
// assumption: resolving twice must be a no-op.
func TestResolveIdempotent(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	prog, err := p.Parse("function f(a){var b=a+1; return b;} print(f(2));")
	if err != nil {
		t.Fatal(err)
	}
	if !prog.ResolvedScopes {
		t.Fatal("PreparedTestbed.Parse did not resolve the program")
	}
	resolve.Program(prog) // second resolution must not disturb annotations
	res := p.Exec(prog, engines.RunOptions{Fuel: 10000, Seed: 1})
	if res.Output != "3\n" {
		t.Fatalf("unexpected output %q", res.Output)
	}
}
