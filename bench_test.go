// Benchmarks regenerating every table and figure of the paper's evaluation
// (DESIGN.md §3 maps each to its implementing modules). The harnesses print
// the regenerated rows once per benchmark so `go test -bench=.` doubles as
// the experiment runner; EXPERIMENTS.md records paper-vs-measured.
package comfort

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/lm"
	"comfort/internal/reduce"

	"comfort/internal/corpus"
	"comfort/internal/js/ast"
	"comfort/internal/js/lint"
	"comfort/internal/js/parser"

	"math/rand"
)

// campaignOnce caches the headline campaign so the table benchmarks share
// one discovery run (the paper's tables all come from the same 200h run).
var (
	campaignOnce sync.Once
	campaignRes  *campaign.Result
)

func headlineCampaign() *campaign.Result {
	campaignOnce.Do(func() {
		campaignRes = campaign.Run(campaign.Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    1200,
			Seed:     2021,
		})
	})
	return campaignRes
}

// BenchmarkTable1EngineInventory regenerates the engine-version inventory.
func BenchmarkTable1EngineInventory(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Table1()
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable2BugStatistics regenerates the per-engine bug statistics
// (ground truth exactly matches the paper; the "found" column is measured).
func BenchmarkTable2BugStatistics(b *testing.B) {
	res := headlineCampaign()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Table2(res.FoundDefects())
	}
	b.StopTimer()
	fmt.Println(out)
	fmt.Printf("campaign: %d cases, %d testbed executions, %d found, %d dups filtered\n\n",
		res.CasesRun, res.Executed, len(res.Found), res.DuplicatesFiltered)
}

// BenchmarkTable3BugsPerVersion regenerates the per-version attribution.
func BenchmarkTable3BugsPerVersion(b *testing.B) {
	res := headlineCampaign()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Table3(res.FoundDefects())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable4BugCategories regenerates the discovery-channel breakdown.
func BenchmarkTable4BugCategories(b *testing.B) {
	res := headlineCampaign()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Table4(res.FoundDefects())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable5TopBuggyAPIs regenerates the API-type distribution.
func BenchmarkTable5TopBuggyAPIs(b *testing.B) {
	res := headlineCampaign()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Table5(res.FoundDefects())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure7ComponentBugs regenerates the per-component counts.
func BenchmarkFigure7ComponentBugs(b *testing.B) {
	res := headlineCampaign()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = campaign.Figure7(res.FoundDefects())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure8FuzzerComparison runs the six-fuzzer comparison with an
// equal test-case budget (the scaled 72-hour experiment).
func BenchmarkFigure8FuzzerComparison(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out, _ = campaign.Figure8(400, 2021)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure9QualityMetrics measures syntax passing rate plus
// statement/function/branch coverage per fuzzer.
func BenchmarkFigure9QualityMetrics(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out, _ = campaign.Figure9(150, 2021)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationLMOrder contrasts syntactic validity across context
// lengths (the §5.3.3 DeepSmith comparison as an ablation).
func BenchmarkAblationLMOrder(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var lines string
		for _, arch := range []lm.Arch{lm.ArchGPT2, lm.ArchLSTM} {
			g := lm.Train(corpus.Programs(), corpus.Headers(), lm.Config{Arch: arch})
			rng := rand.New(rand.NewSource(2021))
			valid := 0
			const n = 200
			for j := 0; j < n; j++ {
				if lint.Valid(g.Generate(rng)) {
					valid++
				}
			}
			lines += fmt.Sprintf("  %-6s validity: %d/%d (%.1f%%)\n", arch, valid, n,
				100*float64(valid)/n)
		}
		out = "Ablation: LM context order vs syntactic validity\n" + lines
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationSpecGuidance contrasts defect discovery with and without
// the ECMA-262-guided data channel (DESIGN.md §4).
func BenchmarkAblationSpecGuidance(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		withSpec := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewComfort(), Cases: 250, Seed: 7,
			Testbeds: engines.Testbeds(),
		})
		withoutSpec := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewDeepSmith(), Cases: 250, Seed: 7,
			Testbeds: engines.Testbeds(),
		})
		out = fmt.Sprintf(
			"Ablation: spec guidance — COMFORT found %d defects, generation-only found %d (250 cases each)\n",
			len(withSpec.Found), len(withoutSpec.Found))
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationDedup measures the Figure-6 tree's filtering effect.
func BenchmarkAblationDedup(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		on := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewComfort(), Cases: 200, Seed: 5,
			Testbeds: engines.Testbeds(),
		})
		off := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewComfort(), Cases: 200, Seed: 5,
			Testbeds: engines.Testbeds(), DisableDedup: true,
		})
		out = fmt.Sprintf(
			"Ablation: dedup tree — filtered %d duplicate reports (found %d); without the tree: %d attribution runs for the same %d findings\n",
			on.DuplicatesFiltered, len(on.Found), off.UnattributedFindings+len(off.Found)+off.DuplicatesFiltered, len(off.Found))
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationReduction measures witness shrinkage from the Section
// 3.5 reducer over the catalog's own witnesses.
func BenchmarkAblationReduction(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res := campaign.Run(campaign.Config{
			Fuzzer: fuzzers.NewComfort(), Cases: 150, Seed: 11,
			Testbeds:        engines.Testbeds(),
			ReduceWitnesses: true,
		})
		var before, after int
		for _, f := range res.Found {
			before += len(f.TestCase)
			after += len(f.Reduced)
		}
		if before == 0 {
			before = 1
		}
		out = fmt.Sprintf(
			"Ablation: reduction — %d findings, witness bytes %d → %d (%.0f%% of original)\n",
			len(res.Found), before, after, 100*float64(after)/float64(before))
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkCampaignThroughput measures testbed executions per second on a
// full-testbed campaign — the scheduler's headline metric (EXPERIMENTS.md
// records the seed-path baseline against the prepared-testbed + parse-cache
// + behaviour-class pipeline, and now the resolve-once interpreter).
func BenchmarkCampaignThroughput(b *testing.B) {
	var executed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The campaign shape lives in campaign.ThroughputProbe, shared
		// with cmd/benchgate (the CI regression gate on this metric).
		executed += int64(campaign.ThroughputProbe(120, 8, 2021))
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "execs/sec")
}

// BenchmarkCampaignThroughputCheckpointed is the headline shape with the
// full robustness stack armed: periodic checkpoint writes at an aggressive
// 30-case cadence (8× the default density, so a 120-case run pays for four
// mid-run snapshots plus the final flush), the per-case wall-clock watchdog
// on the real clock, and panic guards (always on). The delta against
// BenchmarkCampaignThroughput is the price of crash-safety; EXPERIMENTS.md
// records it (<3% claimed).
func BenchmarkCampaignThroughputCheckpointed(b *testing.B) {
	dir := b.TempDir()
	var executed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := campaign.Run(campaign.Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        engines.Testbeds(),
			Cases:           120,
			Seed:            2021,
			Workers:         8,
			Checkpoint:      filepath.Join(dir, "bench.ckpt"),
			CheckpointEvery: 30,
			CaseDeadline:    10 * time.Second,
			Clock:           time.Now,
		})
		executed += int64(res.Executed)
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "execs/sec")
}

// loopFuzzer emits a fixed set of interpreter-bound programs (deep loops,
// calls, element traffic) so the campaign benchmark variant below measures
// the evaluator, not generation or parse.
type loopFuzzer struct{ i int }

func (f *loopFuzzer) Name() string { return "loop-bench" }

func (f *loopFuzzer) Next(_ *rand.Rand) []string {
	progs := []string{
		`function w(n){ var a = 0, b = 1; for (var i = 0; i < n; i++) { var t = a + b; a = b; b = t % 99991; } return a; } print(w(3000));`,
		`function leaf(x){ return x + 1; } function w(n){ var acc = 0; for (var i = 0; i < n; i++) { acc += leaf(i) % 17; } return acc; } print(w(1500));`,
		`function w(n){ var a = []; for (var i = 0; i < n; i++) { a[i] = i; } var s = 0; for (var j = 0; j < n; j++) { s += a[j]; } return s; } print(w(1200));`,
	}
	f.i++
	return []string{progs[f.i%len(progs)]}
}

// BenchmarkCampaignThroughputInterpBound drives the full campaign pipeline
// with interpreter-bound cases: per-case cost is dominated by evaluation,
// so this is where the evaluator shows up at campaign level
// (BenchmarkInterp contrasts the evaluator paths themselves).
func BenchmarkCampaignThroughputInterpBound(b *testing.B) {
	var executed int64
	for i := 0; i < b.N; i++ {
		res := campaign.Run(campaign.Config{
			Fuzzer:   &loopFuzzer{},
			Testbeds: engines.Testbeds(),
			Cases:    30,
			Seed:     2021,
			Workers:  8,
			Fuel:     2_000_000,
		})
		executed += int64(res.Executed)
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "execs/sec")
}

// BenchmarkReduce measures Section-3.5 witness reduction: the seed's
// greedy reparse-per-candidate reducer (preserved below as the baseline)
// against the hierarchical ddmin subsystem at one and eight workers. The
// witness embeds the Listing-1 V8 defineProperty defect in a
// multi-statement program; every path reduces it to the same divergence.
// EXPERIMENTS.md records the measured speedups.
func BenchmarkReduce(b *testing.B) {
	v8 := engines.All()[0].Latest()
	p := engines.Testbed{Version: v8}.Prepare()
	ref := engines.ReferenceTestbed(false).Prepare()
	opts := engines.RunOptions{Fuel: 300000, Seed: 1}
	pred := engines.Diverges(p, ref, opts)
	if !pred(reduceBenchWitness) {
		b.Fatal("bench witness does not diverge on the V8 testbed")
	}
	// The seed predicate resolved the testbed per candidate (Testbed.Run +
	// Reference); the baseline keeps that exact path.
	seedPred := func(src string) bool {
		tb := engines.Testbed{Version: v8}
		return tb.Run(src, opts).Key() != engines.Reference(src, false, opts).Key()
	}
	var outs [3]string
	b.Run("baseline-greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs[0] = greedyReduceBaseline(reduceBenchWitness, seedPred)
		}
	})
	b.Run("ddmin-workers1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs[1] = reduce.Parallel(reduceBenchWitness, pred, reduce.Options{Workers: 1})
		}
	})
	b.Run("ddmin-workers8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs[2] = reduce.Parallel(reduceBenchWitness, pred, reduce.Options{Workers: 8})
		}
	})
	if outs[1] != "" && outs[2] != "" && outs[1] != outs[2] {
		b.Fatalf("ddmin output differs across worker counts:\n%s\nvs\n%s", outs[1], outs[2])
	}
	for i, out := range outs {
		if out != "" && !pred(out) {
			b.Fatalf("reducer %d lost the divergence:\n%s", i, out)
		}
	}
}

// reduceBenchWitness embeds the Listing-1 V8 bug in 40+ statements of
// unrelated code — the shape a fuzzer-found witness actually has.
const reduceBenchWitness = `var unrelated = [1, 2, 3].map(function(x) { return x * 2; });
var alsoUnrelated = "hello".toUpperCase();
var t0 = Math.max(1, 2, 3);
var t1 = [4, 5, 6].join("-");
var t2 = {a: 1, b: 2};
var t3 = t2.a + t2.b;
var u0 = "abcdef".indexOf("c");
var u1 = [7, 8, 9].reverse();
var u2 = Math.min(4, 5);
var u3 = parseInt("101", 2);
var u4 = "x,y,z".split(",");
var u5 = u4.length + u1.length;
var u6 = {k: "v", n: 3};
var u7 = u6.n * u2;
var u8 = [t0, u0, u3];
var u9 = u8.join("|");
var w0 = "pad".charAt(1);
var w1 = Math.abs(-9);
var w2 = [1, 1, 2, 3, 5, 8];
var w3 = w2.slice(2, 4);
var w4 = w3.concat([13]);
var w5 = "" + w1 + w0;
print(u5 + u7);
print(u9);
print(w4.join("+") + w5);
function helper(n) {
  return n + 1;
}
function unusedHelper(m) {
  var acc = 0;
  for (var j = 0; j < m; j++) {
    acc += j;
  }
  return acc;
}
var foo = function() {
  var counter = 0;
  for (var i = 0; i < 3; i++) {
    counter += helper(i);
  }
  var arrobj = [0, 1];
  Object.defineProperty(arrobj, "length", {value: 1, configurable: true});
  print("no throw");
  return counter;
};
foo();
print(unrelated.join(","));
print(unusedHelper(4));
print(t0 + t1 + t3);
if (t0 > 1) {
  print("big");
} else {
  print("small");
}`

// greedyReduceBaseline is the seed repo's reducer, verbatim: reparse the
// whole source for every candidate, restart a full scan after each
// accepted removal, strictly sequential. Kept as the benchmark baseline.
func greedyReduceBaseline(src string, pred func(string) bool) string {
	if !pred(src) {
		return src
	}
	current := src
	for {
		next, improved := greedyPass(current, pred)
		if !improved {
			return current
		}
		current = next
	}
}

func greedyPass(current string, pred func(string) bool) (string, bool) {
	prog, err := parser.Parse(current)
	if err != nil {
		return current, false
	}
	total := 0
	for _, l := range greedyStmtLists(prog) {
		total += len(*l)
	}
	for idx := total - 1; idx >= 0; idx-- {
		candidate, ok := greedyRemoveNth(current, idx)
		if !ok || candidate == current {
			continue
		}
		if pred(candidate) {
			return candidate, true
		}
	}
	for idx := 0; idx < total; idx++ {
		candidate, ok := greedySimplifyNth(current, idx)
		if !ok || candidate == current {
			continue
		}
		if pred(candidate) {
			return candidate, true
		}
	}
	return current, false
}

func greedyStmtLists(prog *ast.Program) []*[]ast.Stmt {
	lists := []*[]ast.Stmt{&prog.Body}
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			lists = append(lists, &v.Body)
		case *ast.SwitchCase:
			lists = append(lists, &v.Body)
		}
		return true
	})
	return lists
}

func greedyRemoveNth(src string, idx int) (string, bool) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", false
	}
	n := idx
	for _, l := range greedyStmtLists(prog) {
		if n < len(*l) {
			*l = append(append([]ast.Stmt(nil), (*l)[:n]...), (*l)[n+1:]...)
			out := ast.Print(prog)
			if _, err := parser.Parse(out); err != nil {
				return "", false
			}
			return out, true
		}
		n -= len(*l)
	}
	return "", false
}

func greedySimplifyNth(src string, idx int) (string, bool) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", false
	}
	n := idx
	for _, l := range greedyStmtLists(prog) {
		if n < len(*l) {
			s := (*l)[n]
			var repl ast.Stmt
			switch v := s.(type) {
			case *ast.IfStmt:
				repl = v.Then
			case *ast.WhileStmt:
				repl = v.Body
			case *ast.ForStmt:
				repl = v.Body
			case *ast.TryStmt:
				repl = v.Block
			case *ast.LabeledStmt:
				repl = v.Body
			default:
				return "", false
			}
			if repl == nil {
				return "", false
			}
			(*l)[n] = repl
			out := ast.Print(prog)
			if _, err := parser.Parse(out); err != nil {
				return "", false
			}
			return out, true
		}
		n -= len(*l)
	}
	return "", false
}

// --- micro-benchmarks of the substrate ---

func BenchmarkInterpreterPipeline(b *testing.B) {
	src := corpus.Programs()[0]
	for i := 0; i < b.N; i++ {
		engines.Reference(src, false, engines.RunOptions{Fuel: 100000, Seed: 1})
	}
}

// BenchmarkGeneration measures whole-program generation per LM-backed
// fuzzer configuration — COMFORT's long-context generator, DeepSmith's
// short-context model, and Montage's expression sampler — on the frozen
// token-ID sampler. tokens/sec counts sampled LM tokens (BenchmarkLM
// contrasts the frozen and map samplers themselves). EXPERIMENTS.md
// records the measurements.
func BenchmarkGeneration(b *testing.B) {
	type fz struct {
		name   string
		arch   lm.Arch
		header string // "" = random corpus header, the fuzzer's own priming
	}
	fuzzersLM := []fz{
		{"COMFORT", lm.ArchGPT2, ""},
		{"DeepSmith", lm.ArchLSTM, ""},
		{"Montage", lm.ArchLSTM, "var x = "},
	}
	for _, f := range fuzzersLM {
		b.Run(f.name, func(b *testing.B) {
			headers := corpus.Headers()
			g := lm.Train(corpus.Programs(), headers, lm.Config{Arch: f.arch})
			rng := rand.New(rand.NewSource(1))
			tokens := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				header := f.header
				if header == "" {
					header = headers[rng.Intn(len(headers))]
				}
				_, n := g.GenerateFromN(header, rng)
				tokens += n
			}
			b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tokens/sec")
		})
	}
}

func BenchmarkDifferentialCase(b *testing.B) {
	tbs := engines.LatestTestbeds()
	src := corpus.Programs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffTest(src, tbs, 100000, 1)
	}
}
