// Package comfort is a from-scratch Go reproduction of COMFORT (Ye et al.,
// PLDI 2021): a deep-learning-based compiler fuzzer that detects ECMA-262
// conformance bugs in JavaScript engines by generating test programs with a
// language model, deriving test data from the structured specification, and
// differentially testing many engine versions.
//
// The package is a thin façade over the implementation:
//
//   - internal/js/...    — a complete ECMAScript interpreter (the engine
//     substrate: lexer, parser, evaluator, stdlib, regex engine, lint,
//     coverage)
//   - internal/engines   — ten engine families × 52 versions with a
//     catalog of 158 seeded conformance defects reproducing the paper's
//     Tables 2–5 and Figure 7
//   - internal/spec      — the ECMA-262 document parser and Figure-4
//     boundary-condition database
//   - internal/lm        — BPE + long-context language model (the GPT-2
//     substitute) and the short-context baseline
//   - internal/fuzzers   — COMFORT plus the five baseline fuzzers
//   - internal/exec      — the execution scheduler: prepared testbeds,
//     probe groups (one probe run stands in for every behaviour class
//     whose defect hooks never matched), a parse-once cache, a streaming
//     (case × testbed) worker pool for campaigns and the one-shot Execute
//     behind DiffTest
//   - internal/difftest  — the pure Figure-5 classifier
//   - internal/reduce    — hierarchical ddmin test-case reduction with
//     speculative parallel predicate evaluation (Section 3.5)
//   - internal/campaign  — differential-testing campaigns (a fuzzer →
//     scheduler → classify → dedup/attribute → reduce pipeline) and the
//     table/figure generators
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package comfort

import (
	"math/rand"

	"comfort/internal/campaign"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
	"comfort/internal/reduce"
	"comfort/internal/spec"
	"comfort/internal/testgen"
)

// Re-exported core types.
type (
	// Engine is one JS engine family under test.
	Engine = engines.Engine
	// Version is one engine build (a Table-1 row).
	Version = engines.Version
	// Testbed is an engine version in normal or strict mode.
	Testbed = engines.Testbed
	// PreparedTestbed is a testbed with its defect set, hook chain and
	// option deltas resolved once (the per-execution fast path).
	PreparedTestbed = engines.PreparedTestbed
	// Defect is a seeded conformance bug with its triage ground truth.
	Defect = engines.Defect
	// ExecResult is the observable behaviour of one testbed run.
	ExecResult = engines.ExecResult
	// RunOptions carries the per-execution fuel budget and seed.
	RunOptions = engines.RunOptions
	// CaseResult is a differential-testing outcome (Figure 5).
	CaseResult = difftest.CaseResult
	// ExecEntry pairs one testbed with its observed behaviour on a case.
	ExecEntry = difftest.ExecEntry
	// Fuzzer generates test cases (COMFORT or a baseline).
	Fuzzer = fuzzers.Fuzzer
	// CampaignConfig parameterises a fuzzing campaign.
	CampaignConfig = campaign.Config
	// CampaignResult summarises a campaign's findings.
	CampaignResult = campaign.Result
	// SpecDB is the Figure-4 boundary-condition database.
	SpecDB = spec.DB
)

// Engines returns the ten engine families with their tested versions.
func Engines() []*Engine { return engines.All() }

// Testbeds returns all engine-version × mode testbeds.
func Testbeds() []Testbed { return engines.Testbeds() }

// Catalog returns the 158 seeded conformance defects (the ground truth
// behind every reproduced table).
func Catalog() []*Defect { return engines.Catalog() }

// RunTestbed executes src on one testbed.
func RunTestbed(tb Testbed, src string, fuel, seed int64) ExecResult {
	return tb.Run(src, engines.RunOptions{Fuel: fuel, Seed: seed})
}

// PrepareTestbed resolves a testbed's constant state (active defects, hook
// chain, parser options) once; the result is memoised per version×mode and
// its Run avoids the per-execution catalog scan.
func PrepareTestbed(tb Testbed) *PreparedTestbed { return tb.Prepare() }

// ExecuteCase runs src on every testbed through the campaign scheduler's
// fan-out and returns the raw per-testbed entries in testbed order (parse
// and probe-group sharing applied). No testbeds means no entries.
func ExecuteCase(src string, testbeds []Testbed, fuel, seed int64) []ExecEntry {
	if len(testbeds) == 0 {
		return []ExecEntry{}
	}
	return exec.New(exec.Config{Testbeds: testbeds, Fuel: fuel, Seed: seed}).Execute(src).Entries()
}

// ClassifyCase applies the pure Figure-5 classification to a set of
// executions (no testbed runs).
func ClassifyCase(entries []ExecEntry) CaseResult { return difftest.Classify(entries) }

// RunReference executes src on the defect-free reference engine.
func RunReference(src string, strict bool, fuel, seed int64) ExecResult {
	return engines.Reference(src, strict, engines.RunOptions{Fuel: fuel, Seed: seed})
}

// ReferenceTestbed returns the defect-free reference testbed in the given
// mode (prepare it once to run many candidates against the oracle).
func ReferenceTestbed(strict bool) Testbed { return engines.ReferenceTestbed(strict) }

// DiffTest differentially tests src across testbeds per Figure 5, on
// the scheduler's weighted results (no per-testbed expansion). No
// testbeds classify as VerdictInvalid.
func DiffTest(src string, testbeds []Testbed, fuel, seed int64) CaseResult {
	if len(testbeds) == 0 {
		return difftest.Classify(nil)
	}
	return exec.New(exec.Config{Testbeds: testbeds, Fuel: fuel, Seed: seed}).Execute(src).Result
}

// NewComfortFuzzer builds the full COMFORT pipeline (GPT-2-substitute
// program generation plus ECMA-262-guided test data).
func NewComfortFuzzer() Fuzzer { return fuzzers.NewComfort() }

// Fuzzers returns COMFORT and the five baseline fuzzers of the paper's
// comparison experiments.
func Fuzzers() []Fuzzer { return fuzzers.All() }

// RunCampaign executes a fuzzing campaign.
func RunCampaign(cfg CampaignConfig) *CampaignResult { return campaign.Run(cfg) }

// SpecDatabase returns the boundary-condition database extracted from the
// embedded ECMA-262-style document.
func SpecDatabase() *SpecDB { return spec.Default() }

// MutateTestData applies Algorithm 1 (ECMA-262-guided test data generation)
// to a test program and returns at most maxVariants mutated variants;
// maxVariants <= 0 means the default of 12.
func MutateTestData(src string, maxVariants int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, v := range testgen.Mutate(src, spec.Default(), rng, testgen.Options{MaxVariants: maxVariants}) {
		out = append(out, v.Source)
	}
	return out
}

// ReduceOptions parameterises parallel test-case reduction.
type ReduceOptions = reduce.Options

// ReduceTestCase shrinks a bug-exposing test case while keep reports that
// the anomaly still reproduces (Section 3.5), using the sequential driver.
func ReduceTestCase(src string, keep func(string) bool) string {
	return reduce.Reduce(src, keep)
}

// ReduceTestCaseParallel shrinks a bug-exposing test case with the
// hierarchical ddmin reducer, evaluating independent candidates
// speculatively on a bounded worker pool. keep must be safe for concurrent
// calls when Workers > 1; the result is byte-identical for every worker
// count.
func ReduceTestCaseParallel(src string, keep func(string) bool, opts ReduceOptions) string {
	return reduce.Parallel(src, keep, opts)
}

// Tables regenerates the paper's evaluation artifacts from a campaign's
// findings; see the campaign package for the individual generators.
var Tables = struct {
	Table1  func() string
	Table2  func(found []*Defect) string
	Table3  func(found []*Defect) string
	Table4  func(found []*Defect) string
	Table5  func(found []*Defect) string
	Figure7 func(found []*Defect) string
	Figure8 func(casesPerFuzzer int, seed int64) (string, []campaign.FuzzerComparison)
	Figure9 func(n int, seed int64) (string, []campaign.QualityMetrics)
}{
	Table1:  campaign.Table1,
	Table2:  campaign.Table2,
	Table3:  campaign.Table3,
	Table4:  campaign.Table4,
	Table5:  campaign.Table5,
	Figure7: campaign.Figure7,
	Figure8: campaign.Figure8,
	Figure9: campaign.Figure9,
}
