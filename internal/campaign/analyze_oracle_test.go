package campaign

import (
	"math/rand"
	"testing"

	"comfort/internal/dedup"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
	"comfort/internal/js/analyze"
	"comfort/internal/spec"
)

// fixedFuzzer replays a fixed source list, one program per batch.
type fixedFuzzer struct {
	srcs []string
	i    int
}

func (f *fixedFuzzer) Name() string { return "fixed" }

func (f *fixedFuzzer) Next(*rand.Rand) []string {
	if f.i >= len(f.srcs) {
		return nil
	}
	f.i++
	return []string{f.srcs[f.i-1]}
}

// TestCampaignAnalyzeOracle pins the static-analysis layer's campaign
// invariants: the divergence-risk suppression actually fires, suppressed
// findings are disjoint from Found and each carries its flags, the
// FlaggedNondet counter matches the suppressed set, and the sink consulted
// cached reports and recorded feature fingerprints. That a flagged report
// changes nothing but where a finding lands is pinned by
// TestAccountCaseFlagsOnlyDivert.
func TestCampaignAnalyzeOracle(t *testing.T) {
	// CodeAlchemist at this seed is the corpus whose witnesses include a
	// flagged-nondeterministic one, so the suppression diversion is
	// actually exercised (asserted below), not just vacuously empty.
	res := Run(Config{
		Fuzzer:   fuzzers.NewCodeAlchemist(),
		Testbeds: engines.Testbeds(),
		Cases:    150,
		Seed:     2021,
		Workers:  4,
	})
	if len(res.SuppressedNondet) == 0 {
		t.Errorf("corpus produced no suppressed findings; the suppression half of this oracle is vacuous")
	}
	for id, f := range res.SuppressedNondet {
		if _, dup := res.Found[id]; dup {
			t.Errorf("finding %s is both reported and suppressed", id)
		}
		if len(f.Flags) == 0 {
			t.Errorf("suppressed finding %s carries no divergence-risk flags", id)
		}
	}
	if int64(len(res.SuppressedNondet)) != res.FlaggedNondet {
		t.Errorf("FlaggedNondet counter %d does not match suppressed set size %d",
			res.FlaggedNondet, len(res.SuppressedNondet))
	}
	if res.Analyzed == 0 {
		t.Errorf("campaign consulted no cached analysis reports")
	}
	if res.FeaturesSeen == 0 || len(res.FeatureCounts) == 0 {
		t.Errorf("campaign recorded no feature fingerprints")
	}
}

// TestAccountCaseFlagsOnlyDivert feeds one buggy case to the sink twice —
// with a divergence-risk-flagged analysis report and with none — and
// requires identical dedup and attribution accounting: the report decides
// only whether each attributed finding lands in SuppressedNondet or in
// Found.
func TestAccountCaseFlagsOnlyDivert(t *testing.T) {
	cfg := withDefaults(Config{Fuzzer: &fixedFuzzer{}, Testbeds: engines.Testbeds()})
	var src string
	var cr difftest.CaseResult
	sched := exec.New(exec.Config{Testbeds: cfg.Testbeds, Fuel: cfg.Fuel, Seed: cfg.Seed})
	for _, d := range engines.Catalog() {
		cr = sched.Execute(d.Witness).Result
		if cr.Verdict.IsBuggy() {
			src = d.Witness
			break
		}
	}
	if src == "" {
		t.Fatal("no catalog witness yields a buggy case")
	}
	prog, err := engines.ReferenceTestbed(false).Prepare().Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := *analyze.Of(prog)
	rep.Flags |= analyze.FlagMathRandom
	account := func(rep *analyze.Report) *Result {
		res := &Result{Found: map[string]*Finding{}, SuppressedNondet: map[string]*Finding{}}
		tree := dedup.New(dedup.KnownAPIsFromSpec(spec.Default().Names()))
		accountCase(cfg, res, tree, src, cr, rep)
		return res
	}
	flagged, plain := account(&rep), account(nil)

	if flagged.DuplicatesFiltered != plain.DuplicatesFiltered {
		t.Errorf("dedup differs: %d filtered flagged vs %d without a report",
			flagged.DuplicatesFiltered, plain.DuplicatesFiltered)
	}
	if flagged.UnattributedFindings != plain.UnattributedFindings {
		t.Errorf("attribution differs: %d unattributed flagged vs %d without a report",
			flagged.UnattributedFindings, plain.UnattributedFindings)
	}
	if len(plain.Found) == 0 {
		t.Fatal("the witness attributed no finding; the diversion check is vacuous")
	}
	if len(flagged.Found) != 0 || len(plain.SuppressedNondet) != 0 || plain.FlaggedNondet != 0 {
		t.Errorf("findings landed on the wrong side: flagged Found %d, unflagged suppressed %d (counter %d)",
			len(flagged.Found), len(plain.SuppressedNondet), plain.FlaggedNondet)
	}
	if len(flagged.SuppressedNondet) != len(plain.Found) || flagged.FlaggedNondet != int64(len(plain.Found)) {
		t.Errorf("flagged run suppressed %d (counter %d), unflagged run found %d",
			len(flagged.SuppressedNondet), flagged.FlaggedNondet, len(plain.Found))
	}
	for id, f := range plain.Found {
		g, ok := flagged.SuppressedNondet[id]
		if !ok {
			t.Errorf("finding %s found without a report but not suppressed with a flagged one", id)
			continue
		}
		if f.TestCase != g.TestCase || f.Engine != g.Engine || f.Verdict != g.Verdict {
			t.Errorf("finding %s differs: %s %s vs %s %s", id, f.Engine, f.Verdict, g.Engine, g.Verdict)
		}
		if len(g.Flags) == 0 {
			t.Errorf("suppressed finding %s carries no flags", id)
		}
	}
}

// TestCampaignEarlyErrorAccounting pins that statically invalid programs
// are classified as invalid from the analyzer report alone: a fuzzer
// emitting only early-error programs yields a campaign where every case is
// an early-error invalid, no interpreter ran, and the early-skip counter
// saw the gate fire (once per probe or class execution).
func TestCampaignEarlyErrorAccounting(t *testing.T) {
	srcs := []string{
		"let a = 1; let a = 2;",
		"const c = 1; c = 2;",
		"x: { continue x; }",
	}
	res := Run(Config{
		Fuzzer:   &fixedFuzzer{srcs: srcs},
		Testbeds: engines.Testbeds(),
		Cases:    len(srcs),
		Seed:     1,
		Workers:  2,
	})
	if res.EarlyErrorCases != len(srcs) {
		t.Fatalf("EarlyErrorCases = %d, want %d", res.EarlyErrorCases, len(srcs))
	}
	if res.EarlyErrorSkips == 0 {
		t.Fatalf("EarlyErrorSkips = 0; the gate never fired")
	}
	if res.Compiled != 0 || res.Fallback != 0 {
		t.Fatalf("interpreter ran on statically invalid programs: compiled=%d tree=%d",
			res.Compiled, res.Fallback)
	}
	if n := res.Verdicts[difftest.VerdictInvalid]; n != len(srcs) {
		t.Fatalf("invalid verdicts = %d, want %d (verdicts: %v)", n, len(srcs), res.Verdicts)
	}
}
