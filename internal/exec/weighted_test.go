package exec

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// weightedInputs is the weighted-classify oracle's case stream: 1000
// cases of the seed-1 COMFORT stream and every catalog witness.
func weightedInputs() []string {
	var srcs []string
	f, rng := fuzzers.NewComfort(), rand.New(rand.NewSource(1))
	for len(srcs) < 1000 {
		batch := f.Next(rng)
		if len(batch) == 0 {
			break
		}
		srcs = append(srcs, batch...)
	}
	srcs = srcs[:min(len(srcs), 1000)]
	for _, d := range engines.Catalog() {
		srcs = append(srcs, d.Witness)
	}
	return srcs
}

// TestWeightedMatchesReference pins the weighted classifier against the
// per-testbed reference: every outcome's Result must equal the reference
// classification of its expanded entries, deviation order included — on
// the full testbed set, with a fault plan armed, and on each mode alone.
func TestWeightedMatchesReference(t *testing.T) {
	srcs := weightedInputs()
	var normal, strict []engines.Testbed
	for _, tb := range engines.Testbeds() {
		if tb.Strict {
			strict = append(strict, tb)
		} else {
			normal = append(normal, tb)
		}
	}
	faulted := schedCfg(2)
	faulted.Faults = faultinject.New(faultinject.Config{Seed: 3, PanicEvery: 3, SlowEvery: 5, SlowProbes: 1})
	normalOnly, strictOnly := schedCfg(2), schedCfg(2)
	normalOnly.Testbeds, strictOnly.Testbeds = normal, strict
	ctx := context.Background()
	for _, run := range []struct {
		name string
		cfg  Config
		srcs []string
	}{
		{"all testbeds", schedCfg(2), srcs},
		{"fault plan", faulted, srcs},
		{"normal mode", normalOnly, srcs[1000:]},
		{"strict mode", strictOnly, srcs[1000:]},
	} {
		verdicts := map[difftest.Verdict]int{}
		for oc := range New(run.cfg).Run(ctx, FromSlice(ctx, run.srcs)) {
			want := referenceClassify(oc.Entries())
			if !reflect.DeepEqual(oc.Result, want) {
				t.Fatalf("%s, case %d: weighted result differs from the reference\nweighted:  %+v\nreference: %+v\nprogram:\n%s",
					run.name, oc.Index, oc.Result, want, oc.Src)
			}
			verdicts[oc.Result.Verdict]++
		}
		buggy := 0
		for v, n := range verdicts {
			if v.IsBuggy() {
				buggy += n
			}
		}
		if buggy == 0 {
			t.Errorf("%s: no buggy verdict; the deviation expansion went unchecked", run.name)
		}
		t.Logf("%s: %v", run.name, verdicts)
	}
}

// TestFaultedClassHoldsOwnSlot: the class an injected fault targets runs
// physically and records its own result, weighted by its own testbeds,
// never sharing the probe's slot.
func TestFaultedClassHoldsOwnSlot(t *testing.T) {
	plan := faultinject.New(faultinject.Config{Seed: 5, PanicEvery: 1})
	s := New(faultCfg(1, plan))
	oc := s.Execute(`print(1 + 1);`)
	_, target := s.fault(oc.Case)
	g := s.groupOf[target]
	res := oc.cs.results[g][oc.cs.slot[target]]
	if !res.Result.Panic || res.Count != len(s.classes[target]) {
		t.Fatalf("faulted class %d: slot %+v, want its own injected panic of weight %d",
			target, res, len(s.classes[target]))
	}
	total := 0
	for _, w := range oc.cs.results[g] {
		total += w.Count
	}
	if total != len(s.groups[g].members) {
		t.Fatalf("group %d weights sum to %d, want its %d testbeds", g, total, len(s.groups[g].members))
	}
	if oc.Result.Verdict != difftest.VerdictCrash || len(oc.Result.Deviations) != len(s.classes[target]) {
		t.Fatalf("faulted case = %v with %d deviations, want crash with the class's %d testbeds",
			oc.Result.Verdict, len(oc.Result.Deviations), len(s.classes[target]))
	}
}

// referenceClassify is the per-testbed Figure-5 procedure the weighted
// classifier replaced, kept as its oracle: one entry per testbed, a pool
// copy per mode and a key-group map per pool. It is internal/difftest's
// reference (test code cannot cross packages), qualified for this one.
func referenceClassify(entries []difftest.ExecEntry) difftest.CaseResult {
	var normal, strict []difftest.ExecEntry
	for _, e := range entries {
		if e.Testbed.Strict {
			strict = append(strict, e)
		} else {
			normal = append(normal, e)
		}
	}
	if len(normal) == 0 || len(strict) == 0 {
		return referenceClassifyPool(entries)
	}
	a := referenceClassifyPool(normal)
	b := referenceClassifyPool(strict)
	merged := difftest.CaseResult{Verdict: a.Verdict, EarlyError: a.EarlyError && b.EarlyError}
	if referenceRank[b.Verdict] > referenceRank[a.Verdict] {
		merged.Verdict = b.Verdict
	}
	if a.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, a.Deviations...)
	}
	if b.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, b.Deviations...)
	}
	return merged
}

// referenceClassifyPool applies the Figure-5 classification to one pool
// of entries.
// referenceClassifyPool applies the Figure-5 classification to one pool
// of entries.
func referenceClassifyPool(entries []difftest.ExecEntry) difftest.CaseResult {
	var res difftest.CaseResult

	// Step 1: parse consistency.
	parseErrs := 0
	earlyErrs := 0
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeParseError {
			parseErrs++
			if e.Result.EarlyError {
				earlyErrs++
			}
		}
	}
	switch {
	case parseErrs == len(entries):
		res.Verdict = difftest.VerdictInvalid
		res.EarlyError = earlyErrs == len(entries)
		return res
	case parseErrs > 0:
		res.Verdict = difftest.VerdictParseInconsistent
		// The minority side is deviant: engines disagreeing with the most
		// common parse disposition.
		parseOK := len(entries) - parseErrs
		deviantIsErr := parseErrs <= parseOK
		for _, e := range entries {
			if (e.Result.Outcome == engines.OutcomeParseError) == deviantIsErr {
				res.Deviations = append(res.Deviations, difftest.Deviation{Testbed: e.Testbed, Result: e.Result})
			}
		}
		return res
	}

	// Step 2: crashes are of immediate interest.
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeCrash {
			res.Deviations = append(res.Deviations, difftest.Deviation{Testbed: e.Testbed, Result: e.Result})
		}
	}
	if len(res.Deviations) > 0 && len(res.Deviations) < len(entries) {
		res.Verdict = difftest.VerdictCrash
		return res
	}
	res.Deviations = nil

	// Step 3: the 2× timeout rule over fuel. An engine that exhausted its
	// budget while others finished far below it is deviant. A wall-clock
	// watchdog timeout is deviant unconditionally: the engine hung in real
	// time while the others finished, so its (possibly tiny) fuel reading
	// says nothing — the 2× fuel comparison only gates fuel timeouts.
	var maxFinished int64
	finished := 0
	for _, e := range entries {
		if e.Result.Outcome != engines.OutcomeTimeout {
			finished++
			if e.Result.FuelUsed > maxFinished {
				maxFinished = e.Result.FuelUsed
			}
		}
	}
	if finished == 0 {
		res.Verdict = difftest.VerdictAllTimeout
		return res
	}
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeTimeout &&
			(e.Result.WallClock || e.Result.FuelUsed > 2*maxFinished) {
			res.Deviations = append(res.Deviations, difftest.Deviation{Testbed: e.Testbed, Result: e.Result})
		}
	}
	if len(res.Deviations) > 0 {
		res.Verdict = difftest.VerdictTimeout
		return res
	}

	// Step 4: majority voting over behaviour keys.
	groups := map[string][]difftest.ExecEntry{}
	for _, e := range entries {
		k := e.Result.Key()
		groups[k] = append(groups[k], e)
	}
	if len(groups) == 1 {
		res.Verdict = difftest.VerdictPass
		return res
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(groups[keys[i]]) != len(groups[keys[j]]) {
			return len(groups[keys[i]]) > len(groups[keys[j]])
		}
		return keys[i] < keys[j]
	})
	if len(keys) > 1 && len(groups[keys[0]]) == len(groups[keys[1]]) && len(groups) == 2 &&
		len(groups[keys[0]])*2 == len(entries) {
		// Perfect split: no majority to vote with.
		res.Verdict = difftest.VerdictInconclusive
		return res
	}
	for _, k := range keys[1:] {
		for _, e := range groups[k] {
			res.Deviations = append(res.Deviations, difftest.Deviation{Testbed: e.Testbed, Result: e.Result})
		}
	}
	res.Verdict = difftest.VerdictWrongOutput
	return res
}

// referenceRank is difftest's merge order: the more actionable pool
// verdict wins.
var referenceRank = map[difftest.Verdict]int{
	difftest.VerdictCrash: 7, difftest.VerdictTimeout: 6, difftest.VerdictParseInconsistent: 5,
	difftest.VerdictWrongOutput: 4, difftest.VerdictInconclusive: 3, difftest.VerdictPass: 2,
	difftest.VerdictAllTimeout: 1, difftest.VerdictInvalid: 0,
}
