package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"comfort/internal/engines"
)

// weightedCase is a synthetic case in both views: the weighted pools the
// scheduler hands ClassifyPools and the per-testbed entries, in testbed
// order, the reference classifies.
type weightedCase struct {
	normal, strict Pool
	entries        []ExecEntry
}

// build lays out a weighted case. results[i] is a result and counts[i]
// its testbed count; strict[i] its mode. order permutes the testbeds
// (nil keeps them grouped by result); classSize groups each result's
// testbeds into classes of that size (1 when zero), so a result is shared
// by whole classes as the scheduler shares it.
func build(results []engines.ExecResult, counts []int, strict []bool, order []int, classSize int) weightedCase {
	if classSize < 1 {
		classSize = 1
	}
	type tb struct{ result, class int }
	var tbs []tb
	var slot []int // per class: its result index within its pool
	var wc weightedCase
	for i, r := range results {
		p := &wc.normal
		if strict[i] {
			p = &wc.strict
		}
		for n := 0; n < counts[i]; n++ {
			if n%classSize == 0 {
				slot = append(slot, len(p.Results))
			}
			tbs = append(tbs, tb{result: i, class: len(slot) - 1})
		}
		p.Results = append(p.Results, Weighted{Result: r, Count: counts[i]})
	}
	if order != nil {
		perm := make([]tb, len(tbs))
		for j, k := range order {
			perm[j] = tbs[k]
		}
		tbs = perm
	}
	for j, t := range tbs {
		testbed := engines.Testbed{
			Version: engines.Version{Engine: fmt.Sprintf("E%d", j), Name: "1", Build: "1"},
			Strict:  strict[t.result],
		}
		p := &wc.normal
		if testbed.Strict {
			p = &wc.strict
		}
		p.Members = append(p.Members, Member{Testbed: testbed, Class: t.class})
		wc.entries = append(wc.entries, ExecEntry{Testbed: testbed, Result: results[t.result]})
	}
	wc.normal.Slot, wc.strict.Slot = slot, slot
	return wc
}

// check requires ClassifyPools and the Classify adapter to equal the
// reference on c, and returns the weighted result.
func (c weightedCase) check(t *testing.T) CaseResult {
	t.Helper()
	want := referenceClassify(c.entries)
	if got := ClassifyPools(c.normal, c.strict); !reflect.DeepEqual(got, want) {
		t.Fatalf("weighted classify differs from the reference\nweighted:  %+v\nreference: %+v\npools: %+v\n%+v",
			got, want, c.normal.Results, c.strict.Results)
	}
	if got := Classify(c.entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("Classify differs from the reference\nClassify:  %+v\nreference: %+v", got, want)
	}
	return want
}

// randomResult draws from a small space, so keys collide, perfect splits
// occur and the 2× fuel bar is crossed both ways. Outputs and error names
// containing "|" render equal keys from different triples.
func randomResult(rng *rand.Rand) engines.ExecResult {
	outcomes := []engines.ExecOutcome{engines.OutcomePass, engines.OutcomePass, engines.OutcomeException,
		engines.OutcomeParseError, engines.OutcomeCrash, engines.OutcomeTimeout}
	outputs := []string{"", "1", "a", "a|"}
	errNames := []string{"", "|", "TypeError"}
	fuels := []int64{0, 3, 100, 200, 201, 1000}
	r := engines.ExecResult{
		Outcome:  outcomes[rng.Intn(len(outcomes))],
		Output:   outputs[rng.Intn(len(outputs))],
		ErrName:  errNames[rng.Intn(len(errNames))],
		FuelUsed: fuels[rng.Intn(len(fuels))],
	}
	switch r.Outcome {
	case engines.OutcomeParseError:
		r.EarlyError = rng.Intn(2) == 0
	case engines.OutcomeCrash:
		r.Panic = rng.Intn(2) == 0
	case engines.OutcomeTimeout:
		r.WallClock = rng.Intn(3) == 0
	}
	return r
}

// TestClassifyMatchesReference is the synthetic property test: random
// weighted cases — outcomes, fuel, wall-clock flags, one or both modes,
// counts, class sizes and testbed orders — classify exactly as the
// per-testbed reference does on their expansion.
func TestClassifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := map[Verdict]int{}
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(5)
		results := make([]engines.ExecResult, n)
		counts := make([]int, n)
		strict := make([]bool, n)
		modes := rng.Intn(3) // 0 normal only, 1 strict only, 2 both
		total := 0
		for i := range results {
			results[i] = randomResult(rng)
			if rng.Intn(4) == 0 && i > 0 {
				// The same key again with a different fuel reading, as a
				// probe and a re-run class can deliver.
				results[i] = results[i-1]
				results[i].FuelUsed++
			}
			counts[i] = 1 + rng.Intn(4)
			if rng.Intn(8) == 0 {
				counts[i] = 52
			}
			strict[i] = modes == 1 || (modes == 2 && rng.Intn(2) == 0)
			total += counts[i]
		}
		var order []int
		if rng.Intn(2) == 0 {
			order = rng.Perm(total)
		}
		verdicts[build(results, counts, strict, order, rng.Intn(3)).check(t).Verdict]++
	}
	for v := VerdictPass; v <= VerdictInconclusive; v++ {
		if verdicts[v] == 0 {
			t.Errorf("no random case classified %v", v)
		}
	}
}

// TestWeightedPerfectSplit: two physical results, 52 testbeds each, with
// different keys leave no majority to vote with.
func TestWeightedPerfectSplit(t *testing.T) {
	c := build([]engines.ExecResult{pass("1"), pass("2")}, []int{52, 52}, []bool{false, false}, nil, 4)
	if res := c.check(t); res.Verdict != VerdictInconclusive || res.Deviations != nil {
		t.Fatalf("52/52 split = %v with %d deviations, want inconclusive with none",
			res.Verdict, len(res.Deviations))
	}
}

// TestWeightedAllCrashVotes: when every testbed crashes the crash step has
// nothing to deviate from, and the case falls through to the vote.
func TestWeightedAllCrashVotes(t *testing.T) {
	crash := func(name string) engines.ExecResult {
		return engines.ExecResult{Outcome: engines.OutcomeCrash, ErrName: name, FuelUsed: 50}
	}
	c := build([]engines.ExecResult{crash("A"), crash("B"), crash("A")}, []int{40, 3, 9},
		[]bool{false, false, false}, nil, 3)
	res := c.check(t)
	if res.Verdict != VerdictWrongOutput || len(res.Deviations) != 3 ||
		res.Deviations[0].Result.ErrName != "B" {
		t.Fatalf("all-crash case = %v with deviations %+v, want wrong-output with the 3 B crashes",
			res.Verdict, res.Deviations)
	}
	if res := build([]engines.ExecResult{crash("A")}, []int{104}, []bool{false}, nil, 8).check(t); res.Verdict != VerdictPass {
		t.Fatalf("unanimous crash = %v, want pass", res.Verdict)
	}
}

// TestWeightedWallClockTinyFuel: a wall-clock timeout deviates even when
// its fuel reading is far below the finishers'.
func TestWeightedWallClockTinyFuel(t *testing.T) {
	hung := engines.ExecResult{Outcome: engines.OutcomeTimeout, ErrName: "timeout", FuelUsed: 3, WallClock: true}
	order := make([]int, 104) // interleave the modes and the hung testbeds
	for i := range order {
		order[i] = (i*37 + 5) % 104
	}
	c := build([]engines.ExecResult{pass("1"), hung, pass("1")}, []int{50, 2, 52},
		[]bool{false, false, true}, order, 1)
	res := c.check(t)
	if res.Verdict != VerdictTimeout || len(res.Deviations) != 2 || !res.Deviations[0].Result.WallClock {
		t.Fatalf("wall-clock hang = %v with %d deviations, want timeout with the 2 hung testbeds",
			res.Verdict, len(res.Deviations))
	}
}

// TestWeightedSingleModePool: a one-mode testbed set is one pool, whose
// verdict is the case's as it stands — majority key and deviations
// included.
func TestWeightedSingleModePool(t *testing.T) {
	c := build([]engines.ExecResult{pass("1"), pass("2"), pass("1")}, []int{30, 5, 17},
		[]bool{true, true, true}, nil, 2)
	res := c.check(t)
	if len(c.normal.Results) != 0 || res.Verdict != VerdictWrongOutput || len(res.Deviations) != 5 ||
		res.MajorityKey != pass("1").Key() {
		t.Fatalf("strict-only case = %v, majority %q, %d deviations", res.Verdict, res.MajorityKey, len(res.Deviations))
	}
}

// TestClassifyAllocs gates the classifier's allocations: a passing case
// whose testbeds collapse to two results per mode allocates a small
// constant number of times, the same for 10 testbeds as for 104 — no
// per-testbed copy, pool or key map.
func TestClassifyAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{10, 104} {
		half := n / 2
		r1, r2 := pass("1"), pass("1")
		r2.FuelUsed++
		c := build([]engines.ExecResult{r1, r2, r1, r2}, []int{half - 1, 1, half - 1, 1},
			[]bool{false, false, true, true}, nil, 3)
		if res := c.check(t); res.Verdict != VerdictPass {
			t.Fatalf("%d testbeds: verdict %v, want pass", n, res.Verdict)
		}
		a := testing.AllocsPerRun(100, func() { ClassifyPools(c.normal, c.strict) })
		if a > 4 {
			t.Errorf("%d testbeds: %.0f allocations per classify, want <= 4", n, a)
		}
		t.Logf("%d testbeds: %.0f allocations", n, a)
		allocs = append(allocs, a)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grow with testbeds: %.0f at 10, %.0f at 104", allocs[0], allocs[1])
	}
}
