package difftest

import (
	"sort"

	"comfort/internal/engines"
)

// referenceClassify is the per-testbed Figure-5 procedure the weighted
// classifier replaced: one entry per testbed, a pool copy per mode and a
// key-group map per pool. It is the oracle the weighted classifier must
// match result for result, deviation order included. internal/exec's
// tests hold the same procedure (test code cannot cross packages).
func referenceClassify(entries []ExecEntry) CaseResult {
	var normal, strict []ExecEntry
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
	merged := CaseResult{Verdict: a.Verdict, EarlyError: a.EarlyError && b.EarlyError}
	if verdictRank(b.Verdict) > verdictRank(a.Verdict) {
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
func referenceClassifyPool(entries []ExecEntry) CaseResult {
	var res CaseResult

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
		res.Verdict = VerdictInvalid
		res.EarlyError = earlyErrs == len(entries)
		return res
	case parseErrs > 0:
		res.Verdict = VerdictParseInconsistent
		// The minority side is deviant: engines disagreeing with the most
		// common parse disposition.
		parseOK := len(entries) - parseErrs
		deviantIsErr := parseErrs <= parseOK
		for _, e := range entries {
			if (e.Result.Outcome == engines.OutcomeParseError) == deviantIsErr {
				res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
			}
		}
		return res
	}

	// Step 2: crashes are of immediate interest.
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeCrash {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	if len(res.Deviations) > 0 && len(res.Deviations) < len(entries) {
		res.Verdict = VerdictCrash
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
		res.Verdict = VerdictAllTimeout
		return res
	}
	for _, e := range entries {
		if e.Result.Outcome == engines.OutcomeTimeout &&
			(e.Result.WallClock || e.Result.FuelUsed > 2*maxFinished) {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	if len(res.Deviations) > 0 {
		res.Verdict = VerdictTimeout
		return res
	}

	// Step 4: majority voting over behaviour keys.
	groups := map[string][]ExecEntry{}
	for _, e := range entries {
		k := e.Result.Key()
		groups[k] = append(groups[k], e)
	}
	if len(groups) == 1 {
		res.Verdict = VerdictPass
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
		res.Verdict = VerdictInconclusive
		return res
	}
	for _, k := range keys[1:] {
		for _, e := range groups[k] {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	res.Verdict = VerdictWrongOutput
	return res
}
