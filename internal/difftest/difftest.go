// Package difftest is the pure classifier of the paper's Section 3.4 and
// Figure 5: given one test case's behaviour on many testbeds, check parse
// consistency, apply the 2× timeout rule over deterministic fuel, and
// majority-vote on execution behaviour to isolate deviant engines. It
// runs nothing itself; the exec scheduler produces the entries.
package difftest

import (
	"sort"

	"comfort/internal/engines"
)

// Verdict classifies a whole test case (the leaf states of Figure 5).
type Verdict int

// Test-case verdicts.
const (
	// VerdictPass: all testbeds agree on a successful execution.
	VerdictPass Verdict = iota
	// VerdictInvalid: every testbed rejects the program (ignored).
	VerdictInvalid
	// VerdictParseInconsistent: engines disagree about parseability.
	VerdictParseInconsistent
	// VerdictWrongOutput: executions disagree on result/exception.
	VerdictWrongOutput
	// VerdictCrash: at least one engine crashed.
	VerdictCrash
	// VerdictTimeout: at least one engine violated the 2× fuel rule.
	VerdictTimeout
	// VerdictAllTimeout: everything timed out (likely an infinite loop in
	// the test program; ignored per the paper's ten-minute rule).
	VerdictAllTimeout
	// VerdictInconclusive: no majority behaviour exists.
	VerdictInconclusive
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictInvalid:
		return "invalid"
	case VerdictParseInconsistent:
		return "parse-inconsistent"
	case VerdictWrongOutput:
		return "wrong-output"
	case VerdictCrash:
		return "crash"
	case VerdictTimeout:
		return "timeout"
	case VerdictAllTimeout:
		return "all-timeout"
	default:
		return "inconclusive"
	}
}

// verdictNames maps each verdict's String rendering back to the value —
// the stable encoding campaign checkpoints persist verdict counters under.
var verdictNames = map[string]Verdict{}

func init() {
	for v := VerdictPass; v <= VerdictInconclusive; v++ {
		verdictNames[v.String()] = v
	}
}

// VerdictByName resolves a Verdict from its String rendering (checkpoint
// decoding). The second return is false for unknown names.
func VerdictByName(name string) (Verdict, bool) {
	v, ok := verdictNames[name]
	return v, ok
}

// IsBuggy reports whether the verdict indicates anomalous engine behaviour
// worth reporting.
func (v Verdict) IsBuggy() bool {
	switch v {
	case VerdictParseInconsistent, VerdictWrongOutput, VerdictCrash, VerdictTimeout:
		return true
	}
	return false
}

// Deviation is one testbed whose behaviour deviates from the majority.
type Deviation struct {
	Testbed engines.Testbed
	Result  engines.ExecResult
}

// ExecEntry pairs one testbed with its observed behaviour on a test case —
// the raw material of Figure-5 classification. Schedulers produce entries
// (in any order); Classify consumes them.
type ExecEntry struct {
	Testbed engines.Testbed
	Result  engines.ExecResult
}

// CaseResult is the outcome of differentially testing one program.
type CaseResult struct {
	Verdict     Verdict
	Deviations  []Deviation
	MajorityKey string
	// EarlyError marks a VerdictInvalid case whose rejection came from the
	// static analyzer's early-error gate on every testbed (rather than the
	// parser): the campaign accounts these separately — the whole case was
	// classified without a single interpreter run.
	EarlyError bool
}

// DefaultFuel is the campaign-scale step budget per testbed execution,
// shared by the exec scheduler and campaign defaulting.
const DefaultFuel = 200000

// Classify applies the Figure-5 decision procedure to a set of executions.
// It is pure — no testbed runs — so it is unit-testable with synthetic
// entries. Normal-mode and strict-mode testbeds vote in separate pools,
// because the two modes have legitimately different conforming behaviour;
// the pools' verdicts are then merged.
func Classify(entries []ExecEntry) CaseResult {
	var normal, strict []ExecEntry
	for _, e := range entries {
		if e.Testbed.Strict {
			strict = append(strict, e)
		} else {
			normal = append(normal, e)
		}
	}
	if len(normal) == 0 || len(strict) == 0 {
		return classifyPool(entries)
	}
	a := classifyPool(normal)
	b := classifyPool(strict)
	merged := CaseResult{Verdict: a.Verdict, MajorityKey: a.MajorityKey,
		EarlyError: a.EarlyError && b.EarlyError}
	if verdictRank(b.Verdict) > verdictRank(a.Verdict) {
		merged.Verdict = b.Verdict
		merged.MajorityKey = b.MajorityKey
	}
	if a.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, a.Deviations...)
	}
	if b.Verdict.IsBuggy() {
		merged.Deviations = append(merged.Deviations, b.Deviations...)
	}
	return merged
}

// verdictRank orders verdicts by how actionable they are for merging.
func verdictRank(v Verdict) int {
	switch v {
	case VerdictCrash:
		return 7
	case VerdictTimeout:
		return 6
	case VerdictParseInconsistent:
		return 5
	case VerdictWrongOutput:
		return 4
	case VerdictInconclusive:
		return 3
	case VerdictPass:
		return 2
	case VerdictAllTimeout:
		return 1
	default: // VerdictInvalid
		return 0
	}
}

// classifyPool applies the Figure-5 classification to one pool of entries.
func classifyPool(entries []ExecEntry) CaseResult {
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
	var firstKey string
	for i, e := range entries {
		k := e.Result.Key()
		if i == 0 {
			firstKey = k
		}
		groups[k] = append(groups[k], e)
	}
	if len(groups) == 1 {
		res.Verdict = VerdictPass
		res.MajorityKey = firstKey
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
	majority := keys[0]
	if len(keys) > 1 && len(groups[keys[0]]) == len(groups[keys[1]]) && len(groups) == 2 &&
		len(groups[keys[0]])*2 == len(entries) {
		// Perfect split: no majority to vote with.
		res.Verdict = VerdictInconclusive
		return res
	}
	res.MajorityKey = majority
	for _, k := range keys[1:] {
		for _, e := range groups[k] {
			res.Deviations = append(res.Deviations, Deviation{e.Testbed, e.Result})
		}
	}
	res.Verdict = VerdictWrongOutput
	return res
}
