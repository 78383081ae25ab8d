// Package difftest is the pure classifier of the paper's Section 3.4 and
// Figure 5: given one test case's behaviour on many testbeds, check parse
// consistency, apply the 2× timeout rule over deterministic fuel, and
// majority-vote on execution behaviour to isolate deviant engines. It
// runs nothing itself. The exec scheduler hands it each mode's physical
// results weighted by testbed count, and deviations expand to testbeds
// only on a buggy verdict.
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
// the per-testbed view of a case's executions. Classify consumes entries
// (in any order); the scheduler classifies weighted pools directly and
// expands entries only on request.
type ExecEntry struct {
	Testbed engines.Testbed
	Result  engines.ExecResult
}

// Weighted is one execution result of a case and the number of testbeds
// that observed it: one physical run stands in for every testbed whose
// behaviour class took its result.
type Weighted struct {
	Result engines.ExecResult
	Count  int
}

// Member is one testbed of a Pool. Members of one class share a result:
// the pool's Slot[Class] indexes it in Results.
type Member struct {
	Testbed engines.Testbed
	Class   int
}

// Pool is one mode's executions of a case, weighted. Results carries the
// observed results with their testbed counts (each count positive, the
// results not necessarily distinct); Members lists the pool's testbeds in
// testbed order. Classification decides on Results alone and reads
// Members and Slot only to expand a buggy verdict's deviations.
type Pool struct {
	Results []Weighted
	Members []Member
	Slot    []int
}

// CaseResult is the outcome of differentially testing one program.
type CaseResult struct {
	Verdict    Verdict
	Deviations []Deviation
	// EarlyError marks a VerdictInvalid case whose rejection came from the
	// static analyzer's early-error gate on every testbed (rather than the
	// parser): the campaign accounts these separately — the whole case was
	// classified without a single interpreter run.
	EarlyError bool
}

// DefaultFuel is the campaign-scale step budget per testbed execution,
// shared by the exec scheduler and campaign defaulting.
const DefaultFuel = 200000

// Classify applies the Figure-5 decision procedure to per-testbed
// entries: each entry is a result of weight one in its mode's pool, and
// deviations follow entry order. It is pure — no testbed runs — so it is
// unit-testable with synthetic entries.
func Classify(entries []ExecEntry) CaseResult {
	var normal, strict Pool
	slot := make([]int, len(entries))
	for j, e := range entries {
		p := &normal
		if e.Testbed.Strict {
			p = &strict
		}
		slot[j] = len(p.Results)
		p.Results = append(p.Results, Weighted{Result: e.Result, Count: 1})
		p.Members = append(p.Members, Member{Testbed: e.Testbed, Class: j})
	}
	normal.Slot, strict.Slot = slot, slot
	return ClassifyPools(normal, strict)
}

// ClassifyPools applies the Figure-5 decision procedure to a case's
// weighted executions. Normal-mode and strict-mode testbeds vote in
// separate pools, because the two modes have legitimately different
// conforming behaviour; the pools' verdicts are then merged. An empty
// pool means the testbed set lacks that mode, and the other pool is the
// whole case.
func ClassifyPools(normal, strict Pool) CaseResult {
	if len(normal.Results) == 0 {
		return classifyPool(strict)
	}
	if len(strict.Results) == 0 {
		return classifyPool(normal)
	}
	a := classifyPool(normal)
	b := classifyPool(strict)
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

// classifyPool applies the Figure-5 classification to one pool. Every
// decision is a count over the weighted results; only a buggy verdict
// expands its deviant results to testbeds.
func classifyPool(p Pool) CaseResult {
	var res CaseResult
	total, parseErrs, earlyErrs, crashes, finished := 0, 0, 0, 0, 0
	var maxFinished int64
	for _, w := range p.Results {
		r := w.Result
		total += w.Count
		switch r.Outcome {
		case engines.OutcomeParseError:
			parseErrs += w.Count
			if r.EarlyError {
				earlyErrs += w.Count
			}
		case engines.OutcomeCrash:
			crashes += w.Count
		}
		if r.Outcome != engines.OutcomeTimeout {
			finished += w.Count
			if r.FuelUsed > maxFinished {
				maxFinished = r.FuelUsed
			}
		}
	}

	// Step 1: parse consistency.
	switch {
	case parseErrs == total:
		res.Verdict = VerdictInvalid
		res.EarlyError = earlyErrs == total
		return res
	case parseErrs > 0:
		res.Verdict = VerdictParseInconsistent
		// The minority side is deviant: engines disagreeing with the most
		// common parse disposition.
		deviantIsErr := parseErrs <= total-parseErrs
		res.Deviations = p.deviations(p.mark(func(r engines.ExecResult) bool {
			return (r.Outcome == engines.OutcomeParseError) == deviantIsErr
		}))
		return res
	}

	// Step 2: crashes are of immediate interest — unless every engine
	// crashed, which leaves nothing to deviate from.
	if crashes > 0 && crashes < total {
		res.Verdict = VerdictCrash
		res.Deviations = p.deviations(p.mark(func(r engines.ExecResult) bool {
			return r.Outcome == engines.OutcomeCrash
		}))
		return res
	}

	// Step 3: the 2× timeout rule over fuel. An engine that exhausted its
	// budget while others finished far below it is deviant. A wall-clock
	// watchdog timeout is deviant unconditionally: the engine hung in real
	// time while the others finished, so its (possibly tiny) fuel reading
	// says nothing — the 2× fuel comparison only gates fuel timeouts.
	if finished == 0 {
		res.Verdict = VerdictAllTimeout
		return res
	}
	if rank := p.mark(func(r engines.ExecResult) bool {
		return r.Outcome == engines.OutcomeTimeout && (r.WallClock || r.FuelUsed > 2*maxFinished)
	}); rank != nil {
		res.Verdict = VerdictTimeout
		res.Deviations = p.deviations(rank)
		return res
	}

	// Step 4: majority voting over behaviour keys. Equal (outcome, output,
	// error name) triples render equal keys, so the common unanimous pool
	// is decided without rendering more than its one key. Unequal triples
	// can still render equal keys, so the vote proper groups rendered keys.
	first := p.Results[0].Result
	unanimous := true
	for _, w := range p.Results[1:] {
		r := w.Result
		if r.Outcome != first.Outcome || r.Output != first.Output || r.ErrName != first.ErrName {
			unanimous = false
			break
		}
	}
	if unanimous {
		res.Verdict = VerdictPass
		return res
	}
	type keyGroup struct {
		key   string
		count int
	}
	keys := make([]string, len(p.Results))
	var groups []keyGroup
	for i, w := range p.Results {
		keys[i] = w.Result.Key()
		g := 0
		for g < len(groups) && groups[g].key != keys[i] {
			g++
		}
		if g == len(groups) {
			groups = append(groups, keyGroup{key: keys[i]})
		}
		groups[g].count += w.Count
	}
	if len(groups) == 1 {
		res.Verdict = VerdictPass
		return res
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].count != groups[j].count {
			return groups[i].count > groups[j].count
		}
		return groups[i].key < groups[j].key
	})
	if len(groups) == 2 && groups[0].count == groups[1].count {
		// Perfect split: no majority to vote with.
		res.Verdict = VerdictInconclusive
		return res
	}
	// Every minority key group deviates, in vote order.
	rank := make([]int, len(p.Results))
	for i, k := range keys {
		for g := 1; g < len(groups); g++ {
			if groups[g].key == k {
				rank[i] = g
			}
		}
	}
	res.Deviations = p.deviations(rank)
	res.Verdict = VerdictWrongOutput
	return res
}

// mark ranks the results deviant picks 1 and the rest 0, or returns nil
// when it picks none.
func (p Pool) mark(deviant func(engines.ExecResult) bool) []int {
	var rank []int
	for i, w := range p.Results {
		if deviant(w.Result) {
			if rank == nil {
				rank = make([]int, len(p.Results))
			}
			rank[i] = 1
		}
	}
	return rank
}

// deviations expands the ranked results to their testbeds: the testbeds
// of rank-1 results first, then rank 2 and so on, each rank in testbed
// order. Rank 0 is not deviant.
func (p Pool) deviations(rank []int) []Deviation {
	n, maxRank := 0, 0
	for i, r := range rank {
		if r > 0 {
			n += p.Results[i].Count
			maxRank = max(maxRank, r)
		}
	}
	devs := make([]Deviation, 0, n)
	for r := 1; r <= maxRank; r++ {
		for _, m := range p.Members {
			if s := p.Slot[m.Class]; rank[s] == r {
				devs = append(devs, Deviation{m.Testbed, p.Results[s].Result})
			}
		}
	}
	return devs
}
