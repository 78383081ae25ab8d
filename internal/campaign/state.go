// Checkpoint/resume for campaigns. A State is the sink's complete
// accounted position — the generator restart point, the Figure-6 dedup
// tree, the findings and every verdict counter — serialised to JSON.
// Because all accounting is single-threaded and outcomes arrive in case
// order, the state after case k is a pure function of (config, k): a
// campaign killed at any checkpoint and resumed from it produces findings
// byte-identical to an uninterrupted run, at every worker and shard
// count. Writes are atomic (internal/atomicfile) so a kill mid-write
// leaves the previous checkpoint intact, and both a format version and a
// config fingerprint guard resumes against stale or mismatched files.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"comfort/internal/atomicfile"
	"comfort/internal/dedup"
	"comfort/internal/difftest"
	"comfort/internal/engines"
)

// StateFormatVersion is bumped whenever the checkpoint encoding changes
// incompatibly; LoadState rejects other versions.
const StateFormatVersion = 1

// SavedFinding is a Finding's serialisable form. The defect is stored by
// catalog ID and re-resolved on restore.
type SavedFinding struct {
	DefectID string   `json:"defect_id"`
	TestCase string   `json:"test_case"`
	Reduced  string   `json:"reduced,omitempty"`
	Verdict  string   `json:"verdict"`
	Engine   string   `json:"engine"`
	Features []string `json:"features,omitempty"`
	Flags    []string `json:"flags,omitempty"`
	Strict   bool     `json:"strict"`
}

// State is a campaign checkpoint: everything the sink needs to continue a
// killed campaign as if it had never stopped.
type State struct {
	Format      int    `json:"format"`
	Fingerprint string `json:"fingerprint"`

	// Position: CasesDone cases are fully accounted; the generator restarts
	// at offset NextOff into batch NextBatch (NextBatch == -1 is the serial
	// path, which replays and resumes by CasesDone alone). Done marks a
	// completed campaign.
	CasesDone int  `json:"cases_done"`
	NextBatch int  `json:"next_batch"`
	NextOff   int  `json:"next_off"`
	Done      bool `json:"done"`

	// Accounted result state — the byte-identical part of the contract.
	Executed             int             `json:"executed"`
	Verdicts             map[string]int  `json:"verdicts"`
	DuplicatesFiltered   int             `json:"duplicates_filtered"`
	UnattributedFindings int             `json:"unattributed_findings"`
	EarlyErrorCases      int             `json:"early_error_cases"`
	FlaggedNondet        int64           `json:"flagged_nondet"`
	FeatureCounts        map[string]int  `json:"feature_counts,omitempty"`
	FeatureBits          uint64          `json:"feature_bits"`
	Dedup                *dedup.Snapshot `json:"dedup,omitempty"`
	Found                []SavedFinding  `json:"found"`
	Suppressed           []SavedFinding  `json:"suppressed"`

	// Counters at checkpoint time: the baseline a resumed run adds its own
	// counts to, so totals stay cumulative across the whole campaign.
	// Deliberately outside the determinism contract (see Counters).
	Counters
}

// fingerprint canonically renders every config parameter that shapes the
// finding stream. Workers and GenShards are deliberately excluded — the
// determinism contract makes findings independent of both, so a campaign
// may resume with a different pool or shard layout; likewise checkpoint
// cadence and kill points, which decide where a run stops, not what it
// finds.
func fingerprint(cfg Config) string {
	ids := make([]string, 0, len(cfg.Testbeds))
	for _, tb := range cfg.Testbeds {
		ids = append(ids, tb.ID())
	}
	return fmt.Sprintf(
		"comfort-campaign/v%d fuzzer=%s seed=%d cases=%d fuel=%d testbeds=%s dedup=%t faults=%s",
		StateFormatVersion, cfg.Fuzzer.Name(), cfg.Seed, cfg.Cases, cfg.Fuel,
		strings.Join(ids, ","), !cfg.DisableDedup, cfg.Faults.Fingerprint())
}

// saveFindings converts a finding map to its serialisable form in
// defect-ID order (deterministic checkpoint bytes).
func saveFindings(m map[string]*Finding) []SavedFinding {
	ids := make([]string, 0, len(m))
	for id := range m { //detlint:order — sorted before use below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]SavedFinding, 0, len(ids))
	for _, id := range ids {
		f := m[id]
		out = append(out, SavedFinding{
			DefectID: id, TestCase: f.TestCase, Reduced: f.Reduced,
			Verdict: f.Verdict.String(), Engine: f.Engine,
			Features: f.Features, Flags: f.Flags, Strict: f.strict,
		})
	}
	return out
}

// restoreFindings rebuilds a finding map, resolving defects by catalog ID.
func restoreFindings(saved []SavedFinding) (map[string]*Finding, error) {
	out := make(map[string]*Finding, len(saved))
	for _, s := range saved {
		d, ok := engines.DefectByID(s.DefectID)
		if !ok {
			return nil, fmt.Errorf("checkpoint names unknown defect %q", s.DefectID)
		}
		v, ok := difftest.VerdictByName(s.Verdict)
		if !ok {
			return nil, fmt.Errorf("checkpoint names unknown verdict %q", s.Verdict)
		}
		out[s.DefectID] = &Finding{
			Defect: d, TestCase: s.TestCase, Reduced: s.Reduced,
			Verdict: v, Engine: s.Engine, Features: s.Features,
			Flags: s.Flags, strict: s.Strict,
		}
	}
	return out, nil
}

// WriteState atomically persists a checkpoint (atomicfile.Replace), so a
// crash at any instant leaves either the old checkpoint or the new one —
// never a torn file.
func WriteState(path string, st *State) error {
	data, err := atomicfile.Encode(st)
	if err != nil {
		return fmt.Errorf("encode checkpoint: %w", err)
	}
	if err := atomicfile.Replace(path, data); err != nil {
		var publish *os.LinkError
		if errors.As(err, &publish) {
			return fmt.Errorf("publish checkpoint: %w", err)
		}
		return fmt.Errorf("stage checkpoint: %w", err)
	}
	return nil
}

// LoadState reads a checkpoint and validates its format version. Config
// compatibility is checked later, by Resume, once the target config is
// known.
func LoadState(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode checkpoint %s: %w", path, err)
	}
	if st.Format != StateFormatVersion {
		return nil, fmt.Errorf("checkpoint %s has format %d, this build reads %d",
			path, st.Format, StateFormatVersion)
	}
	return &st, nil
}

// DiffFingerprints compares two campaign fingerprints field by field and
// reports each diverging parameter as "name: checkpoint has X, config has
// Y" — the actionable form of a mismatch, so an operator learns *which*
// knob differs (seed, fuzzer, testbed set, ...) instead of eyeballing two
// opaque strings. Fingerprints are space-separated key=value tokens after
// a version header (see fingerprint above); an identical pair diffs to
// nil.
func DiffFingerprints(checkpoint, config string) []string {
	parse := func(fp string) (map[string]string, []string) {
		m := map[string]string{}
		var order []string
		for i, tok := range strings.Fields(fp) {
			key, val, ok := strings.Cut(tok, "=")
			if i == 0 && !ok {
				key, val = "version", tok
			} else if !ok {
				continue
			}
			if _, seen := m[key]; !seen {
				order = append(order, key)
			}
			m[key] = val
		}
		return m, order
	}
	ck, order := parse(checkpoint)
	cf, cfOrder := parse(config)
	for _, key := range cfOrder {
		if _, ok := ck[key]; !ok {
			order = append(order, key)
		}
	}
	var out []string
	for _, key := range order {
		cv, inCk := ck[key]
		gv, inCf := cf[key]
		switch {
		case !inCf:
			out = append(out, fmt.Sprintf("%s: checkpoint has %s, config has no such field", key, cv))
		case !inCk:
			out = append(out, fmt.Sprintf("%s: checkpoint has no such field, config has %s", key, gv))
		case cv != gv:
			out = append(out, fmt.Sprintf("%s: checkpoint has %s, config has %s", key, cv, gv))
		}
	}
	return out
}

// Resume continues a campaign from a checkpoint. The config must describe
// the same campaign the checkpoint came from (fingerprint equality over
// every finding-relevant parameter); workers, shard count, checkpoint
// cadence and kill points may differ. A Done checkpoint reconstructs the
// final result without running anything.
func Resume(cfg Config, st *State) (*Result, error) {
	cfg = withDefaults(cfg)
	if fp := fingerprint(cfg); st.Fingerprint != fp {
		diffs := DiffFingerprints(st.Fingerprint, fp)
		if len(diffs) == 0 {
			// Same fields, different rendering (shouldn't happen; belt and
			// braces for hand-edited checkpoints).
			diffs = []string{fmt.Sprintf("checkpoint %q vs config %q", st.Fingerprint, fp)}
		}
		return nil, fmt.Errorf("checkpoint belongs to a different campaign; diverging fields:\n  %s",
			strings.Join(diffs, "\n  "))
	}
	if st.CasesDone > cfg.Cases {
		return nil, fmt.Errorf("checkpoint has %d cases accounted, config budget is %d", st.CasesDone, cfg.Cases)
	}
	cfg.resume = st
	return run(cfg)
}

// restoreInto loads a checkpoint's accounted state into a fresh Result
// and dedup tree. It returns the feature-bit accumulator.
func restoreInto(st *State, res *Result, tree *dedup.Tree) (uint64, error) {
	found, err := restoreFindings(st.Found)
	if err != nil {
		return 0, err
	}
	suppressed, err := restoreFindings(st.Suppressed)
	if err != nil {
		return 0, err
	}
	res.Found = found
	res.SuppressedNondet = suppressed
	res.CasesRun = st.CasesDone
	res.Executed = st.Executed
	for name, n := range st.Verdicts { //detlint:order — accumulating counters
		v, ok := difftest.VerdictByName(name)
		if !ok {
			return 0, fmt.Errorf("checkpoint names unknown verdict %q", name)
		}
		res.Verdicts[v] = n
	}
	res.DuplicatesFiltered = st.DuplicatesFiltered
	res.UnattributedFindings = st.UnattributedFindings
	res.EarlyErrorCases = st.EarlyErrorCases
	res.FlaggedNondet = st.FlaggedNondet
	for name, n := range st.FeatureCounts { //detlint:order — accumulating counters
		res.FeatureCounts[name] = n
	}
	tree.Restore(st.Dedup)
	return st.FeatureBits, nil
}
