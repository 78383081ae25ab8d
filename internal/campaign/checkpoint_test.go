package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comfort/internal/atomicfile"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// requireSameAccounting asserts the byte-identical half of the
// checkpoint/resume contract: findings, verdict histogram, dedup and
// attribution counters, and feature accounting all match between two
// results. Diagnostic counters (cache, IC, evaluator paths) are
// deliberately outside the contract.
func requireSameAccounting(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if want.CasesRun != got.CasesRun || want.Executed != got.Executed {
		t.Fatalf("%s: accounting position differs: (%d,%d) vs (%d,%d)",
			tag, want.CasesRun, want.Executed, got.CasesRun, got.Executed)
	}
	sameFindings := func(kind string, w, g map[string]*Finding) {
		if len(w) != len(g) {
			t.Fatalf("%s: %s count differs: %d vs %d", tag, kind, len(w), len(g))
		}
		for id, f := range w {
			h, ok := g[id]
			if !ok {
				t.Errorf("%s: %s %s missing", tag, kind, id)
				continue
			}
			if f.TestCase != h.TestCase || f.Verdict != h.Verdict || f.Engine != h.Engine ||
				f.strict != h.strict {
				t.Errorf("%s: %s %s differs:\n%+v\nvs\n%+v", tag, kind, id, f, h)
			}
			if len(f.Features) != len(h.Features) || len(f.Flags) != len(h.Flags) {
				t.Errorf("%s: %s %s features/flags differ", tag, kind, id)
			}
		}
	}
	sameFindings("finding", want.Found, got.Found)
	sameFindings("suppressed", want.SuppressedNondet, got.SuppressedNondet)
	for v, n := range want.Verdicts {
		if got.Verdicts[v] != n {
			t.Errorf("%s: verdict %s: %d vs %d", tag, v, n, got.Verdicts[v])
		}
	}
	for v, n := range got.Verdicts {
		if want.Verdicts[v] != n {
			t.Errorf("%s: extra verdict %s: %d", tag, v, n)
		}
	}
	if want.DuplicatesFiltered != got.DuplicatesFiltered {
		t.Errorf("%s: duplicates filtered: %d vs %d", tag, want.DuplicatesFiltered, got.DuplicatesFiltered)
	}
	if want.UnattributedFindings != got.UnattributedFindings {
		t.Errorf("%s: unattributed: %d vs %d", tag, want.UnattributedFindings, got.UnattributedFindings)
	}
	if want.EarlyErrorCases != got.EarlyErrorCases {
		t.Errorf("%s: early-error cases: %d vs %d", tag, want.EarlyErrorCases, got.EarlyErrorCases)
	}
	if want.FlaggedNondet != got.FlaggedNondet {
		t.Errorf("%s: flagged nondet: %d vs %d", tag, want.FlaggedNondet, got.FlaggedNondet)
	}
	if want.FeaturesSeen != got.FeaturesSeen {
		t.Errorf("%s: features seen: %d vs %d", tag, want.FeaturesSeen, got.FeaturesSeen)
	}
	for name, n := range want.FeatureCounts {
		if got.FeatureCounts[name] != n {
			t.Errorf("%s: feature %s: %d vs %d", tag, name, n, got.FeatureCounts[name])
		}
	}
}

// TestKillAtEveryCheckpointResumesIdentical is the crash-recovery oracle:
// for every checkpoint ordinal, a campaign killed right after that write
// and resumed from the file produces accounting byte-identical to an
// uninterrupted run — across two worker/shard configurations, including a
// resume under a different pool and shard layout than the killed run.
func TestKillAtEveryCheckpointResumesIdentical(t *testing.T) {
	const cases, every = 40, 8
	mkCfg := func(workers, shards int) Config {
		return Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        figure8Testbeds(),
			Cases:           cases,
			Seed:            2,
			Workers:         workers,
			GenShards:       shards,
			CheckpointEvery: every,
		}
	}
	configs := []struct {
		name                           string
		killW, killS, resumeW, resumeS int
	}{
		{"serial", 1, 1, 1, 1},
		{"wide-to-narrow", 8, 4, 2, 1},
	}
	want := Run(mkCfg(4, 2))
	if want.CasesRun != cases {
		t.Fatalf("baseline ran %d cases, want %d", want.CasesRun, cases)
	}
	kills := (cases - 1) / every
	if kills < 2 {
		t.Fatalf("test needs >= 2 checkpoints, got %d", kills)
	}
	for _, cc := range configs {
		for n := 1; n <= kills; n++ {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			killCfg := mkCfg(cc.killW, cc.killS)
			killCfg.Checkpoint = path
			killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{n}})
			killed := Run(killCfg)
			if killed.CasesRun != n*every {
				t.Fatalf("%s kill@%d: killed run accounted %d cases, want %d",
					cc.name, n, killed.CasesRun, n*every)
			}
			st, err := LoadState(path)
			if err != nil {
				t.Fatalf("%s kill@%d: %v", cc.name, n, err)
			}
			if st.Done || st.CasesDone != n*every {
				t.Fatalf("%s kill@%d: checkpoint at %d cases (done=%v), want %d",
					cc.name, n, st.CasesDone, st.Done, n*every)
			}
			got, err := Resume(mkCfg(cc.resumeW, cc.resumeS), st)
			if err != nil {
				t.Fatalf("%s kill@%d: resume: %v", cc.name, n, err)
			}
			requireSameAccounting(t, fmt.Sprintf("%s/kill@%d", cc.name, n), want, got)
		}
	}
}

// TestSerialFuzzerCheckpointResume pins the replay path: a stateful (non-
// Forkable) fuzzer resumes by regenerating the stream from case 0 and
// suppressing the already-accounted prefix — same findings as an
// uninterrupted run.
func TestSerialFuzzerCheckpointResume(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Fuzzer:          fuzzers.NewDIE(),
			Testbeds:        figure8Testbeds()[:6],
			Cases:           30,
			Seed:            9,
			Workers:         4,
			CheckpointEvery: 7,
		}
	}
	want := Run(mkCfg())
	path := filepath.Join(t.TempDir(), "ckpt.json")
	killCfg := mkCfg()
	killCfg.Checkpoint = path
	killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{2}})
	Run(killCfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextBatch != -1 {
		t.Fatalf("serial checkpoint recorded batch %d, want -1 (replay-by-index)", st.NextBatch)
	}
	got, err := Resume(mkCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "serial-fuzzer", want, got)
}

// TestCancelThenResumeCompletes is the graceful-shutdown path end to end:
// a cancelled campaign flushes a final (not Done) checkpoint, and resuming
// it completes the budget with accounting identical to a never-interrupted
// run.
func TestCancelThenResumeCompletes(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        figure8Testbeds(),
			Cases:           60,
			Seed:            2,
			Workers:         4,
			CheckpointEvery: 1000, // periodic writes out of the picture: only the final flush
		}
	}
	want := Run(mkCfg())
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mkCfg()
	cfg.Checkpoint = path
	cfg.Context = ctx
	cfg.Progress = func(p Progress) {
		if p.Done == 20 {
			cancel()
		}
	}
	partial := Run(cfg)
	if partial.CasesRun >= 60 || partial.CasesRun < 20 {
		t.Fatalf("cancelled run accounted %d cases", partial.CasesRun)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Fatal("interrupted checkpoint marked Done")
	}
	if st.CasesDone != partial.CasesRun {
		t.Fatalf("final flush at %d cases, result says %d", st.CasesDone, partial.CasesRun)
	}
	got, err := Resume(mkCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "cancel-resume", want, got)

	// Resuming the now-Done final checkpoint reconstructs the result
	// without running anything.
	cfg2 := mkCfg()
	cfg2.Checkpoint = path
	if _, err := Resume(cfg2, st); err != nil {
		t.Fatal(err)
	}
	final, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done {
		t.Fatal("completed resume did not mark the checkpoint Done")
	}
	redone, err := Resume(mkCfg(), final)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccounting(t, "done-restore", want, redone)
}

// TestLoadStateRejectsBadCheckpoints: garbage bytes, wrong format versions
// and mismatched configs all fail loudly instead of corrupting a resume.
func TestLoadStateRejectsBadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(garbage); err == nil {
		t.Error("garbage checkpoint loaded")
	}
	if _, err := LoadState(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing checkpoint loaded")
	}
	versioned := filepath.Join(dir, "versioned.json")
	if err := os.WriteFile(versioned, []byte(`{"format": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(versioned); err == nil {
		t.Error("future-format checkpoint loaded")
	}

	// Fingerprint mismatch: a checkpoint from seed 2 must not resume a
	// seed-3 campaign.
	path := filepath.Join(dir, "ckpt.json")
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint: path, CheckpointEvery: 5,
		Faults: faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}}),
	}
	Run(cfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Faults = nil
	if _, err := Resume(bad, st); err == nil {
		t.Error("checkpoint resumed under a different seed")
	}
	over := cfg
	over.Faults = nil
	over.Cases = 20 // same fingerprint requires same Cases; corrupt CasesDone instead
	st.CasesDone = 999
	if _, err := Resume(over, st); err == nil {
		t.Error("checkpoint with CasesDone past the budget resumed")
	}
}

// TestFingerprintMismatchIsActionable: a resume under a diverging config
// names the diverging fields (and only those), both through
// DiffFingerprints and through the Resume error message itself.
func TestFingerprintMismatchIsActionable(t *testing.T) {
	diffs := DiffFingerprints(
		"comfort-campaign/v1 fuzzer=COMFORT seed=2 cases=40 dedup=true faults=none",
		"comfort-campaign/v1 fuzzer=DIE seed=3 cases=40 dedup=true faults=seed=7,panic=5")
	want := []string{
		"fuzzer: checkpoint has COMFORT, config has DIE",
		"seed: checkpoint has 2, config has 3",
		"faults: checkpoint has none, config has seed=7,panic=5",
	}
	if len(diffs) != len(want) {
		t.Fatalf("got %d diffs %v, want %d", len(diffs), diffs, len(want))
	}
	for i := range want {
		if diffs[i] != want[i] {
			t.Errorf("diff %d = %q, want %q", i, diffs[i], want[i])
		}
	}
	if d := DiffFingerprints("a b=1", "a b=1"); d != nil {
		t.Errorf("identical fingerprints diff to %v", d)
	}

	// End to end: the Resume error names the diverging field.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint: path, CheckpointEvery: 5,
		Faults: faultinject.New(faultinject.Config{KillAtCheckpoints: []int{1}}),
	}
	Run(cfg)
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 3
	bad.Faults = nil
	_, err = Resume(bad, st)
	if err == nil {
		t.Fatal("mismatched resume succeeded")
	}
	if !strings.Contains(err.Error(), "seed: checkpoint has 2, config has 3") {
		t.Errorf("mismatch error does not name the diverging seed:\n%v", err)
	}
	if strings.Contains(err.Error(), "fuzzer:") {
		t.Errorf("mismatch error names a field that did not diverge:\n%v", err)
	}
}

// TestCheckpointIntervalUsesInjectedClock: the wall-time checkpoint axis
// ticks on the injected clock (the campaign never reads time.Now itself).
func TestCheckpointIntervalUsesInjectedClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	now := time.Unix(0, 0)
	res := Run(Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 20, Seed: 2, Workers: 2,
		Checkpoint:         path,
		CheckpointEvery:    1000, // case axis off
		CheckpointInterval: time.Minute,
		Clock: func() time.Time {
			now = now.Add(10 * time.Second) // six calls per "minute"
			return now
		},
	})
	// Periodic interval writes plus the final flush.
	if res.Checkpoints < 2 {
		t.Fatalf("interval axis produced %d checkpoint writes", res.Checkpoints)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.CasesDone != 20 {
		t.Errorf("final checkpoint: done=%v cases=%d", st.Done, st.CasesDone)
	}
}

// TestCampaignFaultInjectionIsAFinding: an injected evaluator panic inside
// a full campaign surfaces as a crash verdict and a Panics count — and
// never kills the process.
func TestCampaignFaultInjectionIsAFinding(t *testing.T) {
	mk := func() *Result {
		return Run(Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
			Cases: 30, Seed: 2, Workers: 4,
			Faults: faultinject.New(faultinject.Config{Seed: 11, PanicEvery: 5}),
		})
	}
	a := mk()
	if a.Panics == 0 {
		t.Fatal("no injected panic recovered at 1-in-5")
	}
	crashes := 0
	for v, n := range a.Verdicts {
		if v.String() == "crash" {
			crashes += n
		}
	}
	if crashes == 0 {
		t.Error("recovered panics produced no crash verdicts")
	}
	b := mk()
	requireSameAccounting(t, "fault-campaign-determinism", a, b)
	if a.Panics != b.Panics {
		t.Errorf("panic counts differ across identical runs: %d vs %d", a.Panics, b.Panics)
	}
}

// TestCancellationWithReductionAndAnalysis pins mid-campaign cancellation
// with both the reduction stage and the analyzer enabled: the partial
// result is exactly the prefix campaign's accounting (reduced witnesses
// excepted — a cancelled context stops the reducer early).
func TestCancellationWithReductionAndAnalysis(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: 100000, Seed: 2, Workers: 4,
		ReduceWitnesses: true, // reduction armed while the context dies mid-stream
		Progress: func(p Progress) {
			if p.Done == 25 {
				cancel()
			}
		},
		Context: ctx,
	}
	done := make(chan *Result, 1)
	go func() { done <- Run(cfg) }()
	var partial *Result
	select {
	case partial = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cancelled reduce+analyze campaign did not return")
	}
	if partial.CasesRun < 25 || partial.CasesRun >= 100000 {
		t.Fatalf("cancelled run accounted %d cases", partial.CasesRun)
	}
	if partial.FeatureCounts == nil {
		t.Fatal("analysis accounting missing from cancelled run")
	}
	// The accounted prefix must equal a fresh campaign over exactly that
	// budget (reduction off: cancelled reduction output is unspecified).
	fresh := Run(Config{
		Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
		Cases: partial.CasesRun, Seed: 2, Workers: 4,
	})
	requireSameAccounting(t, "cancel+reduce+analyze", fresh, partial)
}

// TestWriteCheckpointHook pins the Config.WriteCheckpoint seam the
// campaign server fences with its job lease: when set, the hook replaces
// the default WriteState call for every checkpoint write, the default
// path receives no bytes, the states it persists resume byte-identically
// — and a hook error counts as a checkpoint failure without changing
// what the campaign finds.
func TestWriteCheckpointHook(t *testing.T) {
	const cases, every = 40, 8
	base := func() Config {
		return Config{
			Fuzzer: fuzzers.NewComfort(), Testbeds: figure8Testbeds(),
			Cases: cases, Seed: 2, CheckpointEvery: every,
		}
	}
	want := Run(base())
	if want.CasesRun != cases {
		t.Fatalf("baseline ran %d cases, want %d", want.CasesRun, cases)
	}

	// Hooked run killed mid-campaign: the hook's file is the only
	// checkpoint, and resuming from it completes identically.
	dir := t.TempDir()
	defaultPath := filepath.Join(dir, "default.json")
	hookPath := filepath.Join(dir, "hook.json")
	writes := 0
	killCfg := base()
	killCfg.Checkpoint = defaultPath
	killCfg.WriteCheckpoint = func(st *State) error {
		writes++
		return WriteState(hookPath, st)
	}
	killCfg.Faults = faultinject.New(faultinject.Config{KillAtCheckpoints: []int{2}})
	killed := Run(killCfg)
	if killed.CasesRun != 2*every {
		t.Fatalf("killed run accounted %d cases, want %d", killed.CasesRun, 2*every)
	}
	if writes != 2 {
		t.Fatalf("hook saw %d writes before the kill, want 2", writes)
	}
	if _, err := os.Stat(defaultPath); !os.IsNotExist(err) {
		t.Fatalf("default checkpoint path written despite hook (err %v)", err)
	}
	st, err := LoadState(hookPath)
	if err != nil {
		t.Fatalf("hook-persisted state unreadable: %v", err)
	}
	resumeCfg := base()
	resumeCfg.Checkpoint = defaultPath
	resumeCfg.WriteCheckpoint = func(s *State) error { return WriteState(hookPath, s) }
	resumed, err := Resume(resumeCfg, st)
	if err != nil {
		t.Fatalf("resume from hook state: %v", err)
	}
	requireSameAccounting(t, "hooked kill+resume", want, resumed)

	// A hook that always fails: checkpoint failures are counted, the
	// campaign still completes, and the accounting is untouched — the
	// hook shapes where state lands, never what the campaign finds.
	failCfg := base()
	failCfg.WriteCheckpoint = func(*State) error { return fmt.Errorf("fenced") }
	failed := Run(failCfg)
	if failed.CheckpointFailures == 0 {
		t.Fatal("failing hook not accounted as checkpoint failures")
	}
	if failed.Checkpoints != 0 {
		t.Fatalf("failing hook counted %d successful checkpoints", failed.Checkpoints)
	}
	requireSameAccounting(t, "failing hook", want, failed)
}

// compatSrcs is the six-case stream behind compatCheckpoint.
var compatSrcs = []string{
	`print("Name: Albert".substr(6, undefined));`,
	`let a = 1; let a = 2;`,
	`var o = {x: 1}, s = 0; for (var i = 0; i < 5000; i++) s += o.x; print(s);`,
	`print(1 + 1);`,
	`null.x;`,
	`print("ab".repeat(2));`,
}

// compatConfig is the campaign compatCheckpoint belongs to: compatSrcs on
// three testbeds, with injected panics and hangs, on one worker so the
// parse-cache counters are deterministic.
func compatConfig() Config {
	var tbs []engines.Testbed
	for _, s := range [][2]string{{"Rhino", "v1.7.12"}, {"V8", "d891c59"}, {"QuickJS", "1722758"}} {
		v, _ := engines.FindVersion(s[0], s[1])
		tbs = append(tbs, engines.Testbed{Version: v})
	}
	return Config{
		Fuzzer: &fixedFuzzer{srcs: compatSrcs}, Testbeds: tbs, Cases: len(compatSrcs),
		Seed: 2, Workers: 1,
		Faults: faultinject.New(faultinject.Config{Seed: 5, PanicEvery: 2, SlowEvery: 3}),
	}
}

// compatCheckpoint was written by WriteState while State still declared
// the scheduler counters as its own fields, before it embedded exec.Stats:
// compatConfig killed at its first checkpoint, three cases in (Workers 1,
// CheckpointEvery 3). Every counter but fallback and the checkpoint
// counts is non-zero.
const compatCheckpoint = `{
 "format": 1,
 "fingerprint": "comfort-campaign/v1 fuzzer=fixed seed=2 cases=6 fuel=200000 testbeds=Rhino/v1.7.12@d4021ee#normal,V8/V8.5@d891c59#normal,QuickJS/2020-04-12@1722758#normal dedup=true faults=seed=5,panic=2,slow=3,probes=2",
 "cases_done": 3,
 "next_batch": -1,
 "next_off": 0,
 "done": false,
 "executed": 9,
 "verdicts": {
  "crash": 1,
  "invalid": 1,
  "timeout": 1
 },
 "duplicates_filtered": 0,
 "unattributed_findings": 2,
 "early_error_cases": 1,
 "flagged_nondet": 0,
 "feature_counts": {
  "call": 2,
  "for": 1,
  "let": 1,
  "member": 2,
  "number": 3,
  "object": 1,
  "string": 1,
  "update": 1,
  "var": 1
 },
 "feature_bits": 10685878632579,
 "dedup": {
  "root": {
   "QuickJS": {
    "substr": {
     "panic": true
    }
   },
   "V8": {
    "None": {
     "timeout": true
    }
   }
  },
  "leaves": 2,
  "hits": 0
 },
 "found": [],
 "suppressed": [],
 "cache_hits": 7,
 "cache_misses": 12,
 "cache_evictions": 0,
 "compiled": 13,
 "fallback": 0,
 "ic_hits": 14465,
 "ic_misses": 8,
 "ic_mega": 0,
 "analyzed": 15,
 "early_error_skips": 2,
 "panics": 2,
 "wall_timeouts": 1,
 "checkpoints": 0,
 "checkpoint_failures": 0
}
`

// TestCheckpointCompatibility pins the checkpoint encoding across the
// counter embedding, so checkpoints already sitting in comfortd stores
// still resume: the literal loads into the embedded counters, re-encodes
// to the same bytes (same JSON key set and order), and its resume carries
// the literal's counter totals plus the resumed run's own counts.
func TestCheckpointCompatibility(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := os.WriteFile(path, []byte(compatCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() *State {
		t.Helper()
		st, err := LoadState(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := load()
	want := exec.Stats{
		CacheHits: 7, CacheMisses: 12, Compiled: 13, ICHits: 14465, ICMisses: 8,
		Analyzed: 15, EarlyErrorSkips: 2, Panics: 2, WallTimeouts: 1,
	}
	if st.Stats != want {
		t.Fatalf("loaded counters = %+v, want %+v", st.Stats, want)
	}

	rewrite := filepath.Join(dir, "rewrite.json")
	if err := WriteState(rewrite, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != compatCheckpoint {
		t.Errorf("re-encoded checkpoint differs from the one WriteState wrote before:\n%s", data)
	}

	res, err := Resume(compatConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	if res.CasesRun != len(compatSrcs) {
		t.Fatalf("resumed run accounted %d cases, want %d", res.CasesRun, len(compatSrcs))
	}
	// The resumed run's own counts: the same resume from a zero baseline.
	zero := load()
	zero.Stats = exec.Stats{}
	own, err := Resume(compatConfig(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if own.Stats == (exec.Stats{}) {
		t.Fatal("resumed run counted nothing")
	}
	if got := want.Add(own.Stats); res.Stats != got {
		t.Errorf("resumed counters = %+v, want checkpoint + resumed run = %+v", res.Stats, got)
	}
}

// TestEncodeMatchesCompatCheckpoint: the record encoding every persisted
// file shares reproduces the pinned pre-refactor checkpoint bytes.
func TestEncodeMatchesCompatCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, []byte(compatCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := atomicfile.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != compatCheckpoint {
		t.Errorf("atomicfile.Encode differs from the pinned checkpoint:\n%s", data)
	}
}
