// Package campaign orchestrates fuzzing runs: a worker pool executes
// differential tests across testbeds, findings are deduplicated with the
// Figure-6 tree, reduced, and attributed to ground-truth catalog defects;
// report generators then regenerate every table and figure of the paper's
// evaluation.
package campaign

import (
	"context"
	"sort"
	"time"

	"comfort/internal/dedup"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
	"comfort/internal/js/analyze"
	"comfort/internal/reduce"
	"comfort/internal/spec"
)

// Config parameterises one fuzzing campaign.
type Config struct {
	Fuzzer   fuzzers.Fuzzer
	Testbeds []engines.Testbed
	// Cases is the number of test cases to execute (the scaled stand-in for
	// the paper's wall-clock budgets).
	Cases   int
	Fuel    int64
	Seed    int64
	Workers int
	// GenShards is the number of concurrent generator shards for fuzzers
	// implementing fuzzers.Forkable; 0 picks a default (min(4, GOMAXPROCS)).
	// The case stream is byte-identical for every shard count — shard s
	// owns batch indices j ≡ s (mod GenShards) and every batch's RNG is
	// derived from (Seed, j) alone — so this is purely a throughput knob.
	// Fuzzers without Fork generate serially regardless.
	GenShards int
	// ReduceWitnesses runs test-case reduction on each deduplicated
	// finding's witness after the campaign stream completes (off the hot
	// accounting path). Reduction uses the parallel ddmin subsystem with
	// this config's Workers; the reduced witnesses are byte-identical for
	// every worker count.
	ReduceWitnesses bool
	// DisableDedup turns the Figure-6 filter off (ablation).
	DisableDedup bool
	// Context cancels the campaign early; Run returns the findings
	// accounted so far. Nil means context.Background().
	Context context.Context
	// Progress, when non-nil, is called from the accounting goroutine after
	// each ProgressEvery-th case is classified and accounted (and always on
	// the final case of the budget).
	Progress func(Progress)
	// ProgressEvery throttles the Progress callback — and the per-sample
	// scheduler cache-counter reads behind it — to every N-th classified
	// case. 0 means 1 (every case), preserving the historical behaviour;
	// large campaigns set it higher so accounting stops paying the
	// callback on the hot path.
	ProgressEvery int
	// Checkpoint, when non-empty, is the path the sink periodically (and
	// finally) persists the campaign's accounted state to, atomically —
	// see state.go. A killed campaign resumes from it via Resume with
	// findings byte-identical to an uninterrupted run.
	Checkpoint string
	// CheckpointEvery is the case cadence of checkpoint writes; 0 means
	// 256. Writes happen on the sink goroutine between cases, never
	// concurrently with accounting.
	CheckpointEvery int
	// WriteCheckpoint, when non-nil, replaces the default atomic
	// WriteState(Checkpoint, st) call for every checkpoint write. It is
	// the seam the campaign server uses to fence checkpoint writes with
	// its job lease: a server instance that lost its claim must refuse
	// the write instead of overwriting a peer's checkpoint. The function
	// owns durability; a returned error counts as a checkpoint failure
	// exactly like a failed WriteState. Like Checkpoint itself it shapes
	// where state lands, never what the campaign finds, so it stays
	// outside the checkpoint fingerprint.
	WriteCheckpoint func(*State) error
	// CheckpointInterval additionally checkpoints when this much wall time
	// has passed since the last write (requires Clock; 0 disables the
	// time axis).
	CheckpointInterval time.Duration
	// CaseDeadline arms a per-execution wall-clock watchdog in the
	// scheduler (requires Clock; 0 disables). A hung case surfaces as a
	// classified timeout finding instead of stalling a worker forever.
	CaseDeadline time.Duration
	// Clock supplies wall time for CheckpointInterval and CaseDeadline.
	// The campaign never calls time.Now itself — deterministic callers
	// leave Clock nil and stay clock-free; cmd/comfort injects time.Now.
	Clock func() time.Time
	// Faults is the deterministic fault-injection plan (nil in
	// production): injected evaluator panics, injected hangs, and
	// kill-after-checkpoint points for the crash-recovery oracle tests.
	Faults *faultinject.Plan
	// Gate, when non-nil, is a process-wide execution-slot pool shared by
	// several concurrent campaigns (the campaign server's shared worker
	// pool). Like Workers and GenShards it shapes scheduling only — the
	// findings are byte-identical with and without a gate — so it stays
	// outside the checkpoint fingerprint.
	Gate exec.Gate
	// resume carries the validated checkpoint a Resume call continues
	// from; nil for fresh runs.
	resume *State
}

// Counters are a campaign's diagnostic counters, declared once for
// Progress, Result and State. They describe physical work done, which
// resume legitimately changes (a resumed run re-parses its working set,
// say), so they are cumulative across resumes but outside the determinism
// contract.
type Counters struct {
	// Stats are the scheduler's counters. Its run counters count physical
	// runs: a probe-group probe or a class run that could not take the
	// probe's result (see internal/exec); results fanned out to other
	// classes or testbeds are not counted again. Fallback stays at zero;
	// a non-zero value is visible at a glance in -progress output.
	exec.Stats
	// Checkpoints/CheckpointFailures count checkpoint writes and failed
	// write attempts (a failed write never stops the campaign).
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
}

// Progress is one campaign progress sample: case accounting position plus
// the campaign's counters so far.
type Progress struct {
	// Done counts classified cases; Total is the configured budget.
	Done, Total int
	Counters
	// FlaggedNondet counts attributed findings diverted to the
	// suppressed-nondeterministic set so far.
	FlaggedNondet int64
	// FeaturesSeen is the number of distinct language features the
	// campaign's cases have exercised so far (of analyze.FeatureCount).
	FeaturesSeen int
}

// Finding is one unique discovered bug, attributed to its seeded defect.
type Finding struct {
	Defect   *Defect
	TestCase string
	Reduced  string
	Verdict  difftest.Verdict
	Engine   string
	// Features is the witness's language-feature fingerprint (analyzer
	// feature names).
	Features []string
	// Flags lists the divergence-risk rules that fired on the witness.
	// Non-empty flags mean the finding lives in Result.SuppressedNondet
	// rather than Result.Found.
	Flags []string
	// strict records the mode of the deviant testbed, so the reduction
	// predicate replays the same divergence that was reported.
	strict bool
}

// ReductionStats summarises witness reduction across a campaign's
// findings (set when Config.ReduceWitnesses is on and anything was found).
type ReductionStats struct {
	Findings     int
	OrigBytes    int
	ReducedBytes int
	// Min/Median/Mean are over the per-finding reduced witness sizes.
	MinBytes    int
	MedianBytes float64
	MeanBytes   float64
}

// Defect aliases the engines type for the public API surface.
type Defect = engines.Defect

// Result summarises a campaign.
type Result struct {
	FuzzerName string
	CasesRun   int
	// Executed counts delivered testbed results — the (case × testbed)
	// grid. The scheduler's behaviour classes and probe groups satisfy
	// many testbeds with one physical interpreter run (see internal/exec),
	// so this measures differential-testing coverage, not interpreter
	// invocations; Compiled+Fallback counts those.
	Executed int
	Verdicts map[difftest.Verdict]int
	// Found maps defect ID → finding for every ground-truth defect the
	// campaign discovered.
	Found map[string]*Finding
	// DuplicatesFiltered counts test cases the dedup tree rejected.
	DuplicatesFiltered int
	// UnattributedFindings counts divergences that matched no single seeded
	// defect in isolation (interaction effects).
	UnattributedFindings int
	// SuppressedNondet maps defect ID → finding for divergences whose
	// witness carried a divergence-risk flag (Math.random, for-in order,
	// ...): real deviations, but suppressible false positives per the
	// paper's filtering step. Disjoint from Found.
	SuppressedNondet map[string]*Finding
	// EarlyErrorCases counts cases rejected uniformly by the static
	// early-error gate (a subset of the invalid verdict count) — each one
	// classified without a single interpreter run.
	EarlyErrorCases int
	// FlaggedNondet counts the findings in SuppressedNondet.
	FlaggedNondet int64
	// FeatureCounts maps analyzer feature name → number of cases whose
	// fingerprint carried it; FeaturesSeen is the distinct feature count.
	FeatureCounts map[string]int
	FeaturesSeen  int
	// Reduction summarises witness reduction (nil unless
	// Config.ReduceWitnesses was set and findings exist).
	Reduction *ReductionStats
	// Counters are the final counters. A recovered evaluator panic
	// surfaces as a classified crash result, never a dead process.
	Counters
}

// FoundDefects returns the discovered defects in defect-ID order.
func (r *Result) FoundDefects() []*Defect {
	ids := make([]string, 0, len(r.Found))
	for id := range r.Found { //detlint:order — sorted before use below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Defect, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.Found[id].Defect)
	}
	return out
}

// Run executes the campaign as a streaming pipeline: a fuzzer stage
// generates cases sequentially (the RNG is the determinism anchor), the
// exec scheduler runs the (case × testbed) grid over a bounded worker pool
// with a parse-once cache, and this goroutine — the sink — classifies,
// deduplicates and attributes findings as outcomes stream in. Outcomes
// arrive in case order and all accounting is single-threaded, so the
// result is independent of the worker count. Findings are accounted
// incrementally: memory stays bounded by the scheduler's in-flight window
// rather than the campaign's case budget.
func Run(cfg Config) *Result {
	// The error path is only reachable with a resume checkpoint, which
	// Resume validates before calling run.
	res, _ := run(withDefaults(cfg))
	return res
}

// withDefaults resolves the config's zero-value knobs. Both entry points
// (Run, Resume) apply it exactly once, before fingerprinting.
func withDefaults(cfg Config) Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = difftest.DefaultFuel
	}
	if len(cfg.Testbeds) == 0 {
		cfg.Testbeds = engines.LatestTestbeds()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 256
	}
	return cfg
}

// run is the shared campaign body behind Run and Resume; cfg has defaults
// applied. The only error source is a corrupt resume checkpoint.
func run(cfg Config) (*Result, error) {
	baseCtx := cfg.Context
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	// The campaign's own cancel handle: a simulated checkpoint kill stops
	// the pipeline without touching the caller's context.
	ctx, cancel := context.WithCancel(baseCtx)
	defer cancel()
	res := &Result{
		FuzzerName:       cfg.Fuzzer.Name(),
		Verdicts:         map[difftest.Verdict]int{},
		Found:            map[string]*Finding{},
		SuppressedNondet: map[string]*Finding{},
		FeatureCounts:    map[string]int{},
	}
	tree := dedup.New(dedup.KnownAPIsFromSpec(spec.Default().Names()))

	// Resume: load the killed run's accounted state and position the
	// generator at the first unaccounted case. base carries the killed
	// run's counters so totals stay cumulative.
	var base State
	var start genStart
	var featsSeen analyze.Features
	if cfg.resume != nil {
		base = *cfg.resume
		bits, err := restoreInto(cfg.resume, res, tree)
		if err != nil {
			return nil, err
		}
		featsSeen = analyze.Features(bits)
		start = genStart{batch: base.NextBatch, off: base.NextOff, index: base.CasesDone}
		if base.Done || base.CasesDone >= cfg.Cases {
			// Nothing left to run: reconstruct the final result.
			res.Counters = base.Counters
			res.FeaturesSeen = featsSeen.Count()
			return res, nil
		}
	}

	// Stage 1: the fuzzer. The stream depends only on the seed — Forkable
	// fuzzers generate as GenShards concurrent shards whose batches are
	// pure functions of (seed, batch index) and merge back in index order,
	// stateful fuzzers keep the single sequential RNG — so the stream is
	// reproducible regardless of shard count and downstream scheduling
	// (see generate.go).
	shards := cfg.GenShards
	if shards <= 0 {
		shards = defaultGenShards()
	}
	caseCh := make(chan exec.Case)
	go generateCases(ctx, cfg, shards, start, caseCh)

	// Stage 2: the scheduler.
	sched := exec.New(exec.Config{
		Testbeds:     cfg.Testbeds,
		Workers:      cfg.Workers,
		Fuel:         cfg.Fuel,
		Seed:         cfg.Seed,
		CaseDeadline: cfg.CaseDeadline,
		Clock:        cfg.Clock,
		Faults:       cfg.Faults,
		Gate:         cfg.Gate,
	})
	outcomes := sched.Run(ctx, caseCh)
	// ckptWrites/ckptFails count this process's checkpoint writes (kill
	// ordinals count these); totals is the one place the resume baseline
	// meets this process's counts.
	var ckptWrites, ckptFails int64
	totals := func() Counters {
		c := base.Counters
		c.Stats = c.Stats.Add(sched.Stats())
		c.Checkpoints += ckptWrites
		c.CheckpointFailures += ckptFails
		return c
	}

	// Stage 3: the sink — classify/dedup/attribute in stream order, with
	// checkpoint writes between cases (never concurrent with accounting).
	progressEvery := cfg.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1
	}
	fp := fingerprint(cfg)
	ckpt := cfg.Checkpoint != "" || cfg.WriteCheckpoint != nil
	nextBatch, nextOff := start.batch, start.off
	sinceCkpt := 0
	var lastCkptAt time.Time
	if cfg.Clock != nil {
		lastCkptAt = cfg.Clock()
	}
	snapshot := func(done bool) *State {
		st := &State{
			Format: StateFormatVersion, Fingerprint: fp,
			CasesDone: res.CasesRun, NextBatch: nextBatch, NextOff: nextOff, Done: done,
			Executed:             res.Executed,
			Verdicts:             map[string]int{},
			DuplicatesFiltered:   res.DuplicatesFiltered,
			UnattributedFindings: res.UnattributedFindings,
			EarlyErrorCases:      res.EarlyErrorCases,
			FlaggedNondet:        res.FlaggedNondet,
			FeatureBits:          uint64(featsSeen),
			Dedup:                tree.Snapshot(),
			Found:                saveFindings(res.Found),
			Suppressed:           saveFindings(res.SuppressedNondet),
		}
		for v, n := range res.Verdicts { //detlint:order — string-keyed map output (JSON-sorted)
			st.Verdicts[v.String()] = n
		}
		st.FeatureCounts = map[string]int{}
		for name, n := range res.FeatureCounts { //detlint:order — string-keyed map output (JSON-sorted)
			st.FeatureCounts[name] = n
		}
		st.Counters = totals()
		return st
	}
	writeCkpt := func(done bool) {
		st := snapshot(done)
		var err error
		if cfg.WriteCheckpoint != nil {
			err = cfg.WriteCheckpoint(st)
		} else {
			err = WriteState(cfg.Checkpoint, st)
		}
		if err != nil {
			ckptFails++
		} else {
			ckptWrites++
		}
		sinceCkpt = 0
		if cfg.Clock != nil {
			lastCkptAt = cfg.Clock()
		}
	}
	killed := false
	for oc := range outcomes {
		res.CasesRun++
		res.Executed += len(cfg.Testbeds)
		if oc.Batch < 0 {
			nextBatch, nextOff = -1, 0
		} else {
			nextBatch, nextOff = oc.Batch, oc.Off+1
		}
		cr := oc.Result
		res.Verdicts[cr.Verdict]++
		if cr.EarlyError {
			res.EarlyErrorCases++
		}
		if oc.Analysis != nil {
			featsSeen |= oc.Analysis.Features
			for _, name := range oc.Analysis.Features.Names() {
				res.FeatureCounts[name]++
			}
		}
		if cr.Verdict.IsBuggy() {
			accountCase(cfg, res, tree, oc.Src, cr, oc.Analysis)
		}
		if cfg.Progress != nil && (res.CasesRun%progressEvery == 0 || res.CasesRun == cfg.Cases) {
			cfg.Progress(Progress{
				Done: res.CasesRun, Total: cfg.Cases,
				Counters:      totals(),
				FlaggedNondet: res.FlaggedNondet,
				FeaturesSeen:  featsSeen.Count(),
			})
		}
		if ckpt && res.CasesRun < cfg.Cases {
			sinceCkpt++
			due := sinceCkpt >= cfg.CheckpointEvery
			if !due && cfg.CheckpointInterval > 0 && cfg.Clock != nil &&
				cfg.Clock().Sub(lastCkptAt) >= cfg.CheckpointInterval {
				due = true
			}
			if due {
				writeCkpt(false)
				if cfg.Faults.KillAtCheckpoint(int(ckptWrites)) {
					// Simulate the process dying right after the write: no
					// final flush, no reduction, pipeline torn down. The CLI
					// installs a real os.Exit in Faults.Kill for soak runs.
					if cfg.Faults.Kill != nil {
						cfg.Faults.Kill()
					}
					killed = true
					cancel()
					break
				}
			}
		}
	}
	if killed {
		for range outcomes { // drain so the scheduler's goroutines exit
		}
	} else {
		// Stage 4 (optional): witness reduction, after the stream has
		// drained and dedup/attribution settled — never on the hot
		// accounting path.
		if cfg.ReduceWitnesses {
			reduceFindings(ctx, cfg, res)
		}
		// Final flush — also on cancellation, so a gracefully-stopped
		// partial campaign resumes from exactly where it was interrupted.
		// Runs after reduction so a complete checkpoint carries the
		// reduced witnesses.
		if ckpt {
			writeCkpt(res.CasesRun == cfg.Cases)
		}
	}
	res.Counters = totals()
	res.FeaturesSeen = featsSeen.Count()
	return res, nil
}

// reduceFindings shrinks every finding's witness with the parallel ddmin
// reducer. Findings are processed in defect-ID order and the reducer is
// worker-count independent, so the reduced witnesses are deterministic.
func reduceFindings(ctx context.Context, cfg Config, res *Result) {
	ids := make([]string, 0, len(res.Found))
	for id := range res.Found { //detlint:order — sorted before use below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sizes []int
	stats := &ReductionStats{}
	for _, id := range ids {
		f := res.Found[id]
		f.Reduced = reduceFinding(ctx, f, cfg)
		stats.Findings++
		stats.OrigBytes += len(f.TestCase)
		stats.ReducedBytes += len(f.Reduced)
		sizes = append(sizes, len(f.Reduced))
	}
	if stats.Findings == 0 {
		return
	}
	sort.Ints(sizes)
	stats.MinBytes = sizes[0]
	if n := len(sizes); n%2 == 1 {
		stats.MedianBytes = float64(sizes[n/2])
	} else {
		stats.MedianBytes = float64(sizes[n/2-1]+sizes[n/2]) / 2
	}
	stats.MeanBytes = float64(stats.ReducedBytes) / float64(stats.Findings)
	res.Reduction = stats
}

// reduceFinding shrinks a bug-exposing test case while the single-defect
// divergence persists. The defect and reference executors are prepared
// once; the predicate then costs two interpretations per candidate (one
// compiled candidate shared between them when parser options coincide),
// which the reducer evaluates speculatively in parallel.
func reduceFinding(ctx context.Context, f *Finding, cfg Config) string {
	opts := engines.RunOptions{Fuel: cfg.Fuel, Seed: cfg.Seed}
	buggy := engines.NewDefectRunner(f.Defect, f.strict)
	ref := engines.NewDefectRunner(nil, f.strict)
	return reduce.Parallel(f.TestCase, engines.Diverges(buggy, ref, opts),
		reduce.Options{Workers: cfg.Workers, Context: ctx})
}

// accountCase folds one buggy case into the campaign result: Figure-6
// deduplication, then ground-truth attribution of each deviant testbed.
// When the witness's static analysis carries divergence-risk flags
// (rep.Flags), dedup and attribution still run exactly as for a nil
// report — only the final Found insertion is diverted to
// SuppressedNondet. The seen-guard consults both maps, so a later
// unflagged witness never re-adds a suppressed defect.
func accountCase(cfg Config, res *Result, tree *dedup.Tree, src string, cr difftest.CaseResult, rep *analyze.Report) {
	var flags, feats []string
	if rep != nil {
		flags = rep.Flags.Names()
		feats = rep.Features.Names()
	}
	api := tree.APIOf(src)
	for _, dev := range cr.Deviations {
		engine := dev.Testbed.Version.Engine
		class := dedup.BehaviourClass(dev.Result.Outcome.String(), dev.Result.ErrName, dev.Result.Output)
		if !cfg.DisableDedup && tree.SeenOrAdd(engine, api, class) {
			res.DuplicatesFiltered++
			continue
		}
		attributed := engines.Attribute(src, dev.Testbed,
			engines.RunOptions{Fuel: cfg.Fuel, Seed: cfg.Seed})
		if len(attributed) == 0 {
			res.UnattributedFindings++
			continue
		}
		for _, d := range attributed {
			if _, seen := res.Found[d.ID]; seen {
				continue
			}
			if _, seen := res.SuppressedNondet[d.ID]; seen {
				continue
			}
			f := &Finding{
				Defect: d, TestCase: src, Verdict: cr.Verdict,
				Engine: engine, Features: feats, Flags: flags,
				strict: dev.Testbed.Strict,
			}
			if len(flags) > 0 {
				res.SuppressedNondet[d.ID] = f
				res.FlaggedNondet++
			} else {
				res.Found[d.ID] = f
			}
		}
	}
}
