// Package exec is the execution scheduler for differential-testing
// campaigns. It schedules the (case × testbed) grid over a bounded worker
// pool, shares parses through a campaign-wide parse-once cache (keyed by
// source + parser-option fingerprint), honours context cancellation, and
// streams classified case results to the consumer in case order — so a
// campaign can account findings as they arrive instead of materialising
// every case and every result in memory first.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
)

// Case is one fuzzer-generated test program, tagged with its position in
// the campaign's deterministic generation order. Batch/Off locate the case
// in the generator's batch structure (batch number and offset within it)
// so a checkpoint can record an exact generator restart position; serial
// generators stamp Batch = -1 and resume by index instead.
type Case struct {
	Index int
	Src   string
	Batch int
	Off   int
}

// Outcome is the classified result of one case across all testbeds.
// Entries are in testbed order (the scheduler's configured order), so the
// outcome is independent of worker interleaving.
type Outcome struct {
	Case
	Entries []difftest.ExecEntry
	Result  difftest.CaseResult
	// Analysis is the case's static-semantics report (divergence-risk
	// flags, feature fingerprint), shared from the parse cache. Nil only
	// when the case failed to parse.
	Analysis *analyze.Report
}

// Config parameterises a scheduler.
type Config struct {
	Testbeds []engines.Testbed
	// Workers bounds concurrent testbed executions; <=0 means GOMAXPROCS.
	Workers int
	Fuel    int64
	Seed    int64
	// ParseCacheCap bounds the compiled-program cache's entry count; <=0
	// means the default (4096). Eviction is generational: when the young
	// generation fills, the old generation is dropped and the young one
	// ages — entries touched within the last generation survive, so a long
	// campaign never re-parses its entire live working set at once.
	ParseCacheCap int
	// CaseDeadline, when positive, arms a wall-clock watchdog on every
	// physical execution: the interpreter probes Clock at its fuel-charge
	// site and aborts with a classified timeout once the deadline passes.
	// This is a robustness guard against pathological cases, not part of
	// the deterministic oracle — a firing deadline depends on machine
	// speed, which is why the deterministic fuel budget remains the
	// primary timeout axis and the deadline defaults to off.
	CaseDeadline time.Duration
	// Clock supplies wall time for CaseDeadline (the scheduler never calls
	// time.Now itself — determinism-sensitive callers inject nothing and
	// stay clock-free). Required when CaseDeadline > 0.
	Clock func() time.Time
	// Faults is the deterministic fault-injection plan, nil in production.
	// An injected fault targets exactly one behaviour class of its case so
	// the faulted execution deviates from the healthy majority and
	// surfaces as a finding.
	Faults *faultinject.Plan
	// Gate, when non-nil, is a shared execution-slot pool acquired around
	// every physical run — several schedulers in one process (the campaign
	// server's shared worker pool) bound their combined parallelism with
	// one Gate. Gating changes scheduling only, never outcomes: see
	// gate.go.
	Gate Gate
}

// Scheduler executes cases over prepared testbeds. One Scheduler is one
// campaign's worth of shared state (prepared testbeds, behaviour classes,
// parse cache); Run may be called once per input stream.
type Scheduler struct {
	cfg      Config
	prepared []*engines.PreparedTestbed
	// classes groups testbed indices by behaviour equivalence class: an
	// ExecResult is a pure function of (defect set, mode, fuel, seed, src),
	// so each class executes once per case and the result fans out to every
	// member. classRep[k] is the prepared testbed the class executes on.
	classes  [][]int
	classRep []*engines.PreparedTestbed
	cache    *parseCache
	// compiled/fallback count physical interpreter runs by evaluator:
	// thunk-compiled programs vs tree-walked ones (parse errors count in
	// neither). Surfaced through campaign.Progress so a campaign's
	// compiled coverage — how much of it actually ran on the compiled
	// path — is observable.
	compiled atomic.Int64
	fallback atomic.Int64
	// icHit/icMiss/icMega accumulate the per-execution inline-cache
	// counters the runs report, for campaign.Progress.
	icHit  atomic.Uint64
	icMiss atomic.Uint64
	icMega atomic.Uint64
	// analyzed counts class executions that consulted the analyze-once
	// report cached on the program; earlySkips counts executions the
	// early-error gate short-circuited before any interpreter ran.
	analyzed   atomic.Int64
	earlySkips atomic.Int64
	// panics/wallTimeouts count physical executions that ended in a
	// recovered evaluator panic or a wall-clock watchdog abort — the
	// robustness layer's visible pulse, surfaced through
	// campaign.Progress.
	panics       atomic.Int64
	wallTimeouts atomic.Int64
}

// New builds a scheduler: testbeds are prepared up front (catalog scan,
// hook chain, option resolution happen here, never per execution) and
// grouped into behaviour classes.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = difftest.DefaultFuel
	}
	if len(cfg.Testbeds) == 0 {
		cfg.Testbeds = engines.LatestTestbeds()
	}
	s := &Scheduler{cfg: cfg, cache: newParseCache(cfg.ParseCacheCap)}
	classOf := map[string]int{}
	for _, tb := range cfg.Testbeds {
		p := tb.Prepare()
		i := len(s.prepared)
		s.prepared = append(s.prepared, p)
		k, ok := classOf[p.BehaviorKey()]
		if !ok {
			k = len(s.classes)
			classOf[p.BehaviorKey()] = k
			s.classes = append(s.classes, nil)
			s.classRep = append(s.classRep, p)
		}
		s.classes[k] = append(s.classes[k], i)
	}
	return s
}

// Classes reports how many distinct behaviour classes the configured
// testbeds collapse into (of interest to benchmarks and progress output).
func (s *Scheduler) Classes() int { return len(s.classes) }

// CacheStats reports compiled-program cache hits, misses and evicted
// entries so far.
func (s *Scheduler) CacheStats() (hits, misses, evictions int64) { return s.cache.stats() }

// ExecCounts reports physical interpreter runs so far by evaluator path:
// thunk-compiled vs tree-walked (the fallback — programs the compiler
// declined).
func (s *Scheduler) ExecCounts() (compiled, fallback int64) {
	return s.compiled.Load(), s.fallback.Load()
}

// ICStats reports the inline-cache hit / miss / megamorphic totals
// accumulated across all executions so far.
func (s *Scheduler) ICStats() (hit, miss, mega uint64) {
	return s.icHit.Load(), s.icMiss.Load(), s.icMega.Load()
}

// AnalyzeStats reports the analyze-once gate's activity so far: class
// executions that rode a cached report, and executions the early-error
// verdict short-circuited.
func (s *Scheduler) AnalyzeStats() (analyzed, earlySkips int64) {
	return s.analyzed.Load(), s.earlySkips.Load()
}

// FaultStats reports physical executions that ended in a recovered
// evaluator panic and in a wall-clock watchdog abort (injected or real).
func (s *Scheduler) FaultStats() (panics, wallTimeouts int64) {
	return s.panics.Load(), s.wallTimeouts.Load()
}

// caseState tracks one in-flight case across its testbed executions.
type caseState struct {
	seq       int // receipt order; outcomes are emitted in this order
	c         Case
	entries   []difftest.ExecEntry
	remaining int32
	cancelled int32 // set when any execution was skipped due to cancellation
}

type task struct {
	cs    *caseState
	class int // index into Scheduler.classes
}

// Run consumes cases from in and returns a channel of outcomes, emitted in
// the order cases were received. The channel is closed when all input has
// been processed or ctx is cancelled; cancellation never deadlocks — all
// scheduler goroutines drain and exit. The emitted outcomes are always a
// contiguous prefix of the case sequence: once cancellation drops one
// case (or pre-empts one emission), no later case is emitted either, even
// if it happened to execute fully before the workers saw the cancel.
func (s *Scheduler) Run(ctx context.Context, in <-chan Case) <-chan Outcome {
	nTB := len(s.prepared)
	nCls := len(s.classes)
	inflight := s.cfg.Workers + 2
	out := make(chan Outcome)
	tasks := make(chan task, inflight*nCls)
	done := make(chan *caseState, inflight)
	sem := make(chan struct{}, inflight)

	// Intake: admit cases under the in-flight cap and fan each one out
	// into one task per testbed.
	go func() {
		defer close(tasks)
		seq := 0
		for {
			var c Case
			var ok bool
			select {
			case <-ctx.Done():
				return
			case c, ok = <-in:
				if !ok {
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case sem <- struct{}{}:
			}
			cs := &caseState{
				seq:       seq,
				c:         c,
				entries:   make([]difftest.ExecEntry, nTB),
				remaining: int32(nCls),
			}
			seq++
			for i := 0; i < nCls; i++ {
				// tasks is buffered for inflight full cases, so this send
				// only blocks when workers are saturated.
				tasks <- task{cs: cs, class: i}
			}
		}
	}()

	// Workers: the bounded execution pool.
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if !s.acquireSlot(ctx) {
					atomic.StoreInt32(&t.cs.cancelled, 1)
				} else {
					r := s.runOne(t.class, t.cs.c)
					s.releaseSlot()
					for _, i := range s.classes[t.class] {
						t.cs.entries[i] = difftest.ExecEntry{
							Testbed: s.prepared[i].Testbed,
							Result:  r,
						}
					}
				}
				if atomic.AddInt32(&t.cs.remaining, -1) == 0 {
					// done is buffered to the in-flight cap, so this send
					// cannot block even after the collector has exited.
					done <- t.cs
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Collector: reorder completed cases into receipt order and classify.
	go func() {
		defer close(out)
		next := 0
		dropped := false
		pending := map[int]*caseState{}
		for cs := range done {
			pending[cs.seq] = cs
			for {
				c, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				<-sem
				if atomic.LoadInt32(&c.cancelled) != 0 {
					// A partially-executed case is dropped; later cases may
					// still complete (their tasks ran before cancellation
					// reached their worker), but emitting them would punch a
					// hole in the in-order stream — the emitted outcomes
					// must stay a contiguous prefix of the case sequence.
					dropped = true
				}
				if dropped {
					continue
				}
				oc := Outcome{Case: c.c, Entries: c.entries, Result: difftest.Classify(c.entries),
					Analysis: s.analysisFor(c.c.Src)}
				select {
				case out <- oc:
				case <-ctx.Done():
					// The consumer may be gone; keep draining without
					// emitting so the workers can finish. This case can win
					// even while the consumer still listens, so stop
					// emitting altogether — the prefix contract again.
					dropped = true
				}
			}
		}
	}()
	return out
}

// acquireSlot gates one physical run: a cancelled context reports false
// (the case is marked cancelled, preserving the contiguous-prefix
// contract exactly as the pre-gate cancellation check did).
func (s *Scheduler) acquireSlot(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if s.cfg.Gate == nil {
		return true
	}
	return s.cfg.Gate.Acquire(ctx) == nil
}

func (s *Scheduler) releaseSlot() {
	if s.cfg.Gate != nil {
		s.cfg.Gate.Release()
	}
}

// runOne executes one (case, behaviour class) cell through the shared
// difftest cell semantics, with the campaign-wide parse cache supplying
// compiled programs; the parse hook accounts which evaluator the
// execution runs on. Fault injection and the wall-clock watchdog are
// armed here, per physical run, so shared-class fan-out replicates the
// (deterministic) faulted result instead of re-rolling it.
func (s *Scheduler) runOne(class int, c Case) engines.ExecResult {
	p := s.classRep[class]
	opts := engines.RunOptions{Fuel: s.cfg.Fuel, Seed: s.cfg.Seed}
	if fault, sel := s.cfg.Faults.CaseFault(c.Index); fault != faultinject.FaultNone &&
		class == int(sel%uint64(len(s.classes))) {
		switch fault {
		case faultinject.FaultPanic:
			opts.InjectPanic = true
		case faultinject.FaultSlow:
			opts.Watchdog = faultinject.CountdownWatchdog(s.cfg.Faults.SlowProbes())
		}
	}
	if opts.Watchdog == nil && s.cfg.CaseDeadline > 0 && s.cfg.Clock != nil {
		start := s.cfg.Clock()
		deadline := s.cfg.CaseDeadline
		opts.Watchdog = func() bool { return s.cfg.Clock().Sub(start) > deadline }
	}
	r := difftest.RunCell(p, c.Src, s.countingParse, opts)
	if r.Panic {
		s.panics.Add(1)
	}
	if r.WallClock {
		s.wallTimeouts.Add(1)
	}
	if r.EarlyError {
		s.earlySkips.Add(1)
	}
	if r.ICHit != 0 {
		s.icHit.Add(r.ICHit)
	}
	if r.ICMiss != 0 {
		s.icMiss.Add(r.ICMiss)
	}
	if r.ICMega != 0 {
		s.icMega.Add(r.ICMega)
	}
	return r
}

// analysisFor fetches the case's static-semantics report through the
// parse cache (a hit for any case that just executed). The first class
// representative is the deterministic choice of parse fingerprint, so
// the report a sink sees never depends on worker interleaving.
func (s *Scheduler) analysisFor(src string) *analyze.Report {
	prog, err := s.cache.parse(s.classRep[0], src)
	if err != nil {
		return nil
	}
	return analyze.Of(prog)
}

// countingParse wraps the cache parse with the compiled/fallback
// execution counters (parse errors count in neither, and neither do
// programs the early-error gate stops before an evaluator runs).
func (s *Scheduler) countingParse(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
	prog, err := s.cache.parse(p, src)
	if err == nil {
		s.analyzed.Add(1)
		if analyze.Of(prog).Invalid() {
			return prog, err
		}
		if prog.Compiled != nil {
			s.compiled.Add(1)
		} else {
			s.fallback.Add(1)
		}
	}
	return prog, err
}

// FromSlice adapts a fixed case list to the scheduler's input channel,
// indexing cases by position.
func FromSlice(ctx context.Context, srcs []string) <-chan Case {
	ch := make(chan Case)
	go func() {
		defer close(ch)
		for i, src := range srcs {
			select {
			case <-ctx.Done():
				return
			case ch <- Case{Index: i, Src: src, Batch: -1, Off: i}:
			}
		}
	}()
	return ch
}

// ---------- compiled-program (parse-and-resolve-once) cache ----------

type parseKey struct {
	fp  uint64
	src string
}

type parsedResult struct {
	prog *ast.Program
	err  error
}

// parseCache shares compiled programs — parsed and scope-resolved ASTs —
// between the testbeds (and cases) whose resolved parser options coincide.
// Sharing the *ast.Program across concurrent interpreter runs is safe
// because execution never mutates the tree; the resolve pass runs exactly
// once, before the program is published.
//
// Eviction is generational: entries are inserted into a young generation,
// and when it reaches half the configured cap the old generation's entries
// are discarded while the young generation ages in their place. A hit in
// the old generation promotes the entry back to young. Total residency
// stays bounded by cap, but — unlike the previous wholesale reset — the
// working set a long campaign touched within the last generation survives
// every eviction, so the scheduler never stalls re-parsing everything at
// once.
type parseCache struct {
	mu        sync.RWMutex
	young     map[parseKey]parsedResult
	old       map[parseKey]parsedResult
	genCap    int
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const defaultParseCacheCap = 4096

func newParseCache(cap int) *parseCache {
	if cap <= 0 {
		cap = defaultParseCacheCap
	}
	genCap := cap / 2
	if genCap < 1 {
		genCap = 1
	}
	return &parseCache{
		young:  make(map[parseKey]parsedResult),
		old:    make(map[parseKey]parsedResult),
		genCap: genCap,
	}
}

func (pc *parseCache) parse(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
	key := parseKey{fp: p.ParseFingerprint(), src: src}
	pc.mu.RLock()
	r, inYoung := pc.young[key]
	ok := inYoung
	if !ok {
		r, ok = pc.old[key]
	}
	pc.mu.RUnlock()
	if ok {
		pc.hits.Add(1)
		if !inYoung {
			// Old-generation hit: promote so the entry survives the next
			// rotation, and remove the aged copy so it is not counted as
			// an eviction later. The write lock is brief and only taken
			// while the working set re-warms after a rotation.
			pc.mu.Lock()
			if _, dup := pc.young[key]; !dup {
				delete(pc.old, key)
				pc.insertLocked(key, r)
			}
			pc.mu.Unlock()
		}
		return r.prog, r.err
	}
	pc.misses.Add(1)
	// The full pipeline: parse, resolve, thunk-compile, analyze. The cache
	// entry stores the thunks and the report next to the scope
	// annotations under the same parser-option fingerprint key.
	r.prog, r.err = p.Parse(src)
	pc.mu.Lock()
	pc.insertLocked(key, r)
	pc.mu.Unlock()
	return r.prog, r.err
}

// insertLocked adds an entry to the young generation, rotating the
// generations when young is full. Callers hold mu.
func (pc *parseCache) insertLocked(key parseKey, r parsedResult) {
	if len(pc.young) >= pc.genCap {
		pc.evictions.Add(int64(len(pc.old)))
		pc.old = pc.young
		pc.young = make(map[parseKey]parsedResult, pc.genCap)
	}
	pc.young[key] = r
}

func (pc *parseCache) stats() (hits, misses, evictions int64) {
	return pc.hits.Load(), pc.misses.Load(), pc.evictions.Load()
}
