// Package exec is the execution scheduler for differential-testing
// campaigns. It schedules the (case × testbed) grid over a bounded worker
// pool — one task per (case, mode), where one parse under the mode's base
// parser options and one probe run stand in for every behaviour class
// whose defect hooks never matched and whose config deltas were never
// consulted — shares parses through a campaign-wide parse-once cache
// (keyed by source + parser-option fingerprint), honours context
// cancellation, and streams classified case results to the consumer in
// case order — so a campaign can account findings as they arrive instead
// of materialising every case and every result in memory first. Execute
// runs the same fan-out for a single case in the caller's goroutine.
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

// Outcome is the classified result of one case across all testbeds. It
// holds each physical result once, weighted by the testbeds that took it;
// Entries expands it per testbed.
type Outcome struct {
	Case
	Result difftest.CaseResult
	// Analysis is the case's static-semantics report (divergence-risk
	// flags, feature fingerprint), shared from the parse cache. Nil only
	// when the case failed to parse.
	Analysis *analyze.Report
	s        *Scheduler
	cs       *caseState
}

// Entries expands the outcome to one entry per configured testbed, in
// testbed order, each carrying its behaviour class's result — so the
// expansion is independent of worker interleaving. Classification never
// needs it.
func (o Outcome) Entries() []difftest.ExecEntry {
	entries := make([]difftest.ExecEntry, len(o.s.prepared))
	for i, p := range o.s.prepared {
		k := o.s.classOf[i]
		entries[i] = difftest.ExecEntry{Testbed: p.Testbed, Result: o.cs.results[o.s.groupOf[k]][o.cs.slot[k]].Result}
	}
	return entries
}

// Config parameterises a scheduler.
type Config struct {
	Testbeds []engines.Testbed
	// Workers bounds concurrent testbed executions; <=0 means GOMAXPROCS.
	Workers int
	Fuel    int64
	Seed    int64
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
	// surfaces as a finding; the faulted class always runs physically,
	// never from its group's probe.
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
// probe groups, parse cache); Run may be called once per input stream.
//
// Every counter below counts physical executions: probe runs plus the
// class runs that could not take their result from a probe. A result
// fanned out from a probe (or from a class run to its class members)
// counts once, where it was computed.
type Scheduler struct {
	cfg      Config
	prepared []*engines.PreparedTestbed
	// classes groups testbed indices by behaviour equivalence class: an
	// ExecResult is a pure function of (defect set, mode, fuel, seed, src),
	// so each class executes at most once per case and the result fans out
	// to every member. classRep[k] is the prepared testbed the class
	// executes on; classOf maps each testbed index to its class.
	classes  [][]int
	classRep []*engines.PreparedTestbed
	classOf  []int
	// groups partitions the classes by mode (Testbed.Strict), in order of
	// first appearance: the scheduler's unit of work is one (case, group)
	// task, and each group is one of the classifier's mode pools. groupOf
	// maps each class to its group.
	groups  []probeGroup
	groupOf []int
	cache   *parseCache
	// The run counters behind Stats (see there for their meaning).
	compiled, fallback   atomic.Int64
	analyzed, earlySkips atomic.Int64
	panics, wallTimeouts atomic.Int64
}

// probeGroup is the set of behaviour classes of one mode. A multi-class
// group parses each case once under the mode's base parser options, runs
// one probe over that program and fans its result out to every class
// that takes the base parse and that the probe never consulted (see
// runGroup); only the others run physically. A one-class group has no
// probe: its class always runs physically.
type probeGroup struct {
	classes []int                    // class indices, ascending
	base    *engines.PreparedTestbed // the mode's reference: base parser options and config
	probe   *engines.Probe           // nil for a one-class group; member m is classes[m]
	members []difftest.Member        // the group's testbeds in testbed order, for its pool
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
	s := &Scheduler{cfg: cfg, cache: newParseCache(defaultParseCacheCap)}
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
		s.classOf = append(s.classOf, k)
	}
	groupOf := map[bool]int{}
	for k, p := range s.classRep {
		g, ok := groupOf[p.Testbed.Strict]
		if !ok {
			g = len(s.groups)
			groupOf[p.Testbed.Strict] = g
			s.groups = append(s.groups, probeGroup{base: engines.ReferenceTestbed(p.Testbed.Strict).Prepare()})
		}
		s.groups[g].classes = append(s.groups[g].classes, k)
		s.groupOf = append(s.groupOf, g)
	}
	for i, p := range s.prepared {
		k := s.classOf[i]
		grp := &s.groups[s.groupOf[k]]
		grp.members = append(grp.members, difftest.Member{Testbed: p.Testbed, Class: k})
	}
	for g := range s.groups {
		grp := &s.groups[g]
		if len(grp.classes) > 1 {
			members := make([]*engines.PreparedTestbed, len(grp.classes))
			for m, k := range grp.classes {
				members[m] = s.classRep[k]
			}
			grp.probe = engines.NewProbe(members)
		}
	}
	return s
}

// Classes reports how many distinct behaviour classes the configured
// testbeds collapse into (of interest to benchmarks and progress output).
func (s *Scheduler) Classes() int { return len(s.classes) }

// Stats is a snapshot of a scheduler's counters. Every counter but the
// cache's counts physical executions (see Scheduler). Its JSON keys are
// the campaign checkpoint's: campaign.Progress, campaign.Result and
// campaign.State all embed one Stats.
type Stats struct {
	// CacheHits/CacheMisses/CacheEvictions are the compiled-program
	// (parse-and-resolve-once) cache counters.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Compiled/Fallback count physical interpreter runs by evaluator path:
	// thunk-compiled programs vs tree-walked ones (programs the compiler
	// declined). Parse errors and early-error skips count in neither.
	Compiled int64 `json:"compiled"`
	Fallback int64 `json:"fallback"`
	// ICHits/ICMisses/ICMega are always zero: nothing writes them since
	// the inline caches were deleted. They stay only because perfbench's
	// interp.ic_hit_ratio reads them, and go with that metric; until then
	// the checkpoint, SSE and -progress JSON keys are unchanged.
	ICHits   uint64 `json:"ic_hits"`
	ICMisses uint64 `json:"ic_misses"`
	ICMega   uint64 `json:"ic_mega"`
	// Analyzed counts executions that rode the analyze-once report cached
	// on the program; EarlyErrorSkips counts those the static early-error
	// gate short-circuited before any interpreter ran.
	Analyzed        int64 `json:"analyzed"`
	EarlyErrorSkips int64 `json:"early_error_skips"`
	// Panics/WallTimeouts count executions that ended in a recovered
	// evaluator panic or a wall-clock watchdog abort (injected or real).
	Panics       int64 `json:"panics"`
	WallTimeouts int64 `json:"wall_timeouts"`
}

// Add returns the field-wise sum of two snapshots (a resumed campaign's
// baseline plus its new scheduler's counts).
func (a Stats) Add(b Stats) Stats {
	return Stats{
		CacheHits:       a.CacheHits + b.CacheHits,
		CacheMisses:     a.CacheMisses + b.CacheMisses,
		CacheEvictions:  a.CacheEvictions + b.CacheEvictions,
		Compiled:        a.Compiled + b.Compiled,
		Fallback:        a.Fallback + b.Fallback,
		Analyzed:        a.Analyzed + b.Analyzed,
		EarlyErrorSkips: a.EarlyErrorSkips + b.EarlyErrorSkips,
		Panics:          a.Panics + b.Panics,
		WallTimeouts:    a.WallTimeouts + b.WallTimeouts,
	}
}

// Stats snapshots the scheduler's counters so far.
func (s *Scheduler) Stats() Stats {
	return Stats{
		CacheHits:       s.cache.hits.Load(),
		CacheMisses:     s.cache.misses.Load(),
		CacheEvictions:  s.cache.evictions.Load(),
		Compiled:        s.compiled.Load(),
		Fallback:        s.fallback.Load(),
		Analyzed:        s.analyzed.Load(),
		EarlyErrorSkips: s.earlySkips.Load(),
		Panics:          s.panics.Load(),
		WallTimeouts:    s.wallTimeouts.Load(),
	}
}

// caseState tracks one in-flight case across its testbed executions.
// results[g] holds probe group g's results, each with the number of
// testbeds that took it, and slot[k] indexes class k's result in its
// group's results. Each group's task writes only its own results and its
// own classes' slots.
type caseState struct {
	seq       int // receipt order; outcomes are emitted in this order
	c         Case
	results   [][]difftest.Weighted
	slot      []int
	remaining int32
	cancelled int32 // set when any execution was skipped due to cancellation
}

// resultsPerGroup is the result capacity reserved per group and case: a
// group's probe, its pre-parse rejections and the classes it re-ran.
const resultsPerGroup = 4

// newCase allocates the in-flight state of case c, received seq-th.
func (s *Scheduler) newCase(seq int, c Case) *caseState {
	n := len(s.groups)
	buf := make([]difftest.Weighted, n*resultsPerGroup)
	cs := &caseState{seq: seq, c: c, results: make([][]difftest.Weighted, n),
		slot: make([]int, len(s.classes)), remaining: int32(n)}
	for g := range cs.results {
		// Capped, so a group that outgrows its share reallocates instead
		// of writing into the next group's.
		cs.results[g] = buf[g*resultsPerGroup : g*resultsPerGroup : (g+1)*resultsPerGroup]
	}
	return cs
}

type task struct {
	cs    *caseState
	group int // index into Scheduler.groups
}

// Run consumes cases from in and returns a channel of outcomes, emitted in
// the order cases were received. The channel is closed when all input has
// been processed or ctx is cancelled; cancellation never deadlocks — all
// scheduler goroutines drain and exit. The emitted outcomes are always a
// contiguous prefix of the case sequence: once cancellation drops one
// case (or pre-empts one emission), no later case is emitted either, even
// if it happened to execute fully before the workers saw the cancel.
func (s *Scheduler) Run(ctx context.Context, in <-chan Case) <-chan Outcome {
	nGroups := len(s.groups)
	inflight := s.cfg.Workers + 2
	out := make(chan Outcome)
	tasks := make(chan task, inflight*nGroups)
	done := make(chan *caseState, inflight)
	sem := make(chan struct{}, inflight)

	// Intake: admit cases under the in-flight cap and fan each one out
	// into one task per probe group.
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
			cs := s.newCase(seq, c)
			seq++
			for g := 0; g < nGroups; g++ {
				// tasks is buffered for inflight full cases, so this send
				// only blocks when workers are saturated.
				tasks <- task{cs: cs, group: g}
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
					s.runGroup(t.group, t.cs)
					s.releaseSlot()
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
				select {
				case out <- s.outcome(c):
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

// Execute runs src on every configured testbed in the caller's goroutine
// — one runGroup per probe group, with no worker pool and no gate — and
// classifies it exactly as Run does. The case carries index 0, so a fault
// plan applies its case-0 fault. It is the one-shot differential test
// behind the public comfort.DiffTest.
func (s *Scheduler) Execute(src string) Outcome {
	cs := s.newCase(0, Case{Src: src, Batch: -1})
	for g := range s.groups {
		s.runGroup(g, cs)
	}
	return s.outcome(cs)
}

// outcome classifies a fully executed case over its weighted results:
// each probe group is its mode's pool.
func (s *Scheduler) outcome(cs *caseState) Outcome {
	var pools [2]difftest.Pool // normal, strict
	for g := range s.groups {
		mode := 0
		if s.groups[g].base.Testbed.Strict {
			mode = 1
		}
		pools[mode] = difftest.Pool{Results: cs.results[g], Members: s.groups[g].members, Slot: cs.slot}
	}
	return Outcome{Case: cs.c, Result: difftest.ClassifyPools(pools[0], pools[1]),
		Analysis: s.analysisFor(cs.c.Src), s: s, cs: cs}
}

// acquireSlot gates one task's physical runs: a cancelled context
// reports false (the case is marked cancelled, preserving the
// contiguous-prefix contract exactly as the pre-gate cancellation check
// did).
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

// runGroup executes one (case, probe group) task and records a result
// for every class in the group. It parses the case once under the mode's
// base options, applies each class's pre-parse gate and, if any class
// takes the base parse and the group has a probe, runs the probe on it
// once. A class takes the probe's result when it takes the base parse
// (PreparedTestbed.TakesBaseParse) and the probe consulted none of its
// hooks and none of its config flags (Probe.Quiet). The rest run
// physically: the class of a one-class group, a class whose lenient
// parser options accept a program the base options reject (on its own
// parse), a class the probe consulted, the class an injected fault
// targets, and all of them when the probe ended on the wall-clock
// watchdog (a run cut short by wall time says nothing about the sites it
// never reached).
func (s *Scheduler) runGroup(g int, cs *caseState) {
	grp := &s.groups[g]
	c := cs.c
	_, faulted := s.fault(c)
	baseProg, baseErr := s.cache.parse(grp.base, c.Src)
	var probe engines.ExecResult
	var fired engines.Fired
	probed := false
	probeSlot := -1
	for m, k := range grp.classes {
		rep := s.classRep[k]
		if msg := rep.PreParseError(c.Src); msg != "" {
			s.fill(cs, g, k, engines.PreParseResult(msg))
			continue
		}
		if !rep.TakesBaseParse(baseErr) {
			prog, err := s.cache.parse(rep, c.Src)
			s.fill(cs, g, k, s.runParsed(k, c, prog, err))
			continue
		}
		if grp.probe != nil && k != faulted {
			if !probed {
				s.countRun(baseProg, baseErr)
				opts := engines.RunOptions{Fuel: s.cfg.Fuel, Seed: s.cfg.Seed, Watchdog: s.deadlineWatchdog()}
				probe, fired = grp.probe.ExecParsed(baseProg, baseErr, opts)
				s.account(probe)
				probed = true
			}
			if !probe.WallClock && grp.probe.Quiet(m, fired) {
				if probeSlot < 0 {
					probeSlot = s.fill(cs, g, k, probe)
				} else {
					s.share(cs, g, k, probeSlot)
				}
				continue
			}
		}
		s.fill(cs, g, k, s.runParsed(k, c, baseProg, baseErr))
	}
}

// fill records r as class k's result in group g, weighted by the class's
// testbed count, and returns its slot.
func (s *Scheduler) fill(cs *caseState, g, k int, r engines.ExecResult) int {
	cs.slot[k] = len(cs.results[g])
	cs.results[g] = append(cs.results[g], difftest.Weighted{Result: r, Count: len(s.classes[k])})
	return cs.slot[k]
}

// share points class k at group g's result in slot, adding the class's
// testbeds to its weight.
func (s *Scheduler) share(cs *caseState, g, k, slot int) {
	cs.slot[k] = slot
	cs.results[g][slot].Count += len(s.classes[k])
}

// fault returns the injected fault for case c and the behaviour class it
// targets, or -1 when the case carries none.
func (s *Scheduler) fault(c Case) (faultinject.Fault, int) {
	fault, sel := s.cfg.Faults.CaseFault(c.Index)
	if fault == faultinject.FaultNone {
		return fault, -1
	}
	return fault, int(sel % uint64(len(s.classes)))
}

// deadlineWatchdog arms the wall-clock watchdog for one physical run, or
// returns nil when no case deadline is configured.
func (s *Scheduler) deadlineWatchdog() func() bool {
	if s.cfg.CaseDeadline <= 0 || s.cfg.Clock == nil {
		return nil
	}
	start := s.cfg.Clock()
	deadline := s.cfg.CaseDeadline
	return func() bool { return s.cfg.Clock().Sub(start) > deadline }
}

// runParsed interprets the class's (pre-parse-checked) program for case
// c; countRun accounts which evaluator the execution runs on. Fault
// injection and the wall-clock watchdog are armed here, per physical run,
// so shared-class fan-out replicates the (deterministic) faulted result
// instead of re-rolling it.
func (s *Scheduler) runParsed(class int, c Case, prog *ast.Program, err error) engines.ExecResult {
	opts := engines.RunOptions{Fuel: s.cfg.Fuel, Seed: s.cfg.Seed}
	if fault, target := s.fault(c); target == class {
		switch fault {
		case faultinject.FaultPanic:
			opts.InjectPanic = true
		case faultinject.FaultSlow:
			opts.Watchdog = faultinject.CountdownWatchdog(s.cfg.Faults.SlowProbes())
		}
	}
	if opts.Watchdog == nil {
		opts.Watchdog = s.deadlineWatchdog()
	}
	s.countRun(prog, err)
	r := s.classRep[class].ExecParsed(prog, err, opts)
	s.account(r)
	return r
}

// account adds one physical run's robustness counters.
func (s *Scheduler) account(r engines.ExecResult) {
	if r.Panic {
		s.panics.Add(1)
	}
	if r.WallClock {
		s.wallTimeouts.Add(1)
	}
	if r.EarlyError {
		s.earlySkips.Add(1)
	}
}

// analysisFor fetches the case's static-semantics report through the
// parse cache (a hit for any case that just executed). The first class
// representative is the deterministic choice of parse, taken under the
// runGroup rule (its mode's base parse when it takes it), so the report a
// sink sees never depends on worker interleaving.
func (s *Scheduler) analysisFor(src string) *analyze.Report {
	rep := s.classRep[0] // the first class of groups[0]
	prog, err := s.cache.parse(s.groups[0].base, src)
	if !rep.TakesBaseParse(err) {
		prog, err = s.cache.parse(rep, src)
	}
	if err != nil {
		return nil
	}
	return analyze.Of(prog)
}

// countRun adds one physical run of a parse result to the
// compiled/fallback execution counters (parse errors count in neither,
// and neither do programs the early-error gate stops before an evaluator
// runs).
func (s *Scheduler) countRun(prog *ast.Program, err error) {
	if err != nil {
		return
	}
	s.analyzed.Add(1)
	if analyze.Of(prog).Invalid() {
		return
	}
	if prog.Compiled != nil {
		s.compiled.Add(1)
	} else {
		s.fallback.Add(1)
	}
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
// and when it reaches half the cap the old generation's entries
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

// defaultParseCacheCap bounds the scheduler's compiled-program cache
// entry count.
const defaultParseCacheCap = 4096

func newParseCache(cap int) *parseCache {
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
	// The full pipeline: parse, resolve, thunk-compile, analyze. The cache
	// entry stores the thunks and the report next to the scope
	// annotations under the same parser-option fingerprint key.
	r.prog, r.err = p.Parse(src)
	pc.mu.Lock()
	// A concurrent miss on the same key may have published first: every
	// caller must hold the one published program, and only the published
	// parse counts as a miss.
	won, published := pc.young[key]
	if !published {
		won, published = pc.old[key]
	}
	if !published {
		pc.insertLocked(key, r)
	}
	pc.mu.Unlock()
	if published {
		pc.hits.Add(1)
		return won.prog, won.err
	}
	pc.misses.Add(1)
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
