package main

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/dedup"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/compile"
	"comfort/internal/js/lint"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
	"comfort/internal/lm"
	"comfort/internal/reduce"
	"comfort/internal/spec"
	"comfort/internal/testgen"
)

// replayer re-runs a campaign's case stream on one goroutine, calling each
// layer's public functions in pipeline order inside tracer spans: generate
// and lint, mutate, then per behaviour class pre-parse, parse, resolve,
// compile, analyze (on a cache miss) and execute, then classify, dedup,
// attribute, checkpoint and reduce. Its accounting mirrors campaign.Run's
// sink, so the replay finds what the campaign finds.
type replayer struct {
	tr   *tracer
	opts engines.RunOptions

	prepared []*engines.PreparedTestbed
	classes  [][]int
	classRep []*engines.PreparedTestbed
	// floor is each class representative's realm cost: the median time of
	// executing an empty program.
	floor []time.Duration

	lm  *lm.Generator
	db  *spec.DB
	dir string // checkpoint directory; "" means no checkpoints
	// ckptEvery is the checkpoint cadence in cases.
	ckptEvery int

	cache map[parseKey]parsed
	tree  *dedup.Tree
	st    replayState
	c     replayCounters
	// predCalls counts reduction predicate calls, which run concurrently.
	predCalls atomic.Int64
	// ckptFailures counts checkpoint writes that returned an error.
	ckptFailures int
}

type parseKey struct {
	fp  uint64
	src string
}

type parsed struct {
	prog *ast.Program
	err  error
}

// replayFinding is a found defect with what reduction needs.
type replayFinding struct {
	defect *engines.Defect
	src    string
	strict bool
}

// replayState is one replayed campaign's accounting.
type replayState struct {
	cases, executed    int
	verdicts           map[string]int
	filtered, unattrib int
	found, suppressed  map[string]*replayFinding
}

// replayCounters are the counts behind the per-layer ratios.
type replayCounters struct {
	genAttempts, genValid int
	runs                  int
	fuel                  int64
	eval, realm           time.Duration
	buggyCases            int
	attributeCalls        int
	reduceOrig, reduceOut int
	ckptBytes             int64
}

// newReplayer prepares the testbeds and groups them into behaviour classes
// as the scheduler does.
func newReplayer(tr *tracer, fuel int64, g *lm.Generator) *replayer {
	if fuel == 0 {
		fuel = difftest.DefaultFuel
	}
	r := &replayer{tr: tr, opts: engines.RunOptions{Fuel: fuel}, lm: g, db: spec.Default()}
	classOf := map[string]int{}
	for _, tb := range engines.Testbeds() {
		p := tb.Prepare()
		i := len(r.prepared)
		r.prepared = append(r.prepared, p)
		k, ok := classOf[p.BehaviorKey()]
		if !ok {
			k = len(r.classes)
			classOf[p.BehaviorKey()] = k
			r.classes = append(r.classes, nil)
			r.classRep = append(r.classRep, p)
		}
		r.classes[k] = append(r.classes[k], i)
	}
	return r
}

// realmFloors times an empty program's execution on every class
// representative (the realm a run builds before evaluating anything) and
// returns the mean floor and the allocations of one empty execution.
func (r *replayer) realmFloors() (meanUS, allocs float64) {
	const reps = 15
	r.floor = make([]time.Duration, len(r.classRep))
	var sumFloor time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := 0
	for k, p := range r.classRep {
		prog, err := p.Parse("")
		if err != nil {
			continue
		}
		ds := make([]float64, reps)
		for i := range ds {
			start := time.Now()
			p.Exec(prog, r.opts)
			ds[i] = float64(time.Since(start))
			n++
		}
		r.floor[k] = time.Duration(median(ds))
		sumFloor += r.floor[k]
	}
	runtime.ReadMemStats(&ms1)
	return float64(sumFloor) / float64(len(r.classRep)) / float64(time.Microsecond),
		float64(ms1.Mallocs-ms0.Mallocs) / float64(max(n, 1))
}

// comfortBatch generates COMFORT batch j exactly as fuzzers.Comfort.Next
// does under the campaign's per-batch RNG: sample and lint until a program
// survives the filter, then derive spec-guided variants of a valid one.
func (r *replayer) comfortBatch(seed int64, j int) []string {
	var out []string
	r.tr.do("fuzzers.next", func() {
		rng := rand.New(rand.NewSource(batchSeed(seed, j)))
		var src string
		valid := false
		for {
			r.tr.do("gen.generate", func() { src = r.lm.Generate(rng) })
			r.tr.do("gen.valid", func() { valid = lint.Valid(src) })
			r.c.genAttempts++
			if valid {
				r.c.genValid++
				break
			}
			if rng.Float64() < 0.2 {
				break
			}
		}
		out = []string{src}
		if valid {
			r.tr.do("testgen.mutate", func() {
				for _, v := range testgen.Mutate(src, r.db, rng, testgen.Options{MaxVariants: 8, RandomExtra: 3}) {
					out = append(out, v.Source)
				}
			})
		}
	})
	return out
}

// batchSeed mirrors the campaign's per-batch RNG derivation for forkable
// fuzzers (a splitmix64 round over the seed and batch index).
func batchSeed(seed int64, j int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(j+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// campaign replays one campaign of cases cases under seed, drawn from
// next (called with the batch index), and returns its accounting.
func (r *replayer) campaign(seed int64, cases int, reduceFound bool, next func(j int) []string) replayState {
	r.opts.Seed = seed
	r.cache = map[parseKey]parsed{}
	r.tree = dedup.New(dedup.KnownAPIsFromSpec(spec.Default().Names()))
	r.st = replayState{verdicts: map[string]int{},
		found: map[string]*replayFinding{}, suppressed: map[string]*replayFinding{}}
	for j := 0; r.st.cases < cases; j++ {
		batch := next(j)
		if len(batch) == 0 {
			break
		}
		for _, src := range batch {
			if r.st.cases >= cases {
				break
			}
			r.runCase(src)
			if r.dir != "" && r.st.cases%r.ckptEvery == 0 && r.st.cases < cases {
				r.checkpoint()
			}
		}
	}
	if reduceFound {
		r.reduceFindings()
	}
	if r.dir != "" {
		r.checkpoint()
	}
	return r.st
}

// runCase executes one case on every behaviour class, classifies it and
// accounts it.
func (r *replayer) runCase(src string) {
	entries := make([]difftest.ExecEntry, len(r.prepared))
	for k, p := range r.classRep {
		res := r.cell(k, p, src)
		for _, i := range r.classes[k] {
			entries[i] = difftest.ExecEntry{Testbed: r.prepared[i].Testbed, Result: res}
		}
	}
	var cr difftest.CaseResult
	r.tr.do("difftest.classify", func() { cr = difftest.Classify(entries) })
	r.st.cases++
	r.st.executed += len(entries)
	r.st.verdicts[cr.Verdict.String()]++
	if cr.Verdict.IsBuggy() {
		r.account(src, cr)
	}
}

// cell is one (case, class) execution: pre-parse interceptors, the
// compiled-program cache, then the realm and evaluation.
func (r *replayer) cell(k int, p *engines.PreparedTestbed, src string) engines.ExecResult {
	var res engines.ExecResult
	r.tr.do("exec.cell", func() {
		if msg := p.PreParseError(src); msg != "" {
			res = engines.PreParseResult(msg)
			return
		}
		prog, err := r.parse(p, src)
		if err != nil || analyze.Of(prog).Invalid() {
			res = p.ExecParsed(prog, err, r.opts)
			return
		}
		d := r.tr.do("engines.exec", func() { res = p.ExecParsed(prog, err, r.opts) })
		realm := min(r.floor[k], d)
		r.c.realm += realm
		r.c.eval += d - realm
		r.c.runs++
		r.c.fuel += min(res.FuelUsed, r.opts.Fuel) // a slow-path defect may overcharge past the budget
	})
	return res
}

// parse is the scheduler's parse-once cache: a miss runs the parser and
// the resolve, compile and analyze passes, each in its own span.
func (r *replayer) parse(p *engines.PreparedTestbed, src string) (*ast.Program, error) {
	key := parseKey{p.ParseFingerprint(), src}
	if c, ok := r.cache[key]; ok {
		return c.prog, c.err
	}
	var c parsed
	r.tr.do("parser.parse", func() { c.prog, c.err = parser.ParseWith(src, p.ParseOptions()) })
	if c.err == nil {
		r.tr.do("resolve", func() { resolve.Program(c.prog) })
		r.tr.do("compile", func() { compile.Program(c.prog) })
		r.tr.do("analyze", func() { analyze.Program(c.prog) })
	}
	r.cache[key] = c
	return c.prog, c.err
}

// account mirrors the campaign sink for a buggy case: Figure-6 dedup,
// then attribution of each new deviant testbed to its seeded defects.
func (r *replayer) account(src string, cr difftest.CaseResult) {
	r.c.buggyCases++
	var flags bool
	if prog, err := r.parse(r.classRep[0], src); err == nil {
		flags = analyze.Of(prog).Flags.Any()
	}
	var api string
	r.tr.do("dedup", func() { api = r.tree.APIOf(src) })
	for _, dev := range cr.Deviations {
		engine := dev.Testbed.Version.Engine
		class := dedup.BehaviourClass(dev.Result.Outcome.String(), dev.Result.ErrName, dev.Result.Output)
		var seen bool
		r.tr.do("dedup", func() { seen = r.tree.SeenOrAdd(engine, api, class) })
		if seen {
			r.st.filtered++
			continue
		}
		var attributed []*engines.Defect
		r.tr.do("engines.attribute", func() { attributed = engines.Attribute(src, dev.Testbed, r.opts) })
		r.c.attributeCalls++
		if len(attributed) == 0 {
			r.st.unattrib++
			continue
		}
		for _, d := range attributed {
			if r.st.found[d.ID] != nil || r.st.suppressed[d.ID] != nil {
				continue
			}
			f := &replayFinding{defect: d, src: src, strict: dev.Testbed.Strict}
			if flags {
				r.st.suppressed[d.ID] = f
			} else {
				r.st.found[d.ID] = f
			}
		}
	}
}

// reduceFindings shrinks every finding's witness in defect-ID order with
// the parallel ddmin reducer under a counting predicate.
func (r *replayer) reduceFindings() {
	for _, id := range sortedKeys(r.st.found) {
		r.reduceOne(r.st.found[id])
	}
}

func (r *replayer) reduceOne(f *replayFinding) {
	pred := engines.DivergesRunners(engines.NewDefectRunner(f.defect, f.strict),
		engines.NewDefectRunner(nil, f.strict), r.opts)
	var out string
	r.tr.do("reduce", func() {
		out = reduce.Parallel(f.src, func(src string) bool {
			r.predCalls.Add(1)
			return pred(src)
		}, reduce.Options{Workers: workers()})
	})
	r.c.reduceOrig += len(f.src)
	r.c.reduceOut += len(out)
}

// checkpoint persists the replay's accounting with campaign.WriteState.
func (r *replayer) checkpoint() {
	st := &campaign.State{
		Format: campaign.StateFormatVersion, CasesDone: r.st.cases,
		Executed: r.st.executed, Verdicts: r.st.verdicts,
		DuplicatesFiltered: r.st.filtered, UnattributedFindings: r.st.unattrib,
		Dedup: r.tree.Snapshot(),
	}
	for _, id := range sortedKeys(r.st.found) {
		f := r.st.found[id]
		st.Found = append(st.Found, campaign.SavedFinding{DefectID: id, TestCase: f.src, Strict: f.strict})
	}
	path := r.dir + "/replay.ckpt"
	var err error
	r.tr.do("campaign.ckpt_write", func() { err = campaign.WriteState(path, st) })
	if err != nil {
		r.ckptFailures++
	}
	if fi, err := os.Stat(path); err == nil {
		r.c.ckptBytes = fi.Size()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// probeGeneration generates n COMFORT batches outside any replayed
// campaign, for workloads whose own stream bypasses the LM.
func (r *replayer) probeGeneration(seed int64, n int) {
	for j := 0; j < n; j++ {
		r.comfortBatch(seed, j)
	}
}

// probeTriage replays n catalog witnesses with corpus filler (dedup,
// attribution, checkpoint and reduction), for workloads whose own stream
// finds nothing to triage.
func (r *replayer) probeTriage(seed int64, n int, dir string) {
	f := newTriageFuzzer(seed)
	r.dir, r.ckptEvery = dir, triageCkptEvery
	r.campaign(seed, n, true, func(int) []string { return f.Next(nil) })
}
