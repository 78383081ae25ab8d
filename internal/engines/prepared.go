package engines

import (
	"sort"
	"strings"
	"sync"

	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// PreparedTestbed is a testbed with everything that is constant across runs
// resolved once: the active defect subset of the catalog, the combined hook
// chain, the interpreter config deltas and the parser options. Preparing a
// testbed turns Testbed.Run's per-execution catalog scan + hook sort into a
// one-time cost, which matters when a campaign executes the same 102
// testbeds tens of thousands of times.
type PreparedTestbed struct {
	Testbed Testbed

	defects  []*Defect // active defects, catalog order
	preParse []*Defect // subset with PreParse interceptors
	hook     interp.Hook
	baseCfg  interp.Config  // Strict + Configure deltas; Fuel/Seed filled per run
	parseOps parser.Options // Strict + ParserOpts deltas
	behavior string         // mode + active defect IDs; see BehaviorKey
}

var (
	preparedMu    sync.Mutex
	preparedCache = map[string]*PreparedTestbed{}
)

// Prepare resolves the testbed's defect set, hook chain and option deltas.
// Results are memoised per version×mode, so repeated calls are cheap.
func (tb Testbed) Prepare() *PreparedTestbed {
	key := tb.ID()
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := preparedCache[key]; ok {
		return p
	}
	p := prepare(tb)
	preparedCache[key] = p
	return p
}

func prepare(tb Testbed) *PreparedTestbed {
	p := &PreparedTestbed{
		Testbed:  tb,
		defects:  ActiveDefects(tb.Version),
		baseCfg:  interp.Config{Strict: tb.Strict},
		parseOps: parser.Options{Strict: tb.Strict},
	}
	for _, d := range p.defects {
		if d.Configure != nil {
			d.Configure(&p.baseCfg)
		}
		if d.ParserOpts != nil {
			d.ParserOpts(&p.parseOps)
		}
		if d.PreParse != nil {
			p.preParse = append(p.preParse, d)
		}
	}
	p.hook = combineHooks(p.defects, tb.Strict)
	var b strings.Builder
	if tb.Strict {
		b.WriteString("strict")
	} else {
		b.WriteString("normal")
	}
	for _, d := range p.defects {
		b.WriteByte('|')
		b.WriteString(d.ID)
	}
	p.behavior = b.String()
	return p
}

// BehaviorKey identifies the testbed's behaviour equivalence class: an
// execution's result is a pure function of the active defect set, the mode
// and the run options — the engine version itself is never consulted at run
// time — so two testbeds with equal keys produce identical ExecResults for
// every (src, fuel, seed). Schedulers exploit this to run each class once
// per case and fan the result out to all class members.
func (p *PreparedTestbed) BehaviorKey() string { return p.behavior }

// ActiveDefects returns the defects live in this testbed (shared slice; do
// not mutate).
func (p *PreparedTestbed) ActiveDefects() []*Defect { return p.defects }

// ParseOptions returns the resolved parser options for this testbed.
func (p *PreparedTestbed) ParseOptions() parser.Options { return p.parseOps }

// ParseFingerprint keys parse-and-resolve caches: two testbeds with equal
// fingerprints accept exactly the same programs with the same ASTs. The
// fingerprint also covers every resolver-relevant input — the resolve pass
// consumes nothing beyond the AST itself (scope layout is mode- and
// defect-independent in this subset), so parse equivalence implies
// compiled-program equivalence; parser/options_test.go pins the property.
func (p *PreparedTestbed) ParseFingerprint() uint64 { return p.parseOps.Fingerprint() }

// PreParseError runs the testbed's pre-parse defect interceptors (parser
// defects that reject valid programs before the shared parser sees them).
// It returns a non-empty SyntaxError rendering when one fires.
func (p *PreparedTestbed) PreParseError(src string) string {
	for _, d := range p.preParse {
		if msg := d.PreParse(src); msg != "" {
			return "SyntaxError: " + msg
		}
	}
	return ""
}

// Parse compiles src under the testbed's resolved parser options: a parse,
// the resolve-once scope pass, then the compile-once thunk pass, so every
// execution of the returned program — the scheduler shares it across
// behaviour classes, and reduction predicates across their two testbeds —
// dispatches through closure thunks instead of re-walking the AST. The
// compiled form is sound under the same fingerprint key as the scope
// annotations: the compiler consumes nothing beyond the resolved AST
// (hooks, mode and fuel stay per-execution inputs of the shared runtime
// helpers the thunks call), so parse equivalence implies thunk
// equivalence.
func (p *PreparedTestbed) Parse(src string) (*ast.Program, error) {
	return parseProgram(src, p.parseOps)
}

// parseProgram is the one parse pipeline every executor in this package
// shares: parse, then the resolve-once, compile-once and analyze-once
// passes. Each pass annotates the program before it is shared across
// goroutines; execution only reads the annotations.
func parseProgram(src string, opts parser.Options) (*ast.Program, error) {
	prog, err := parser.ParseWith(src, opts)
	if err == nil {
		resolve.Program(prog)
		compile.Program(prog)
		analyze.Program(prog)
	}
	return prog, err
}

// PreParseResult renders a PreParseError message as its ExecResult.
func PreParseResult(msg string) ExecResult {
	return ExecResult{Outcome: OutcomeParseError, Error: msg, ErrName: "SyntaxError"}
}

// Run executes src on the prepared testbed: pre-parse interceptors,
// Parse, then Exec.
func (p *PreparedTestbed) Run(src string, opts RunOptions) ExecResult {
	if msg := p.PreParseError(src); msg != "" {
		return PreParseResult(msg)
	}
	prog, err := p.Parse(src)
	return p.ExecParsed(prog, err, opts)
}

// ExecParsed adapts an (already pre-parse-checked) parse result — typically
// from a parse cache — into an execution: a parse error classifies as
// OutcomeParseError, a static-semantics violation as a pre-execution
// SyntaxError, anything else interprets. Keeping this in one place stops
// the direct-run, difftest and scheduler paths from drifting apart.
func (p *PreparedTestbed) ExecParsed(prog *ast.Program, err error, opts RunOptions) ExecResult {
	if err != nil {
		return ExecResult{Outcome: OutcomeParseError, Error: err.Error(), ErrName: "SyntaxError"}
	}
	if res, bad := earlyErrorResult(prog); bad {
		return res
	}
	return p.Exec(prog, opts)
}

// earlyErrorResult returns the pre-execution SyntaxError for a program
// the static analyzer rejects. It reads the report the parse pipeline
// cached on the program; a program that skipped analyze.Program gets the
// verdict recomputed from the AST — two implementations of identical
// semantics, which the path oracle compares. The report is never attached
// here: programs may already be shared across goroutines.
func earlyErrorResult(prog *ast.Program) (ExecResult, bool) {
	rep := analyze.Of(prog)
	if rep == nil {
		rep = analyze.Analyze(prog)
	}
	ee := rep.FirstError()
	if ee == nil {
		return ExecResult{}, false
	}
	return ExecResult{
		Outcome:    OutcomeParseError,
		Error:      ee.Render(),
		ErrName:    "SyntaxError",
		EarlyError: true,
	}, true
}

// Exec runs an already-parsed program. The program may be shared across
// concurrent Exec calls (the interpreter never mutates the AST), which is
// what enables the scheduler's parse-once source cache. Callers must have
// applied PreParseError to the original source themselves. The execution
// is panic-isolated: an evaluator panic classifies as an OutcomeCrash
// result (see runGuarded) instead of unwinding into the scheduler.
func (p *PreparedTestbed) Exec(prog *ast.Program, opts RunOptions) ExecResult {
	cfg := p.baseCfg
	cfg.Fuel = opts.Fuel
	cfg.Seed = opts.Seed
	cfg.Hook = p.hook
	cfg.DisableShapes = opts.dictObjects
	cfg.Watchdog = opts.Watchdog
	in := builtins.NewRuntime(cfg)
	in.Cov = opts.Cov
	return runGuarded(in, prog, opts)
}

// classifyRunError maps an interpreter error to the Figure-5 per-testbed
// outcome taxonomy.
func classifyRunError(res *ExecResult, runErr error) {
	switch e := runErr.(type) {
	case nil:
		res.Outcome = OutcomePass
	case *interp.Throw:
		res.Outcome = OutcomeException
		res.Error = e.Error()
		res.ErrName = interp.ErrorName(e.Val)
	case *interp.Abort:
		switch e.Kind {
		case interp.AbortCrash:
			res.Outcome = OutcomeCrash
			res.Error = e.Error()
			res.ErrName = "crash"
		case interp.AbortDeadline:
			res.Outcome = OutcomeTimeout
			res.Error = e.Error()
			res.ErrName = "timeout"
			res.WallClock = true
		default:
			res.Outcome = OutcomeTimeout
			res.Error = e.Error()
			res.ErrName = "timeout"
		}
	default:
		res.Outcome = OutcomeCrash
		res.Error = runErr.Error()
		res.ErrName = "crash"
	}
}

// Diverges builds a reduction predicate over two prepared testbeds: it
// reports whether src behaves differently on a and b under opts. When the
// testbeds' parser options coincide (the common case — a version against
// the reference) each candidate is parsed once and the AST shared between
// both executions, so a reducer evaluating hundreds of candidates pays one
// parse, not two, per candidate. The predicate is safe for concurrent
// calls, as reduce.Parallel requires.
func Diverges(a, b *PreparedTestbed, opts RunOptions) func(src string) bool {
	if a.ParseFingerprint() != b.ParseFingerprint() {
		return func(src string) bool {
			return a.Run(src, opts).Key() != b.Run(src, opts).Key()
		}
	}
	return func(src string) bool {
		var prog *ast.Program
		var perr error
		parsed := false
		runOne := func(p *PreparedTestbed) ExecResult {
			if msg := p.PreParseError(src); msg != "" {
				return PreParseResult(msg)
			}
			if !parsed {
				prog, perr = a.Parse(src)
				parsed = true
			}
			return p.ExecParsed(prog, perr, opts)
		}
		return runOne(a).Key() != runOne(b).Key()
	}
}

// combineHooks merges the active defects' hooks; the first override wins.
func combineHooks(defects []*Defect, strict bool) interp.Hook {
	var hooks []*Defect
	for _, d := range defects {
		if d.Hook != nil {
			if d.StrictOnly && !strict {
				continue
			}
			hooks = append(hooks, d)
		}
	}
	if len(hooks) == 0 {
		return nil
	}
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].ID < hooks[j].ID })
	return func(ctx *interp.HookCtx) *interp.Override {
		for _, d := range hooks {
			if ov := d.Hook(ctx); ov != nil {
				return ov
			}
		}
		return nil
	}
}
