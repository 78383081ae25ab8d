package engines

import (
	"sort"
	"strings"
	"sync"

	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// PreparedTestbed is a testbed with everything that is constant across runs
// resolved once: the active defect subset of the catalog, the combined hook
// chain and the parser options. Preparing a
// testbed turns Testbed.Run's per-execution catalog scan + hook sort into a
// one-time cost, which matters when a campaign executes the same 104
// testbeds tens of thousands of times.
type PreparedTestbed struct {
	Testbed Testbed

	defects  []*Defect      // active defects, catalog order
	preParse []*Defect      // subset with PreParse interceptors
	hooks    []*Defect      // subset whose hooks run in this mode, ID order
	baseCfg  interp.Config  // Strict + hook chain; Fuel/Seed filled per run
	parseOps parser.Options // Strict + ParserOpts deltas
	behavior string         // mode + active defect IDs; see BehaviorKey

	attrOnce sync.Once
	attr     *attributor // see attribution
}

var (
	preparedMu    sync.Mutex
	preparedCache = map[string]*PreparedTestbed{}
	defectCache   = map[defectMode]*PreparedTestbed{}
)

// defectMode keys the single-defect memo by pointer, so synthetic defects
// outside the catalog get runners of their own.
type defectMode struct {
	d      *Defect
	strict bool
}

// Prepare resolves the testbed's defect set, hook chain and option deltas.
// Results are memoised per version×mode, so repeated calls are cheap.
func (tb Testbed) Prepare() *PreparedTestbed {
	key := tb.ID()
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := preparedCache[key]; ok {
		return p
	}
	p := prepare(tb, ActiveDefects(tb.Version))
	preparedCache[key] = p
	return p
}

// NewDefectRunner prepares the executor with exactly one defect installed,
// memoised per defect pointer and mode: the ground-truth attribution
// primitive. Its Testbed is a synthetic one naming the defect. A nil defect
// yields the reference itself, ReferenceTestbed(strict).Prepare().
func NewDefectRunner(d *Defect, strict bool) *PreparedTestbed {
	if d == nil {
		return ReferenceTestbed(strict).Prepare()
	}
	key := defectMode{d, strict}
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := defectCache[key]; ok {
		return p
	}
	tb := Testbed{Version: Version{Engine: "Defect", Name: d.ID}, Strict: strict}
	p := prepare(tb, []*Defect{d})
	defectCache[key] = p
	return p
}

func prepare(tb Testbed, defects []*Defect) *PreparedTestbed {
	p := &PreparedTestbed{
		Testbed:  tb,
		defects:  defects,
		baseCfg:  interp.Config{Strict: tb.Strict},
		parseOps: parser.Options{Strict: tb.Strict},
	}
	for _, d := range p.defects {
		if d.ParserOpts != nil {
			d.ParserOpts(&p.parseOps)
		}
		if d.PreParse != nil {
			p.preParse = append(p.preParse, d)
		}
	}
	p.hooks = hookDefects(p.defects, tb.Strict)
	p.baseCfg.Hook = combineHooks(p.hooks)
	var b strings.Builder
	b.WriteString(modeName(tb.Strict))
	for _, d := range p.defects {
		b.WriteByte('|')
		b.WriteString(d.ID)
	}
	p.behavior = b.String()
	return p
}

// modeName renders the execution mode.
func modeName(strict bool) string {
	if strict {
		return "strict"
	}
	return "normal"
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

// ParseFingerprint is the fingerprint of ParseOptions, mode included: two
// testbeds with equal fingerprints accept exactly the same programs with
// the same ASTs. The resolve pass consumes nothing beyond the AST itself
// (scope layout is mode- and defect-independent in this subset), so parse
// equivalence implies compiled-program equivalence;
// parser/options_test.go pins the packing. The scheduler's cache keys on
// ModesFingerprint instead, which drops the mode.
func (p *PreparedTestbed) ParseFingerprint() uint64 { return p.parseOps.Fingerprint() }

// ModesFingerprint keys caches of ParseModes results: testbeds of either
// mode whose lenient parser options coincide share one entry, so a
// distinct program runs through the front end once for both modes.
func (p *PreparedTestbed) ModesFingerprint() uint64 {
	return lenientOptions(p.parseOps).Fingerprint()
}

// TakesBaseParse reports whether the mode's base parse of a source — the
// mode's result of the parse under the base options, which ended in
// baseErr — is also p's parse of it. It is when p's options are the base
// ones, and, for any lenient option set, unless the base parse failed at a
// site a lenient option decides: every lenient branch of the parser sits
// on a path that fails under the base options, and a failure ends the
// parse, so a base parse that never failed there takes the same path,
// node IDs and error included, under every lenient option set of its mode
// (parser.LenientMayAccept; parser's TestLenientOptionsOnlyAccept pins
// this).
func (p *PreparedTestbed) TakesBaseParse(baseErr error) bool {
	return !parser.LenientMayAccept(baseErr) || p.parseOps == baseOptions(p.Testbed.Strict)
}

// baseOptions returns the mode's base parser options: no lenient flags.
// Both modes' base parses are one ParseModes parse, under
// lenientOptions(baseOptions(strict)).
func baseOptions(strict bool) parser.Options { return parser.Options{Strict: strict} }

// lenientOptions drops the mode from opts: the options ParseModes keys on.
func lenientOptions(opts parser.Options) parser.Options {
	opts.Strict = false
	return opts
}

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

// Parse compiles src under the testbed's resolved parser options: its
// mode's result of ParseModes.
func (p *PreparedTestbed) Parse(src string) (*ast.Program, error) {
	return p.ParseModes(src).Mode(p.Testbed.Strict)
}

// ParseModes compiles src for both modes under the testbed's lenient
// parser options: one parse, the resolve-once scope pass, then the
// compile-once thunk pass, so every execution of the program — the
// scheduler shares it across behaviour classes and modes, and reduction
// predicates across their two testbeds — dispatches through closure thunks
// instead of re-walking the AST. The compiled form is sound for both
// modes: the resolver and the compiler consume nothing beyond the AST, and
// hooks, mode and fuel stay per-execution inputs of the shared runtime
// helpers the thunks call. The tree's Strict flags carry only directive
// strictness (parser.Modes).
func (p *PreparedTestbed) ParseModes(src string) parser.Modes {
	return parseProgram(src, p.parseOps)
}

// parseProgram is the one parse pipeline every executor in this package
// shares: one parse for both modes under opts' lenient options, then the
// resolve-once, compile-once and analyze-once passes. Each pass annotates
// the program before it is shared across goroutines; execution only reads
// the annotations.
func parseProgram(src string, opts parser.Options) parser.Modes {
	m := parser.ParseModes(src, opts)
	if m.Prog != nil {
		resolve.Program(m.Prog)
		compile.Program(m.Prog)
		analyze.Program(m.Prog)
	}
	return m
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
// the direct-run, scheduler, attribution and reduction paths from
// drifting apart.
func (p *PreparedTestbed) ExecParsed(prog *ast.Program, err error, opts RunOptions) ExecResult {
	if res, static := staticResult(prog, err); static {
		return res
	}
	return p.Exec(prog, opts)
}

// staticResult returns the result of a parse that never reaches an
// interpreter: a parse error, or a static-semantics violation.
func staticResult(prog *ast.Program, err error) (ExecResult, bool) {
	if err != nil {
		return ExecResult{Outcome: OutcomeParseError, Error: err.Error(), ErrName: "SyntaxError"}, true
	}
	return earlyErrorResult(prog)
}

// earlyErrorResult returns the pre-execution SyntaxError for a program
// the static analyzer rejects. It reads the report the parse pipeline
// cached on the program; a resolved program that skipped analyze.Program
// gets the report recomputed from the resolver's verdict, which the path
// oracle compares with the cached one. The report is never attached here:
// programs may already be shared across goroutines.
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
// result (see runRealm) instead of unwinding into the scheduler.
func (p *PreparedTestbed) Exec(prog *ast.Program, opts RunOptions) ExecResult {
	return runRealm(p.baseCfg, prog, opts)
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
// testbeds run the same parse (their lenient parser options coincide, in
// either mode, or both take the base parse; see TakesBaseParse) each
// candidate is parsed once and the program shared between both
// executions, so a reducer evaluating hundreds of candidates pays one
// parse, not two, per candidate. The predicate is safe for concurrent
// calls, as reduce.Parallel requires.
func Diverges(a, b *PreparedTestbed, opts RunOptions) func(src string) bool {
	return func(src string) bool {
		sh := sharedParse{src: src}
		return sh.run(a, opts).Key() != sh.run(b, opts).Key()
	}
}

// sharedParse compiles one source at most once per lenient parser-option
// fingerprint, for both modes, and under lenient options only for an
// executor that does not take the mode's base parse (TakesBaseParse), so
// executors that run the same parse share one compiled program. It is not
// safe for concurrent use.
type sharedParse struct {
	src  string
	done []parsedProgram
}

type parsedProgram struct {
	fp    uint64
	modes parser.Modes
}

// parse returns src compiled for p: the mode's base parse when p takes
// it, else the parse under p's own options.
func (sh *sharedParse) parse(p *PreparedTestbed) (*ast.Program, error) {
	strict := p.Testbed.Strict
	prog, err := sh.parseWith(baseOptions(strict)).Mode(strict)
	if p.TakesBaseParse(err) {
		return prog, err
	}
	return sh.parseWith(p.parseOps).Mode(strict)
}

// parseWith returns src compiled for both modes under opts' lenient
// options.
func (sh *sharedParse) parseWith(opts parser.Options) parser.Modes {
	fp := lenientOptions(opts).Fingerprint()
	for _, c := range sh.done {
		if c.fp == fp {
			return c.modes
		}
	}
	m := parseProgram(sh.src, opts)
	sh.done = append(sh.done, parsedProgram{fp, m})
	return m
}

// run is p.Run over the shared parse.
func (sh *sharedParse) run(p *PreparedTestbed, opts RunOptions) ExecResult {
	if msg := p.PreParseError(sh.src); msg != "" {
		return PreParseResult(msg)
	}
	prog, err := sh.parse(p)
	return p.ExecParsed(prog, err, opts)
}

// hookDefects returns the defects whose hooks run in the given mode, in ID
// order: the order their hooks are consulted in.
func hookDefects(defects []*Defect, strict bool) []*Defect {
	var hooks []*Defect
	for _, d := range defects {
		if d.Hook != nil && (!d.StrictOnly || strict) {
			hooks = append(hooks, d)
		}
	}
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].ID < hooks[j].ID })
	return hooks
}

// combineHooks merges the defects' hooks in slice order through their
// dispatch table: at each site the hooks keyed there are asked in order,
// and the first override wins.
func combineHooks(hooks []*Defect) interp.Hook {
	if len(hooks) == 0 {
		return nil
	}
	t := newHookTable(hooks)
	return func(ctx *interp.HookCtx) *interp.Override {
		for _, i := range t.bucket(ctx) {
			if ov := t.fns[i](ctx); ov != nil {
				return ov
			}
		}
		return nil
	}
}
