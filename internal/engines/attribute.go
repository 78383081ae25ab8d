package engines

import (
	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// RunWithDefect executes src with exactly one defect installed — the
// ground-truth attribution primitive used by the campaign accounting.
func RunWithDefect(d *Defect, src string, strict bool, opts RunOptions) ExecResult {
	return NewDefectRunner(d, strict).Run(src, opts)
}

// DefectRunner is the prepared form of RunWithDefect: the interpreter
// config, parser options and hook for one (defect, mode) pair are resolved
// once, so a reduction predicate that executes hundreds of candidates pays
// the setup exactly once. A nil defect prepares the defect-free reference.
// Run is safe for concurrent use (each call builds its own runtime).
type DefectRunner struct {
	d         *Defect
	baseCfg   interp.Config // Strict + Configure deltas; Fuel/Seed per run
	parseOpts parser.Options
}

// NewDefectRunner prepares a single-defect executor with semantics
// identical to RunWithDefect(d, ·, strict, ·).
func NewDefectRunner(d *Defect, strict bool) *DefectRunner {
	r := &DefectRunner{
		d:         d,
		baseCfg:   interp.Config{Strict: strict},
		parseOpts: parser.Options{Strict: strict},
	}
	if d != nil {
		if d.Configure != nil {
			d.Configure(&r.baseCfg)
		}
		if d.ParserOpts != nil {
			d.ParserOpts(&r.parseOpts)
		}
		if d.Hook != nil && (!d.StrictOnly || strict) {
			r.baseCfg.Hook = d.Hook
		}
	}
	return r
}

// Run executes src with the prepared defect (or the reference when the
// runner was prepared with a nil defect).
func (r *DefectRunner) Run(src string, opts RunOptions) ExecResult {
	if msg := r.preParseError(src); msg != "" {
		return PreParseResult(msg)
	}
	prog, err := parseProgram(src, r.parseOpts)
	return r.execParsed(prog, err, opts)
}

// preParseError runs the defect's pre-parse interceptor, if any.
func (r *DefectRunner) preParseError(src string) string {
	if r.d != nil && r.d.PreParse != nil {
		if msg := r.d.PreParse(src); msg != "" {
			return "SyntaxError: " + msg
		}
	}
	return ""
}

// execParsed executes an already-compiled (and pre-parse-gated) program.
func (r *DefectRunner) execParsed(prog *ast.Program, err error, opts RunOptions) ExecResult {
	if res, static := staticResult(prog, err); static {
		return res
	}
	return runRealm(r.baseCfg, prog, opts, nil, false)
}

// DivergesRunners builds a reduction predicate over two prepared
// single-defect runners: it reports whether src behaves differently under
// a and b. When the runners’ parser options coincide (the common case —
// a defect without parser interceptors against the defect-free reference)
// each candidate is compiled once and the program shared between both
// executions, halving the per-candidate parse+resolve cost of a campaign
// reduction. Safe for concurrent calls, as reduce.Parallel requires.
func DivergesRunners(a, b *DefectRunner, opts RunOptions) func(src string) bool {
	if a.parseOpts.Fingerprint() != b.parseOpts.Fingerprint() {
		return func(src string) bool {
			return a.Run(src, opts).Key() != b.Run(src, opts).Key()
		}
	}
	return func(src string) bool {
		var prog *ast.Program
		var perr error
		parsed := false
		runOne := func(r *DefectRunner) ExecResult {
			if msg := r.preParseError(src); msg != "" {
				return PreParseResult(msg)
			}
			if !parsed {
				prog, perr = parseProgram(src, a.parseOpts)
				parsed = true
			}
			return r.execParsed(prog, perr, opts)
		}
		return runOne(a).Key() != runOne(b).Key()
	}
}

// Attribute identifies which seeded defects of the testbed's version are
// responsible for a divergence observed on src: each active defect that
// could have changed the run is re-run in isolation against the
// defect-free reference. The reference runs as a Probe over the defects
// that only hook (no Configure, ParserOpts or PreParse), so a hook-only
// defect whose trigger never matched is known to reproduce the reference
// result and is not re-run. Candidates whose resolved parser options
// coincide share one compiled program — the same trick DivergesRunners
// uses — so a witness is parsed (and compiled) once per distinct option
// fingerprint; only the handful of defects with parser interceptors pay
// their own parse. Each re-run candidate still executes with exactly its
// own config, hook and pre-parse gate.
func Attribute(src string, tb Testbed, opts RunOptions) []*Defect {
	type compiled struct {
		prog *ast.Program
		err  error
	}
	cache := map[uint64]compiled{}
	parse := func(po parser.Options) (*ast.Program, error) {
		fp := po.Fingerprint()
		c, ok := cache[fp]
		if !ok {
			c.prog, c.err = parseProgram(src, po)
			cache[fp] = c
		}
		return c.prog, c.err
	}
	active := ActiveDefects(tb.Version)
	var hookOnly [][]*Defect
	for _, d := range active {
		if onlyHooks(d) {
			hookOnly = append(hookOnly, hookDefects([]*Defect{d}, tb.Strict))
		}
	}
	ref := NewDefectRunner(nil, tb.Strict)
	probe := newProbe(ref.baseCfg, hookOnly)
	prog, err := parse(ref.parseOpts)
	refRes, fired := probe.ExecParsed(prog, err, opts)
	var out []*Defect
	member := 0 // index of d among the probe's members
	for _, d := range active {
		if onlyHooks(d) {
			quiet := probe.Quiet(member, fired)
			member++
			if quiet {
				continue
			}
		}
		r := NewDefectRunner(d, tb.Strict)
		var res ExecResult
		if msg := r.preParseError(src); msg != "" {
			res = PreParseResult(msg)
		} else {
			prog, err := parse(r.parseOpts)
			res = r.execParsed(prog, err, opts)
		}
		if res.Key() != refRes.Key() {
			out = append(out, d)
		}
	}
	return out
}

// onlyHooks reports whether the defect acts through its hook alone: with
// no Configure, ParserOpts or PreParse it runs the reference config.
func onlyHooks(d *Defect) bool {
	return d.Configure == nil && d.ParserOpts == nil && d.PreParse == nil
}
