// Package analyze is the static semantic analyzer: one pass per resolved
// program produces an analyze.Report with three products the pipeline
// consumes ahead of differential execution.
//
//  1. Early errors — static-semantics violations the parser accepts
//     (duplicate lexical bindings, unknown break/continue labels,
//     assignment to const, ...). internal/js/resolve finds them in its
//     scope walk and the report copies its verdict. The engines layer
//     turns these into a pre-execution SyntaxError that is a pure function
//     of the source text, so the scheduler can classify such a case from
//     the reference testbed alone instead of fanning out to every
//     behaviour class.
//  2. Divergence-risk flags — constructs whose behaviour is
//     implementation-defined or nondeterministic in real engines
//     (Math.random, Date.now, for-in enumeration order, ...). The
//     campaign sink uses them to tag findings as suppressible false
//     positives, the paper's filtering step.
//  3. Feature fingerprints — a compact bitset of the language features a
//     program exercises, the feature-sensitive coverage key surfaced
//     through campaign.Progress/Result and finding reports.
//
// Like the resolve and compile passes, the report is computed once per
// parse and attached to the Program (ast.Program.Analysis) before the
// tree is shared across goroutines; analysis consumes nothing but the
// resolved AST itself, so the exec layer's parse-fingerprint cache key
// keeps it sound.
package analyze

import "comfort/internal/js/ast"

// EarlyError is one static-semantics violation. Kind is a stable
// machine-readable rule name; Msg and Pos render like parser errors.
type EarlyError = ast.EarlyError

// Report is the analyzer's per-program output.
type Report struct {
	// EarlyErrors lists static-semantics violations in source order; a
	// non-empty list makes the program invalid on every testbed.
	EarlyErrors []EarlyError
	// Flags marks divergence-risk (nondeterministic or
	// implementation-defined) constructs.
	Flags Flags
	// Features is the program's language-feature fingerprint.
	Features Features
}

// FirstError returns the first early error in source order, or nil.
func (r *Report) FirstError() *EarlyError {
	if r == nil || len(r.EarlyErrors) == 0 {
		return nil
	}
	return &r.EarlyErrors[0]
}

// Invalid reports whether the program has any early error.
func (r *Report) Invalid() bool { return r != nil && len(r.EarlyErrors) > 0 }

// InStrictMode returns the report as a strict-mode run sees the program:
// all of it is strict code, so FeatStrict is set. A program's tree, and so
// its cached report, carries only the strictness of its directives.
func (r *Report) InStrictMode() *Report {
	if r == nil || r.Features&FeatStrict != 0 {
		return r
	}
	cp := *r
	cp.Features |= FeatStrict
	return &cp
}

// Analyze computes a fresh report for prog without attaching it: the
// feature and flag scan, plus the early errors and shadowing bit that
// resolve.Program recorded. prog must have been resolved; Analyze panics
// otherwise, since an unresolved tree carries no verdict to copy.
func Analyze(prog *ast.Program) *Report {
	if !prog.ResolvedScopes {
		panic("analyze: program not resolved")
	}
	r := &Report{EarlyErrors: prog.EarlyErrors}
	scanProgram(prog, r) // features and flags (features.go)
	if prog.Shadowing {
		r.Features |= FeatShadowing
	}
	return r
}

// Program computes the report once and attaches it to the program,
// mirroring resolve.Program/compile.Program. Idempotent. Callers must
// attach before sharing the tree across goroutines (the parse paths in
// internal/engines do); concurrent readers then use Of.
func Program(prog *ast.Program) *Report {
	if rep, ok := prog.Analysis.(*Report); ok {
		return rep
	}
	rep := Analyze(prog)
	prog.Analysis = rep
	return rep
}

// Of returns the report attached to prog, or nil when the program was
// never analyzed. Never computes or attaches, so it is safe on shared
// trees.
func Of(prog *ast.Program) *Report {
	rep, _ := prog.Analysis.(*Report)
	return rep
}
