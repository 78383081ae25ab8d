package analyze

import (
	"fmt"

	"comfort/internal/js/ast"
	"comfort/internal/js/token"
)

// This file keeps the early-error pass as it stood before the resolver
// took its rules over: a second lexical scope model, walked separately
// from resolve.Program. It is the oracle TestEarlyErrorOracle compares
// the resolver's verdict with (early errors in order, and the features
// including the shadowing bit).
//
// The pass implements the spec's static semantics for the rules the
// parser itself does not enforce, using its own lexical scope model:
//
//   - duplicate lexical declarations: a let/const name may not collide
//     with another lexical binding, a parameter, or a var declared
//     anywhere in the same scope's subtree (vars hoist through blocks,
//     so `let a; { var a; }` is as invalid as `let a; let a;`)
//   - label static semantics: break/continue to an undeclared label,
//     continue to a label that does not denote an iteration statement,
//     and duplicate nested labels
//   - assignment to a const binding (including ++/--, compound assigns
//     and for-in targets)
//   - return outside a function and unlabeled break/continue outside a
//     loop
//
// It is conservative where the engines' dynamic semantics are forgiving:
// const-assignment is only reported when the const declaration precedes
// the write in the traversal, var and function names are pre-hoisted into
// their function scope, and programs that call eval() skip const checks on
// program-level bindings.

// referenceAnalyze computes the report with the old pass: the feature
// scan, then the early-error walk over its own scope model.
func referenceAnalyze(prog *ast.Program) *Report {
	r := &Report{}
	scanProgram(prog, r)
	earlyErrors(prog, r)
	return r
}

// escope is one lexical scope in the early-error pass.
type escope struct {
	parent *escope
	fn     bool // function or program scope: hoisted vars land here
	prog   bool // the program (global) scope
	lex    map[string]ast.VarKind
	params map[string]bool // function parameters / catch parameter
	vars   map[string]bool // var-declared names known to cross this scope
}

func newScope(parent *escope, fn bool) *escope {
	return &escope{parent: parent, fn: fn, lex: map[string]ast.VarKind{}}
}

// labelEntry is one active label between a function boundary and the
// statement under analysis.
type labelEntry struct {
	name string
	iter bool // labels an iteration statement (continue target)
}

// early carries the traversal state of the early-error pass.
type early struct {
	r        *Report
	evalUsed bool // program references eval: relax global const checks

	labels    []labelEntry
	loopDepth int
	swDepth   int
	fnDepth   int
}

// earlyErrors runs the static-semantics pass over prog, appending
// violations to r.EarlyErrors in source order. scanProgram must have run
// first (the eval relaxation reads the feature bits).
func earlyErrors(prog *ast.Program, r *Report) {
	a := &early{r: r, evalUsed: r.Features&FeatEval != 0}
	global := newScope(nil, true)
	global.prog = true
	prehoist(prog.Body, global)
	for _, s := range prog.Body {
		a.stmt(s, global)
	}
}

func (a *early) errorf(kind string, pos token.Pos, format string, args ...any) {
	a.r.EarlyErrors = append(a.r.EarlyErrors, EarlyError{
		Kind: kind,
		Msg:  fmt.Sprintf(format, args...),
		Pos:  pos,
	})
}

// prehoist seeds sc.vars with every var and function-declaration name in
// the statement subtree, stopping at nested function boundaries — the
// static image of the interpreter's hoisting pass. Seeding before the
// textual walk keeps name resolution faithful to hoisting (a write
// ahead of `var x` targets the local x, not an outer const x) and makes
// the lexical-vs-var clash check order-independent at function level.
func prehoist(body []ast.Stmt, sc *escope) {
	if sc.vars == nil {
		sc.vars = map[string]bool{}
	}
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch v := s.(type) {
		case *ast.VarDecl:
			if v.Kind == ast.Var {
				for _, d := range v.Decls {
					sc.vars[d.Name] = true
				}
			}
		case *ast.FuncDecl:
			if v.Fn.Name != "" {
				sc.vars[v.Fn.Name] = true
			}
		case *ast.BlockStmt:
			for _, c := range v.Body {
				walk(c)
			}
		case *ast.IfStmt:
			walk(v.Then)
			if v.Else != nil {
				walk(v.Else)
			}
		case *ast.ForStmt:
			if vd, ok := v.Init.(*ast.VarDecl); ok && vd.Kind == ast.Var {
				for _, d := range vd.Decls {
					sc.vars[d.Name] = true
				}
			}
			walk(v.Body)
		case *ast.ForInStmt:
			if v.Decl == ast.Var {
				sc.vars[v.Name] = true
			}
			walk(v.Body)
		case *ast.WhileStmt:
			walk(v.Body)
		case *ast.DoWhileStmt:
			walk(v.Body)
		case *ast.SwitchStmt:
			for _, c := range v.Cases {
				for _, cs := range c.Body {
					walk(cs)
				}
			}
		case *ast.TryStmt:
			if v.Block != nil {
				walk(v.Block)
			}
			if v.Catch != nil {
				walk(v.Catch)
			}
			if v.Finally != nil {
				walk(v.Finally)
			}
		case *ast.LabeledStmt:
			walk(v.Body)
		}
	}
	for _, s := range body {
		walk(s)
	}
}

// lexDeclare records a let/const binding in sc, reporting the clash
// rules: duplicate lexical names, parameter collisions, and var names
// crossing the same scope.
func (a *early) lexDeclare(name string, kind ast.VarKind, sc *escope, pos token.Pos) {
	if _, dup := sc.lex[name]; dup || sc.vars[name] || sc.params[name] {
		a.errorf("dup-decl", pos, "Identifier %q has already been declared", name)
		return
	}
	if lookup(sc.parent, name) != nil {
		a.r.Features |= FeatShadowing
	}
	sc.lex[name] = kind
}

// varDeclare records a var binding: the name is checked against every
// lexical scope it hoists through (up to and including the function
// scope) and recorded at each level so later lexical declarations in
// those scopes see it.
func (a *early) varDeclare(name string, sc *escope, pos token.Pos) {
	for s := sc; s != nil; s = s.parent {
		if _, clash := s.lex[name]; clash {
			a.errorf("dup-decl", pos, "Identifier %q has already been declared", name)
			return
		}
		if s.vars == nil {
			s.vars = map[string]bool{}
		}
		s.vars[name] = true
		if s.fn {
			break
		}
	}
}

// lookup finds the nearest scope binding name, or nil.
func lookup(sc *escope, name string) *escope {
	for s := sc; s != nil; s = s.parent {
		if _, ok := s.lex[name]; ok {
			return s
		}
		if s.params[name] || s.vars[name] {
			return s
		}
	}
	return nil
}

// checkWrite reports a const-assignment early error when name resolves
// to a const binding already in scope.
func (a *early) checkWrite(name string, sc *escope, pos token.Pos) {
	s := lookup(sc, name)
	if s == nil {
		return // unresolved: a plain global-object write
	}
	if kind, ok := s.lex[name]; ok && kind == ast.Const {
		if s.prog && a.evalUsed {
			return // eval may rebind global names; stay conservative
		}
		a.errorf("const-assign", pos, "Assignment to constant variable %q", name)
	}
}

// findLabel returns the active label entry for name, or nil.
func (a *early) findLabel(name string) *labelEntry {
	for i := range a.labels {
		if a.labels[i].name == name {
			return &a.labels[i]
		}
	}
	return nil
}

// stmt analyzes one statement in scope sc.
func (a *early) stmt(s ast.Stmt, sc *escope) {
	switch v := s.(type) {
	case *ast.VarDecl:
		for i := range v.Decls {
			d := &v.Decls[i]
			if d.Init != nil {
				a.expr(d.Init, sc)
			}
			switch v.Kind {
			case ast.Let, ast.Const:
				a.lexDeclare(d.Name, v.Kind, sc, v.Pos())
			default:
				a.varDeclare(d.Name, sc, v.Pos())
			}
		}
	case *ast.FuncDecl:
		// The name itself was pre-hoisted as a var-like binding.
		a.function(v.Fn, sc)
	case *ast.ExprStmt:
		a.expr(v.X, sc)
	case *ast.BlockStmt:
		inner := newScope(sc, false)
		for _, c := range v.Body {
			a.stmt(c, inner)
		}
	case *ast.IfStmt:
		a.expr(v.Cond, sc)
		a.stmt(v.Then, sc)
		if v.Else != nil {
			a.stmt(v.Else, sc)
		}
	case *ast.ForStmt:
		head := sc
		switch init := v.Init.(type) {
		case *ast.VarDecl:
			if init.Kind != ast.Var {
				head = newScope(sc, false)
			}
			a.stmt(init, head)
		case ast.Expr:
			a.expr(init, sc)
		}
		if v.Cond != nil {
			a.expr(v.Cond, head)
		}
		if v.Post != nil {
			a.expr(v.Post, head)
		}
		a.loop(v.Body, head)
	case *ast.ForInStmt:
		a.expr(v.Obj, sc)
		head := sc
		switch v.Decl {
		case ast.Let, ast.Const:
			head = newScope(sc, false)
			a.lexDeclare(v.Name, v.Decl, head, v.Pos())
		case ast.Var:
			a.varDeclare(v.Name, sc, v.Pos())
		default: // plain-name target: an assignment per iteration
			a.checkWrite(v.Name, sc, v.Pos())
		}
		a.loop(v.Body, head)
	case *ast.WhileStmt:
		a.expr(v.Cond, sc)
		a.loop(v.Body, sc)
	case *ast.DoWhileStmt:
		a.loop(v.Body, sc)
		a.expr(v.Cond, sc)
	case *ast.SwitchStmt:
		a.expr(v.Disc, sc)
		inner := newScope(sc, false) // all case bodies share one scope
		a.swDepth++
		for _, c := range v.Cases {
			if c.Test != nil {
				a.expr(c.Test, inner)
			}
			for _, cs := range c.Body {
				a.stmt(cs, inner)
			}
		}
		a.swDepth--
	case *ast.BreakStmt:
		if v.Label == "" {
			if a.loopDepth == 0 && a.swDepth == 0 {
				a.errorf("bad-break", v.Pos(), "Illegal break statement")
			}
		} else if a.findLabel(v.Label) == nil {
			a.errorf("undefined-label", v.Pos(), "Undefined label %q", v.Label)
		}
	case *ast.ContinueStmt:
		if v.Label == "" {
			if a.loopDepth == 0 {
				a.errorf("bad-continue", v.Pos(), "Illegal continue statement")
			}
		} else if e := a.findLabel(v.Label); e == nil {
			a.errorf("undefined-label", v.Pos(), "Undefined label %q", v.Label)
		} else if !e.iter {
			a.errorf("continue-not-loop", v.Pos(),
				"Illegal continue statement: %q does not denote an iteration statement", v.Label)
		}
	case *ast.ReturnStmt:
		if a.fnDepth == 0 {
			a.errorf("bad-return", v.Pos(), "Illegal return statement")
		}
		if v.X != nil {
			a.expr(v.X, sc)
		}
	case *ast.ThrowStmt:
		a.expr(v.X, sc)
	case *ast.TryStmt:
		if v.Block != nil {
			a.stmt(v.Block, sc)
		}
		if v.Catch != nil {
			// The catch parameter and the catch body's lexical bindings
			// share one scope: `catch (e) { let e; }` is a clash.
			cs := newScope(sc, false)
			if v.CatchParam != "" {
				cs.params = map[string]bool{v.CatchParam: true}
			}
			for _, c := range v.Catch.Body {
				a.stmt(c, cs)
			}
		}
		if v.Finally != nil {
			a.stmt(v.Finally, sc)
		}
	case *ast.LabeledStmt:
		if a.findLabel(v.Label) != nil {
			a.errorf("dup-label", v.Pos(), "Label %q has already been declared", v.Label)
		}
		// A label chain targets an iteration statement when the innermost
		// labeled statement is a loop; every label in the chain is then a
		// valid continue target.
		body := ast.Stmt(v.Body)
		for {
			ls, ok := body.(*ast.LabeledStmt)
			if !ok {
				break
			}
			body = ls.Body
		}
		a.labels = append(a.labels, labelEntry{name: v.Label, iter: isIteration(body)})
		a.stmt(v.Body, sc)
		a.labels = a.labels[:len(a.labels)-1]
	}
}

// loop analyzes a loop body with the iteration context open.
func (a *early) loop(body ast.Stmt, sc *escope) {
	a.loopDepth++
	a.stmt(body, sc)
	a.loopDepth--
}

func isIteration(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ForStmt, *ast.ForInStmt, *ast.WhileStmt, *ast.DoWhileStmt:
		return true
	}
	return false
}

// function analyzes a function literal: a fresh function scope seeded
// with the parameters and pre-hoisted vars, and a fresh label/loop
// context (labels do not cross function boundaries).
func (a *early) function(fn *ast.FuncLit, outer *escope) {
	sc := newScope(outer, true)
	sc.params = map[string]bool{}
	for _, p := range fn.Params {
		sc.params[p] = true
	}
	if fn.Rest != "" {
		sc.params[fn.Rest] = true
	}

	savedLabels, savedLoop, savedSw := a.labels, a.loopDepth, a.swDepth
	a.labels, a.loopDepth, a.swDepth = nil, 0, 0
	a.fnDepth++

	if fn.ExprBody != nil {
		a.expr(fn.ExprBody, sc)
	} else if fn.Body != nil {
		prehoist(fn.Body.Body, sc)
		for _, s := range fn.Body.Body {
			a.stmt(s, sc)
		}
	}

	a.fnDepth--
	a.labels, a.loopDepth, a.swDepth = savedLabels, savedLoop, savedSw
}

// expr analyzes one expression in scope sc.
func (a *early) expr(e ast.Expr, sc *escope) {
	switch v := e.(type) {
	case nil:
		return
	case *ast.FuncLit:
		a.function(v, sc)
	case *ast.AssignExpr:
		if id, ok := v.L.(*ast.Ident); ok {
			a.checkWrite(id.Name, sc, v.Pos())
		} else {
			a.expr(v.L, sc)
		}
		a.expr(v.R, sc)
	case *ast.UpdateExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			a.checkWrite(id.Name, sc, v.Pos())
		} else {
			a.expr(v.X, sc)
		}
	default:
		ast.EachChild(e, func(c ast.Node) {
			if ce, ok := c.(ast.Expr); ok {
				a.expr(ce, sc)
			}
		})
	}
}
