package analyze

import (
	"fmt"

	"comfort/internal/js/ast"
)

// warnings runs the static quality passes (the JSHint-substitute
// layer): unused declarations, assignments in conditions,
// duplicate object keys, and unreachable statements. Output order is
// deterministic: the structural passes in tree walk order, then unused
// declarations in source order.
func warnings(prog *ast.Program, r *Report) {
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IfStmt:
			if _, ok := v.Cond.(*ast.AssignExpr); ok {
				r.Warnings = append(r.Warnings, fmt.Sprintf("line %d: assignment in condition; did you mean ==?", v.Pos().Line))
			}
		case *ast.ObjectLit:
			seen := map[string]bool{}
			for _, p := range v.Props {
				if p.Computed || p.Kind != ast.PropInit {
					continue
				}
				if seen[p.Key] {
					r.Warnings = append(r.Warnings, fmt.Sprintf("line %d: duplicate object key %q", v.Pos().Line, p.Key))
				}
				seen[p.Key] = true
			}
		case *ast.BlockStmt:
			r.Warnings = append(r.Warnings, unreachable(v.Body)...)
		}
		return true
	})
	r.Warnings = append(r.Warnings, unusedWarnings(prog)...)
}

// unreachable flags statements following an unconditional control transfer.
func unreachable(body []ast.Stmt) []string {
	var out []string
	for i, s := range body {
		terminal := false
		switch s.(type) {
		case *ast.ReturnStmt, *ast.ThrowStmt, *ast.BreakStmt, *ast.ContinueStmt:
			terminal = true
		}
		if terminal && i+1 < len(body) {
			next := body[i+1]
			if _, isFn := next.(*ast.FuncDecl); !isFn {
				out = append(out, fmt.Sprintf("line %d: unreachable code", next.Pos().Line))
			}
			break
		}
	}
	return out
}

// The unused-declaration pass is scope-aware: a declaration counts as
// used only when some reference actually resolves to it through the
// lexical scope chain — var declarations hoist to their function scope,
// let/const bind in their block — so a name used only in a sibling
// function no longer masks an unused binding of the same name, and a
// shadowed outer binding is not marked used by references to its inner
// shadow.

type wdecl struct {
	name string
	used bool
}

type wscope struct {
	parent *wscope
	fn     bool // function or program scope: var declarations land here
	decls  map[string]*wdecl
}

type wref struct {
	sc   *wscope
	name string
}

// unusedWarnings reports declarations never referenced, in source order.
func unusedWarnings(prog *ast.Program) []string {
	u := &unused{}
	root := u.scope(nil, true)
	for _, s := range prog.Body {
		u.collect(s, root)
	}
	for _, ref := range u.refs {
		for s := ref.sc; s != nil; s = s.parent {
			if d, ok := s.decls[ref.name]; ok {
				d.used = true
				break
			}
		}
	}
	var out []string
	for _, d := range u.order {
		if !d.used {
			out = append(out, fmt.Sprintf("unused variable %q", d.name))
		}
	}
	return out
}

type unused struct {
	order []*wdecl
	refs  []wref
}

func (u *unused) scope(parent *wscope, fn bool) *wscope {
	return &wscope{parent: parent, fn: fn, decls: map[string]*wdecl{}}
}

func (u *unused) declare(name string, sc *wscope, hoist bool) {
	target := sc
	if hoist {
		for !target.fn {
			target = target.parent
		}
	}
	if _, ok := target.decls[name]; ok {
		return // redeclaration: one report per binding is enough
	}
	d := &wdecl{name: name}
	target.decls[name] = d
	u.order = append(u.order, d)
}

// collect builds the scope tree, recording declarations and references;
// resolution happens afterwards so hoisted and forward references work.
func (u *unused) collect(n ast.Node, sc *wscope) {
	switch v := n.(type) {
	case nil:
		return
	case *ast.VarDecl:
		for i := range v.Decls {
			d := &v.Decls[i]
			u.declare(d.Name, sc, v.Kind == ast.Var)
			if d.Init != nil {
				u.collect(d.Init, sc)
			}
		}
	case *ast.Ident:
		u.refs = append(u.refs, wref{sc: sc, name: v.Name})
	case *ast.FuncLit:
		inner := u.scope(sc, true)
		if v.ExprBody != nil {
			u.collect(v.ExprBody, inner)
		} else if v.Body != nil {
			for _, s := range v.Body.Body {
				u.collect(s, inner)
			}
		}
	case *ast.BlockStmt:
		inner := u.scope(sc, false)
		for _, s := range v.Body {
			u.collect(s, inner)
		}
	case *ast.ForStmt:
		head := u.scope(sc, false)
		for _, c := range ast.Children(v) {
			u.collect(c, head)
		}
	case *ast.ForInStmt:
		head := u.scope(sc, false)
		switch v.Decl {
		case ast.Let, ast.Const:
			u.declare(v.Name, head, false)
		case ast.Var:
			u.declare(v.Name, head, true)
		default:
			u.refs = append(u.refs, wref{sc: sc, name: v.Name})
		}
		u.collect(v.Obj, sc)
		u.collect(v.Body, head)
	case *ast.SwitchStmt:
		u.collect(v.Disc, sc)
		inner := u.scope(sc, false)
		for _, c := range v.Cases {
			for _, cc := range ast.Children(c) {
				u.collect(cc, inner)
			}
		}
	default:
		for _, c := range ast.Children(n) {
			u.collect(c, sc)
		}
	}
}
