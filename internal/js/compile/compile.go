// Package compile implements the interpreter's compile-once pass: a single
// walk over a parsed-and-resolved program that turns every AST node into an
// executable closure thunk. A campaign executes one cached program dozens
// of times (once per behaviour class per case, plus reduction predicates);
// the tree walker pays a type switch, interface conversions and virtual
// dispatch per node per execution, while a compiled program pays them once,
// at compile time — execution is direct closure calls over pre-resolved
// operands.
//
// The pass preserves the tree walker's observable contract exactly, and the
// tree walker remains in service as the differential oracle's second
// implementation: a program that skips this pass tree-walks end to end,
// because every FuncLit.Compiled stays nil (the engines package's path
// oracle compares the two). The invariants that keep the two evaluators
// byte-identical, including fuel:
//
//   - Fuel is charged at the same sites with the same amounts: one step at
//     every statement and expression entry, per loop iteration, per for-in
//     binding, and whatever the shared runtime helpers (Call, GetPropKey,
//     SetProp, ...) charge internally — the thunks call the exact same
//     helpers.
//   - Coverage is recorded at the same statements, functions and branch
//     arms.
//   - Seeded-defect hooks fire identically: every hook site lives inside a
//     shared runtime helper (Call, SetProp, SetPropByValue, eval), so a
//     compiled program shared between testbeds with different hook chains
//     behaves per-testbed exactly as the tree walk would.
//   - The labelled break/continue protocol stays dynamic (the pending-label
//     handshake), because the tree walker lets a label flow through
//     arbitrary statements — even across calls — until the first loop
//     consumes it; no static attachment reproduces that.
//
// Compilation additionally marks scopes whose frames provably cannot
// escape (no function literal below them closes over the frame) as
// Poolable; the interpreter recycles those frames through a free list
// instead of allocating a []binding per activation.
//
// Like resolution, compilation runs once, before the program is shared
// across goroutines; execution only reads the annotations.
package compile

import (
	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
)

// ctrlKind mirrors the tree walker's control-flow signal.
type ctrlKind uint8

const (
	ctrlNormal ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// stmtThunk executes one compiled statement. The completion record is a
// one-byte control kind; the label and return-value payloads travel in
// the interpreter's control registers (interp.CtrlLabel/CtrlVal), written
// by the producing thunk and read by the direct consumer before any other
// thunk runs — try/finally, the one construct that executes statements in
// between, snapshots and restores them.
type stmtThunk func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error)

// exprThunk evaluates one compiled expression.
type exprThunk func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error)

// Compiled is a program's executable thunk form, attached to
// ast.Program.Compiled. It shares the cache entry (and the concurrency
// contract) of the scope annotations it was compiled from.
type Compiled struct {
	hoist      []ast.HoistedDecl
	body       []stmtThunk
	progStrict bool
}

// Program compiles a resolved program in place, attaching the thunk tree
// to prog.Compiled and a CompiledBody to every function literal. It is
// idempotent and must run before the program is shared across goroutines
// (the same contract as resolve.Program). Unresolved programs are left
// untouched — the compiler consumes the resolver's scope layout.
func Program(prog *ast.Program) {
	if prog.Compiled != nil || !prog.ResolvedScopes {
		return
	}
	c := &compiler{}
	cp := &Compiled{
		// The hoist plan is the shared traversal the tree walker's hoist
		// step consumes too (ast.HoistedDecls) — one definition of what
		// hoists, in what order.
		hoist:      ast.HoistedDecls(prog.Body),
		body:       c.seq(prog.Body),
		progStrict: prog.Strict,
	}
	prog.Compiled = cp
}

// Of returns the program's compiled form, or nil when the program has not
// been through the compile pass.
func Of(prog *ast.Program) *Compiled {
	cp, _ := prog.Compiled.(*Compiled)
	return cp
}

// Run executes the compiled program in the interpreter's global scope —
// the thunk twin of interp.Run.
func (cp *Compiled) Run(in *interp.Interp) error {
	strict := in.Strict || cp.progStrict
	for _, a := range cp.hoist {
		if a.Fn != nil {
			fobj := in.MakeFunction(a.Fn, in.GlobalEnv, strict)
			in.Global.SetSlot(a.Name, interp.ObjValue(fobj), interp.Writable|interp.Enumerable)
		} else if !in.Global.HasOwn(a.Name) {
			in.Global.SetSlot(a.Name, interp.Undefined(), interp.Writable|interp.Enumerable)
		}
	}
	for _, th := range cp.body {
		c, err := th(in, in.GlobalEnv, strict)
		if err != nil {
			return err
		}
		if c != ctrlNormal {
			break
		}
	}
	return nil
}

// runSeq executes a compiled statement list — the thunk twin of
// execStmts.
func runSeq(ths []stmtThunk, in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
	for _, th := range ths {
		c, err := th(in, env, strict)
		if err != nil {
			return ctrlNormal, err
		}
		if c != ctrlNormal {
			return c, nil
		}
	}
	return ctrlNormal, nil
}

// compiler is the per-program compile pass, shared by the program body
// and every nested function body.
type compiler struct{}

// seq compiles a statement list.
func (c *compiler) seq(ss []ast.Stmt) []stmtThunk {
	if len(ss) == 0 {
		return nil
	}
	out := make([]stmtThunk, len(ss))
	for i, s := range ss {
		out[i] = c.stmt(s)
	}
	return out
}

// frameFor materialises the environment a compiled scope statement runs
// in; pool reports whether the caller owns the frame and must release it.
func frameFor(in *interp.Interp, env *interp.Env, scope *ast.ScopeInfo, pool bool) (*interp.Env, bool) {
	if pool {
		return in.AcquireScope(env, scope, false), true
	}
	return in.ScopeEnv(env, scope), false
}

// poolableScope reports whether scope materialises a frame that the
// compiled path may recycle: non-empty, and no function literal in the
// given subtrees can close over it.
func poolableScope(scope *ast.ScopeInfo, subtrees ...ast.Node) bool {
	if scope == nil || scope.NumSlots == 0 {
		return false
	}
	return !subtreeHasFunc(subtrees...)
}

// subtreeHasFunc reports whether any function literal or declaration
// occurs in the given subtrees (the frame-escape condition).
func subtreeHasFunc(nodes ...ast.Node) bool {
	found := false
	probe := func(m ast.Node) bool {
		if found {
			return false
		}
		switch m.(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			found = true
			return false
		}
		return true
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Walk(n, probe)
		if found {
			return true
		}
	}
	return false
}

// stmtsAsNodes adapts a statement list for subtreeHasFunc.
func stmtsAsNodes(ss []ast.Stmt) []ast.Node {
	out := make([]ast.Node, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// ---------- statements ----------

// stmt compiles one statement. Every produced thunk opens with the tree
// walker's statement prologue: one fuel step, then statement coverage.
func (c *compiler) stmt(s ast.Stmt) stmtThunk {
	id := s.ID()
	switch st := s.(type) {
	case *ast.VarDecl:
		decls := c.varDecl(st)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return runDecls(decls, in, env, strict)
		}
	case *ast.FuncDecl:
		// Hoisted; at execution time only the prologue remains.
		c.funcBody(st.Fn)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return ctrlNormal, nil
		}
	case *ast.ExprStmt:
		x := c.expr(st.X)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			// The tree walker forwards the expression value in its ctrl
			// record for eval's completion-value rule; compiled programs
			// never run under eval, so the value is dropped here.
			if _, err := x(in, env, strict); err != nil {
				return ctrlNormal, err
			}
			return ctrlNormal, nil
		}
	case *ast.BlockStmt:
		body := c.seq(st.Body)
		scope := st.Scope
		pool := poolableScope(scope, stmtsAsNodes(st.Body)...)
		// Thin blocks — a slotless scope around a single statement, the
		// shape of virtually every fuzzer loop body — skip the frame
		// machinery and the sequence loop.
		if scope != nil && scope.NumSlots == 0 && len(body) == 1 {
			inner := body[0]
			return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
				if err := in.Charge(1); err != nil {
					return ctrlNormal, err
				}
				if in.Cov != nil {
					in.Cov.Stmts[id] = true
				}
				env2 := env
				if env == in.GlobalEnv {
					// Top-level blocks still need the child frame (var
					// semantics distinguish it; see Interp.ScopeEnv).
					env2 = in.ScopeEnv(env, scope)
				}
				return inner(in, env2, strict)
			}
		}
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			env2, owned := frameFor(in, env, scope, pool)
			ctl, err := runSeq(body, in, env2, strict)
			if owned {
				in.ReleaseScope(env2)
			}
			return ctl, err
		}
	case *ast.EmptyStmt, *ast.DebuggerStmt:
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return ctrlNormal, nil
		}
	case *ast.IfStmt:
		cond := c.expr(st.Cond)
		then := c.stmt(st.Then)
		var els stmtThunk
		if st.Else != nil {
			els = c.stmt(st.Else)
		}
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			cv, err := cond(in, env, strict)
			if err != nil {
				return ctrlNormal, err
			}
			if interp.ToBoolean(cv) {
				if in.Cov != nil {
					in.Cov.Branches[[2]int{id, 0}] = true
				}
				return then(in, env, strict)
			}
			if in.Cov != nil {
				in.Cov.Branches[[2]int{id, 1}] = true
			}
			if els != nil {
				return els(in, env, strict)
			}
			return ctrlNormal, nil
		}
	case *ast.WhileStmt:
		cond := c.expr(st.Cond)
		body := c.stmt(st.Body)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return runLoop(in, env, strict, cond, nil, body, id, false)
		}
	case *ast.DoWhileStmt:
		cond := c.expr(st.Cond)
		body := c.stmt(st.Body)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return runLoop(in, env, strict, cond, nil, body, id, true)
		}
	case *ast.ForStmt:
		return c.forStmt(st)
	case *ast.ForInStmt:
		return c.forInStmt(st)
	case *ast.SwitchStmt:
		return c.switchStmt(st)
	case *ast.BreakStmt:
		label := st.Label
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			in.SetCtrlLabel(label)
			return ctrlBreak, nil
		}
	case *ast.ContinueStmt:
		label := st.Label
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			in.SetCtrlLabel(label)
			return ctrlContinue, nil
		}
	case *ast.ReturnStmt:
		var x exprThunk
		if st.X != nil {
			x = c.expr(st.X)
		}
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			v := interp.Undefined()
			if x != nil {
				var err error
				v, err = x(in, env, strict)
				if err != nil {
					return ctrlNormal, err
				}
			}
			in.SetCtrlVal(v)
			return ctrlReturn, nil
		}
	case *ast.ThrowStmt:
		x := c.expr(st.X)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			v, err := x(in, env, strict)
			if err != nil {
				return ctrlNormal, err
			}
			return ctrlNormal, &interp.Throw{Val: v}
		}
	case *ast.TryStmt:
		return c.tryStmt(st)
	case *ast.LabeledStmt:
		label := st.Label
		body := c.stmt(st.Body)
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			in.SetPendingLabel(label)
			ctl, err := body(in, env, strict)
			in.SetPendingLabel("")
			if err != nil {
				return ctrlNormal, err
			}
			if (ctl == ctrlBreak || ctl == ctrlContinue) && in.CtrlLabel() == label {
				return ctrlNormal, nil
			}
			return ctl, nil
		}
	default:
		return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
			if err := in.Charge(1); err != nil {
				return ctrlNormal, err
			}
			if in.Cov != nil {
				in.Cov.Stmts[id] = true
			}
			return ctrlNormal, in.Throwf("InternalError", "unsupported statement %T", s)
		}
	}
}

// declThunk executes one compiled declarator (evaluate init, write the
// resolved target).
type declThunk func(in *interp.Interp, env *interp.Env, strict bool) error

func runDecls(decls []declThunk, in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
	for _, d := range decls {
		if err := d(in, env, strict); err != nil {
			return ctrlNormal, err
		}
	}
	return ctrlNormal, nil
}

// varDecl compiles a var/let/const statement's declarators. The thunks
// carry no statement prologue: the tree walker's for-loop init path
// executes declarators without re-entering execStmt, and the compiled
// for-loop relies on the same property.
func (c *compiler) varDecl(st *ast.VarDecl) []declThunk {
	out := make([]declThunk, 0, len(st.Decls))
	for i := range st.Decls {
		d := &st.Decls[i]
		var init exprThunk
		nameFix := false
		if d.Init != nil {
			init = c.expr(d.Init)
			if fn, ok := d.Init.(*ast.FuncLit); ok && fn.Name == "" {
				nameFix = true
			}
		}
		name := d.Name
		kind := st.Kind
		ref := d.Ref
		out = append(out, func(in *interp.Interp, env *interp.Env, strict bool) error {
			var v interp.Value
			if init != nil {
				var err error
				v, err = init(in, env, strict)
				if err != nil {
					return err
				}
				if nameFix && v.IsObject() {
					v.Obj().SetSlot("name", interp.String(name), interp.Configurable)
				}
			}
			if ref.Kind == ast.RefSlot {
				switch kind {
				case ast.Var:
					in.DeclareSlotVar(env, ref.Depth, ref.Slot, v)
				case ast.Let:
					env.AtDepth(ref.Depth).SetSlotLexical(ref.Slot, v, true)
				case ast.Const:
					env.AtDepth(ref.Depth).SetSlotLexical(ref.Slot, v, false)
				}
				return nil
			}
			switch kind {
			case ast.Var:
				if env != in.GlobalEnv {
					env.DeclareVar(name, v)
				} else if init != nil {
					// Hoisting created the property; a declarator
					// without an initializer writes nothing.
					in.Global.SetSlot(name, v, interp.Writable|interp.Enumerable)
				}
			case ast.Let:
				env.DeclareLexical(name, v, true)
			case ast.Const:
				env.DeclareLexical(name, v, false)
			}
			return nil
		})
	}
	return out
}

// runLoop is the thunk twin of execLoop: while, do-while and the
// three-clause for share it, with identical fuel charging, branch
// coverage and labelled break/continue handling.
func runLoop(in *interp.Interp, env *interp.Env, strict bool, cond, post exprThunk,
	body stmtThunk, nodeID int, doWhile bool) (ctrlKind, error) {
	myLabel := in.TakePendingLabel()
	first := true
	for {
		if err := in.Charge(1); err != nil {
			return ctrlNormal, err
		}
		if !(doWhile && first) && cond != nil {
			cv, err := cond(in, env, strict)
			if err != nil {
				return ctrlNormal, err
			}
			if !interp.ToBoolean(cv) {
				if in.Cov != nil {
					in.Cov.Branches[[2]int{nodeID, 1}] = true
				}
				return ctrlNormal, nil
			}
			if in.Cov != nil {
				in.Cov.Branches[[2]int{nodeID, 0}] = true
			}
		}
		first = false
		c, err := body(in, env, strict)
		if err != nil {
			return ctrlNormal, err
		}
		switch c {
		case ctrlBreak:
			if l := in.CtrlLabel(); l == "" || l == myLabel {
				return ctrlNormal, nil
			}
			return c, nil
		case ctrlContinue:
			if l := in.CtrlLabel(); l != "" && l != myLabel {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
		if doWhile && cond != nil {
			cv, err := cond(in, env, strict)
			if err != nil {
				return ctrlNormal, err
			}
			if !interp.ToBoolean(cv) {
				return ctrlNormal, nil
			}
			// Re-enter loop without re-testing at top.
			first = true
		}
		if post != nil {
			if _, err := post(in, env, strict); err != nil {
				return ctrlNormal, err
			}
		}
	}
}

func (c *compiler) forStmt(st *ast.ForStmt) stmtThunk {
	id := st.ID()
	scope := st.Scope
	pool := poolableScope(scope, st.Init, st.Cond, st.Post, st.Body)
	var initDecls []declThunk
	var initExpr exprThunk
	switch init := st.Init.(type) {
	case *ast.VarDecl:
		initDecls = c.varDecl(init)
	case ast.Expr:
		initExpr = c.expr(init)
	}
	var cond, post exprThunk
	if st.Cond != nil {
		cond = c.expr(st.Cond)
	}
	if st.Post != nil {
		post = c.expr(st.Post)
	}
	body := c.stmt(st.Body)
	return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
		if err := in.Charge(1); err != nil {
			return ctrlNormal, err
		}
		if in.Cov != nil {
			in.Cov.Stmts[id] = true
		}
		label := in.TakePendingLabel()
		loopEnv, owned := frameFor(in, env, scope, pool)
		if initDecls != nil {
			if _, err := runDecls(initDecls, in, loopEnv, strict); err != nil {
				if owned {
					in.ReleaseScope(loopEnv)
				}
				return ctrlNormal, err
			}
		} else if initExpr != nil {
			if _, err := initExpr(in, loopEnv, strict); err != nil {
				if owned {
					in.ReleaseScope(loopEnv)
				}
				return ctrlNormal, err
			}
		}
		in.SetPendingLabel(label)
		ctl, err := runLoop(in, loopEnv, strict, cond, post, body, id, false)
		if owned {
			in.ReleaseScope(loopEnv)
		}
		return ctl, err
	}
}

func (c *compiler) forInStmt(st *ast.ForInStmt) stmtThunk {
	id := st.ID()
	scope := st.Scope
	pool := poolableScope(scope, st.Body)
	obj := c.expr(st.Obj)
	body := c.stmt(st.Body)
	of := st.Of

	// The per-iteration binding/assignment, specialised at compile time —
	// the thunk twin of execForIn's assign closure.
	name := st.Name
	ref := st.NameRef
	var assign func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error
	switch st.Decl {
	case ast.Let, ast.Const:
		if ref.Kind == ast.RefSlot {
			slot := ref.Slot
			assign = func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error {
				// The map evaluator declares both kinds mutable here.
				loopEnv.SetSlotLexical(slot, v, true)
				return nil
			}
		} else {
			assign = func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error {
				loopEnv.DeclareLexical(name, v, true)
				return nil
			}
		}
	case ast.Var:
		if ref.Kind == ast.RefSlot {
			depth, slot := ref.Depth, ref.Slot
			assign = func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error {
				in.DeclareSlotVar(loopEnv, depth, slot, v)
				return nil
			}
		} else {
			assign = func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error {
				loopEnv.DeclareVar(name, v)
				return nil
			}
		}
	default:
		set := identAssigner(name, ref)
		assign = func(in *interp.Interp, loopEnv *interp.Env, v interp.Value, strict bool) error {
			return set(in, loopEnv, v, strict)
		}
	}

	return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
		if err := in.Charge(1); err != nil {
			return ctrlNormal, err
		}
		if in.Cov != nil {
			in.Cov.Stmts[id] = true
		}
		myLabel := in.TakePendingLabel()
		ov, err := obj(in, env, strict)
		if err != nil {
			return ctrlNormal, err
		}
		loopEnv, owned := frameFor(in, env, scope, pool)
		release := func() {
			if owned {
				in.ReleaseScope(loopEnv)
			}
		}
		var items []interp.Value
		if of {
			items, err = in.Iterate(ov)
		} else {
			items, err = in.ForInKeys(ov)
		}
		if err != nil {
			release()
			return ctrlNormal, err
		}
		for _, item := range items {
			if err := in.Charge(1); err != nil {
				release()
				return ctrlNormal, err
			}
			if err := assign(in, loopEnv, item, strict); err != nil {
				release()
				return ctrlNormal, err
			}
			ctl, err := body(in, loopEnv, strict)
			if err != nil {
				release()
				return ctrlNormal, err
			}
			switch ctl {
			case ctrlBreak:
				release()
				if l := in.CtrlLabel(); l == "" || l == myLabel {
					return ctrlNormal, nil
				}
				return ctl, nil
			case ctrlContinue:
				if l := in.CtrlLabel(); l != "" && l != myLabel {
					release()
					return ctl, nil
				}
			case ctrlReturn:
				release()
				return ctl, nil
			}
		}
		release()
		return ctrlNormal, nil
	}
}

func (c *compiler) switchStmt(st *ast.SwitchStmt) stmtThunk {
	id := st.ID()
	scope := st.Scope
	var subtrees []ast.Node
	for _, cs := range st.Cases {
		if cs.Test != nil {
			subtrees = append(subtrees, cs.Test)
		}
		subtrees = append(subtrees, stmtsAsNodes(cs.Body)...)
	}
	pool := poolableScope(scope, subtrees...)
	disc := c.expr(st.Disc)
	tests := make([]exprThunk, len(st.Cases))
	bodies := make([][]stmtThunk, len(st.Cases))
	defaultCase := -1
	for i, cs := range st.Cases {
		if cs.Test != nil {
			tests[i] = c.expr(cs.Test)
		} else if defaultCase < 0 {
			defaultCase = i
		}
		bodies[i] = c.seq(cs.Body)
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
		if err := in.Charge(1); err != nil {
			return ctrlNormal, err
		}
		if in.Cov != nil {
			in.Cov.Stmts[id] = true
		}
		dv, err := disc(in, env, strict)
		if err != nil {
			return ctrlNormal, err
		}
		inner, owned := frameFor(in, env, scope, pool)
		release := func() {
			if owned {
				in.ReleaseScope(inner)
			}
		}
		matched := -1
		for i, test := range tests {
			if test == nil {
				continue
			}
			tv, err := test(in, inner, strict)
			if err != nil {
				release()
				return ctrlNormal, err
			}
			if interp.SameValueStrict(dv, tv) {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultCase
		}
		if matched < 0 {
			release()
			return ctrlNormal, nil
		}
		if in.Cov != nil {
			in.Cov.Branches[[2]int{id, matched}] = true
		}
		for i := matched; i < len(bodies); i++ {
			for _, th := range bodies[i] {
				ctl, err := th(in, inner, strict)
				if err != nil {
					release()
					return ctrlNormal, err
				}
				switch ctl {
				case ctrlBreak:
					release()
					if in.CtrlLabel() == "" {
						return ctrlNormal, nil
					}
					return ctl, nil
				case ctrlContinue, ctrlReturn:
					release()
					return ctl, nil
				}
			}
		}
		release()
		return ctrlNormal, nil
	}
}

func (c *compiler) tryStmt(st *ast.TryStmt) stmtThunk {
	id := st.ID()
	blockScope := st.Block.Scope
	blockPool := poolableScope(blockScope, stmtsAsNodes(st.Block.Body)...)
	block := c.seq(st.Block.Body)
	var catchBody []stmtThunk
	var catchScope *ast.ScopeInfo
	catchPool := false
	hasCatch := st.Catch != nil
	catchParam := st.CatchParam
	catchSlot := int32(-1)
	if hasCatch {
		catchScope = st.Catch.Scope
		catchPool = poolableScope(catchScope, stmtsAsNodes(st.Catch.Body)...)
		catchBody = c.seq(st.Catch.Body)
		if catchScope != nil {
			catchSlot = catchScope.CatchParamSlot
		}
	}
	var finallyBody []stmtThunk
	var finallyScope *ast.ScopeInfo
	finallyPool := false
	hasFinally := st.Finally != nil
	if hasFinally {
		finallyScope = st.Finally.Scope
		finallyPool = poolableScope(finallyScope, stmtsAsNodes(st.Finally.Body)...)
		finallyBody = c.seq(st.Finally.Body)
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (ctrlKind, error) {
		if err := in.Charge(1); err != nil {
			return ctrlNormal, err
		}
		if in.Cov != nil {
			in.Cov.Stmts[id] = true
		}
		blockEnv, owned := frameFor(in, env, blockScope, blockPool)
		ctl, err := runSeq(block, in, blockEnv, strict)
		if owned {
			in.ReleaseScope(blockEnv)
		}
		if err != nil {
			if t, ok := interp.IsThrow(err); ok && hasCatch {
				catchEnv, cowned := frameFor(in, env, catchScope, catchPool)
				if catchParam != "" {
					if catchSlot >= 0 {
						catchEnv.SetSlotLexical(uint16(catchSlot), t.Val, true)
					} else {
						catchEnv.DeclareLexical(catchParam, t.Val, true)
					}
				}
				ctl, err = runSeq(catchBody, in, catchEnv, strict)
				if cowned {
					in.ReleaseScope(catchEnv)
				}
			}
		}
		if hasFinally {
			// The finally body may clobber the control registers with its
			// own (consumed) break/continue/return signals; snapshot the
			// propagating completion's payload around it.
			savedLabel, savedVal := in.CtrlLabel(), in.CtrlVal()
			finallyEnv, fowned := frameFor(in, env, finallyScope, finallyPool)
			fc, ferr := runSeq(finallyBody, in, finallyEnv, strict)
			if fowned {
				in.ReleaseScope(finallyEnv)
			}
			if ferr != nil {
				return ctrlNormal, ferr
			}
			if fc != ctrlNormal {
				return fc, nil
			}
			in.SetCtrlLabel(savedLabel)
			in.SetCtrlVal(savedVal)
		}
		return ctl, err
	}
}

// funcBody compiles a function literal's body into an interp.CompiledBody
// and attaches it; MakeFunction copies the attachment onto every function
// object created from the literal. Literals the resolver left without a
// scope stay uncompiled (Call tree-walks them — the dynamic fallback).
func (c *compiler) funcBody(lit *ast.FuncLit) {
	if lit == nil || lit.Compiled != nil || lit.Scope == nil {
		return
	}
	lit.Scope.Poolable = !subtreeHasFunc(lit.Body, lit.ExprBody)
	if lit.ExprBody != nil {
		th := c.expr(lit.ExprBody)
		lit.Compiled = interp.CompiledBody(th)
		return
	}
	id := lit.ID()
	body := c.seq(lit.Body.Body)
	lit.Compiled = interp.CompiledBody(func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if in.Cov != nil {
			in.Cov.Funcs[id] = true
		}
		ctl, err := runSeq(body, in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		if ctl == ctrlReturn {
			return in.CtrlVal(), nil
		}
		return interp.Undefined(), nil
	})
}
