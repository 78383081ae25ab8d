// Package resolve implements the interpreter's resolve-once pass: a single
// walk over a parsed program that annotates the AST with its static scope
// layout, so that executing the program — which a differential-testing
// campaign does dozens of times per parse, once per behaviour class — pays
// O(1) slot accesses instead of hash lookups over a chain of per-scope maps.
//
// Every scope node (function body, block, for/for-in head, switch body,
// catch clause) gets an ast.ScopeInfo recording its frame size and named
// slot roles; every identifier reference gets an ast.ScopeRef. A scope
// materialises a frame at run time iff it has at least one slot, so most
// fuzzer-generated blocks (which declare nothing lexical) cost no
// allocation at all.
//
// The pass must reproduce the dynamic evaluator's scope semantics exactly —
// var hoisting into function frames, function declarations hoisted past
// intermediate blocks, catch parameters, function expression self-names,
// the TDZ-free ES2015-core rule that a let/const binding becomes visible
// only when its declaration executes, and the quirk that top-level var and
// for-in bindings live on the global object/environment. Three reference
// classes keep that guarantee:
//
//   - RefSlot: emitted only when the binding is provably live at every
//     execution of the reference. Entry-live bindings (params, rest,
//     arguments, self-names, catch params, hoisted vars and function
//     declarations) are always provable; a block's let/const is provable
//     for references in strictly later statements of the same block,
//     including inside function literals created there — but never from
//     inside a hoisted function declaration (callable before the let runs)
//     and never across a switch's case bodies (execution may enter at any
//     case).
//   - RefGlobal: emitted when no scope between the reference and the
//     global scope declares the name at all, so the dynamic walk could only
//     ever end on the global environment or the global object. Sound
//     because eval executes exclusively in the global environment — inner
//     scopes are never extended dynamically.
//   - RefDynamic: everything else falls back to the by-name walk, which is
//     semantically identical to the unresolved evaluator (slot frames are
//     scanned by name, honouring per-slot liveness).
//
// The same walk applies the spec's static semantics for the rules the
// parser itself does not enforce, and stores the violations on the program
// (ast.Program.EarlyErrors, in source order):
//
//   - duplicate lexical declarations: a let/const name may not collide
//     with another lexical binding, a parameter, or a var declared
//     anywhere in the same scope's subtree (vars hoist through blocks,
//     so `let a; { var a; }` is as invalid as `let a; let a;`)
//   - label static semantics: break/continue to an undeclared label,
//     continue to a label that does not denote an iteration statement,
//     and duplicate nested labels
//   - assignment to a const binding (including ++/--, compound assigns
//     and for-in targets) — enforced ahead of execution as a
//     SyntaxError; DESIGN.md documents this deliberate strengthening of
//     the spec's runtime TypeError
//   - return outside a function and unlabeled break/continue outside a
//     loop (defensive: the parser already rejects these forms)
//
// Rules the parser owns stay out: duplicate parameters and strict
// delete-of-variable are parse errors gated by defect parser options
// (AllowDuplicateParams and friends), and re-checking them here would
// mask exactly the seeded parser defects the campaign exists to find.
//
// The early rules see the scopes as the source text nests them, which is
// not always the runtime frame chain: a hoisted function declaration's
// body sits in the block that contains it (scope.outer), and a for or
// for-in head that declares nothing lexical is no scope of its own
// (scope.noLex). Each name's binding kind is recorded when its declaration
// is walked, so the rules are deliberately conservative where the
// engines' dynamic semantics are forgiving: const-assignment is only
// reported when the const declaration precedes the write in the walk (a
// write resolving to the global object never misfires), var and function
// names are bound from function entry so writes that target a hoisted
// local are never misattributed to an outer const, and programs that
// mention eval skip const checks on program-level bindings (eval can only
// touch the global environment in this subset).
package resolve

import (
	"fmt"
	"math"

	"comfort/internal/js/ast"
	"comfort/internal/js/token"
)

// Declaration-index markers: idxEntry bindings are live from frame entry
// (provable regardless of control flow); idxNever bindings are never
// statically provable. Plain statement indices sit in between.
const (
	idxEntry = -2
	idxNever = math.MaxInt32
)

// maxSlots caps a frame's slot count; declarations beyond it stay on the
// dynamic overlay path (a non-issue for generated programs, but the
// resolver must not mis-index).
const maxSlots = 0xFFF0

// Program annotates prog in place and records its early errors. It is
// idempotent and must be called before the program is shared across
// goroutines (annotations are plain field writes); execution itself only
// reads them.
func Program(prog *ast.Program) {
	if prog.ResolvedScopes {
		return
	}
	prog.ResolvedScopes = true
	g := &scope{global: true, isFunc: true, curIndex: -1}
	r := &resolver{global: g, body: prog.Body}
	r.stmts(prog.Body, g)
	prog.EarlyErrors = r.earlyErrors()
	prog.Shadowing = r.shadowing
}

// scope is the resolver's view of one runtime scope.
type scope struct {
	parent    *scope
	info      *ast.ScopeInfo
	global    bool // the root pseudo-scope (always dynamic)
	isFunc    bool // var-scope boundary
	hoistedFn bool // a function entered via a hoisted FuncDecl
	slots     map[string]uint16
	declIndex map[string]int
	// outer is the next scope out as the early rules see it: the nearest
	// enclosing scope in the source text that is not noLex.
	outer *scope
	// noLex marks a for or for-in head without let/const: the early rules
	// declare into (and look up from) its outer scope instead.
	noLex bool
	// kinds records the binding kinds the early rules add as the walk
	// reaches each declaration: Let and Const for lexical declarations,
	// ast.Var for a var hoisting through a block, and the program's vars
	// and function names on the global pseudo-scope. Parameters, catch
	// parameters and a function's hoisted names need no record: they are
	// the entry-live names of declIndex (see kind). Allocated on first use.
	kinds map[string]ast.VarKind
	// poisoned marks a scope that hit the slot cap: some of its
	// declarations live on the dynamic overlay, so references walking
	// through it can no longer be proven to miss it.
	poisoned bool
	// curIndex is the index of this scope's direct statement currently
	// being walked; frozen (by simply not advancing) while the walk is
	// inside a nested scope or function literal.
	curIndex int
}

func newScopeInfo() *ast.ScopeInfo {
	return &ast.ScopeInfo{RestSlot: -1, ArgumentsSlot: -1, SelfSlot: -1, CatchParamSlot: -1}
}

func (r *resolver) newScope(parent *scope, info *ast.ScopeInfo, isFunc bool) *scope {
	return &scope{
		parent: parent, outer: parent.lexical(), info: info, isFunc: isFunc,
		slots: map[string]uint16{}, declIndex: map[string]int{}, curIndex: -1,
	}
}

// slot returns the slot for name, creating it if needed. ok is false when
// the frame is at capacity (the name then stays on the dynamic path).
func (s *scope) slot(name string) (uint16, bool) {
	if i, ok := s.slots[name]; ok {
		return i, true
	}
	if len(s.info.Names) >= maxSlots {
		s.poisoned = true
		return 0, false
	}
	i := uint16(len(s.info.Names))
	s.slots[name] = i
	s.info.Names = append(s.info.Names, name)
	s.info.NumSlots++
	return i, true
}

// declare records a declaration of name at index (idxEntry/idxNever/stmt
// index), merging with any earlier declaration by minimum.
func (s *scope) declare(name string, index int) (uint16, bool) {
	sl, ok := s.slot(name)
	if !ok {
		return 0, false
	}
	if old, seen := s.declIndex[name]; !seen || index < old {
		s.declIndex[name] = index
	}
	return sl, true
}

func (s *scope) materialized() bool { return s.info != nil && s.info.NumSlots > 0 }

// resolver carries the walk's early-error state.
type resolver struct {
	// global and body are the program's pseudo-scope and top level. Its
	// vars and function names live on the global object and take no slots;
	// only a lexical declaration can clash with or shadow them, so the
	// first one the walk reaches binds them on global (hoistedGlobals).
	global         *scope
	body           []ast.Stmt
	hoistedGlobals bool

	errs []ast.EarlyError
	// globalConstWrites indexes the errs entries that assign a
	// program-level const; a program that mentions eval drops them.
	globalConstWrites []int
	sawEval           bool
	shadowing         bool

	// Label and nesting context of the function being walked.
	labels      []label
	loopDepth   int
	switchDepth int
	fnDepth     int
}

// label is one active label between a function boundary and the
// statement being walked.
type label struct {
	name string
	iter bool // labels an iteration statement (continue target)
}

// ---------- reference resolution ----------

func (r *resolver) ref(id *ast.Ident, s *scope) {
	name := id.Name
	crossed := false // crossed a hoisted-FuncDecl boundary walking out
	depth := 0
	for cur := s; cur != nil; cur = cur.parent {
		if cur.global {
			id.Ref = ast.ScopeRef{Kind: ast.RefGlobal}
			return
		}
		if sl, ok := cur.slots[name]; ok {
			di := cur.declIndex[name]
			if di == idxEntry || (!crossed && di != idxNever && cur.curIndex > di) {
				if depth <= math.MaxUint16 {
					id.Ref = ast.ScopeRef{Kind: ast.RefSlot, Depth: uint16(depth), Slot: sl}
					return
				}
			}
			id.Ref = ast.ScopeRef{Kind: ast.RefDynamic}
			return
		}
		if cur.poisoned {
			// Overlay declarations may shadow outer bindings; stay dynamic.
			id.Ref = ast.ScopeRef{Kind: ast.RefDynamic}
			return
		}
		if cur.materialized() {
			depth++
		}
		if cur.isFunc && cur.hoistedFn {
			crossed = true
		}
	}
}

// target resolves a declaration's write target in scope t as seen from s
// (the scope the write executes in). Returns RefDynamic when t is global.
func declTarget(s, t *scope, sl uint16) ast.ScopeRef {
	if t.global {
		return ast.ScopeRef{}
	}
	depth := 0
	for cur := s; cur != t; cur = cur.parent {
		if cur.materialized() {
			depth++
		}
	}
	if depth > math.MaxUint16 {
		return ast.ScopeRef{}
	}
	return ast.ScopeRef{Kind: ast.RefSlot, Depth: uint16(depth), Slot: sl}
}

func (s *scope) funcScope() *scope {
	cur := s
	for !cur.isFunc {
		cur = cur.parent
	}
	return cur
}

// ---------- function scopes ----------

// funcLit resolves a function literal written in scope at. hoisted marks
// function declarations: their bodies may execute before any enclosing
// lexical declaration has run, and they close over the function frame
// (intermediate blocks are invisible to them), while the early rules see
// them in the block that contains them.
func (r *resolver) funcLit(lit *ast.FuncLit, at *scope, hoisted bool) {
	if lit.Scope != nil {
		return // already resolved (shared subtree)
	}
	if len(lit.Params) >= maxSlots {
		return // absurd frame: leave the whole literal on the dynamic path
	}
	parent := at
	if hoisted {
		parent = at.funcScope()
	}
	info := newScopeInfo()
	lit.Scope = info
	s := r.newScope(parent, info, true)
	s.outer = at.lexical()
	s.hoistedFn = hoisted

	// Labels, loops and switches do not cross function boundaries.
	labels, loopDepth, switchDepth := r.labels, r.loopDepth, r.switchDepth
	r.labels, r.loopDepth, r.switchDepth = nil, 0, 0
	r.fnDepth++

	// Runtime binding order: params, rest, arguments, self-name, var
	// hoisting, function-declaration hoisting. Duplicate names share a
	// slot; the later writer wins, as in the map evaluator.
	for _, p := range lit.Params {
		sl, _ := s.declare(p, idxEntry)
		info.ParamSlots = append(info.ParamSlots, sl)
		s.bindArguments(p)
	}
	if lit.Rest != "" {
		if sl, ok := s.declare(lit.Rest, idxEntry); ok {
			info.RestSlot = int32(sl)
		}
		s.bindArguments(lit.Rest)
	}
	if !lit.Arrow {
		// The map evaluator binds `arguments` unless a parameter has the
		// name (FunctionDeclarationInstantiation step 15); the slot is
		// materialised only when the body can observe the name, so most
		// functions skip the arguments-object allocation entirely.
		if usesName(lit, "arguments") && !lit.HasParam("arguments") {
			if sl, ok := s.declare("arguments", idxEntry); ok {
				info.ArgumentsSlot = int32(sl)
			}
		}
		// The self-name binding is conditional at run time: the dynamic
		// evaluator binds it only when the name is not already visible
		// anywhere up the closure chain (Call gates on callEnv.Has), which
		// no static pass can decide. The slot is reserved, the interpreter
		// re-checks the chain at entry, and references to the name stay
		// dynamic (idxNever) so an unbound self falls through to the outer
		// binding exactly as the map evaluator does. A var sharing the
		// name upgrades it to entry-live below (hoistVar), because var
		// initialisation fills the slot whenever the self-bind declined.
		if lit.Name != "" && !lit.HasParam(lit.Name) && lit.Name != "arguments" {
			if sl, ok := s.declare(lit.Name, idxNever); ok {
				info.SelfSlot = int32(sl)
			}
		}
	}

	if lit.Body != nil {
		// Phase 1a: hoist vars and function-declaration names (textual
		// order, not descending into nested function literals).
		r.hoistDecls(lit.Body.Body, s)
		// Phase 1b: this scope's lexical declarations, so that references
		// anywhere below can see the full name set before resolution.
		r.prescanLexical(lit.Body.Body, s, true)
		// Phase 2: resolve the body. Hoisted function bodies are resolved
		// where they are written, against this function frame.
		r.stmts(lit.Body.Body, s)
	} else if lit.ExprBody != nil {
		r.expr(lit.ExprBody, s)
	}
	r.fnDepth--
	r.labels, r.loopDepth, r.switchDepth = labels, loopDepth, switchDepth
}

// hoistDecls mirrors the interpreter's hoist walk: var declarators and
// function-declaration names anywhere in the statement subtree — but not
// inside nested function literals — bind in the function frame. Source
// pre-order matches the dynamic hoist's declaration order, which fixes
// the instantiation order of HoistFuncs.
func (r *resolver) hoistDecls(ss []ast.Stmt, fn *scope) {
	for _, st := range ss {
		ast.Walk(st, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.FuncLit:
				return false // nested function: its own frame hoists
			case *ast.FuncDecl:
				if sl, ok := r.hoistVar(fn, t.Fn.Name); ok {
					fn.info.HoistFuncs = append(fn.info.HoistFuncs, t.Fn)
					fn.info.HoistSlots = append(fn.info.HoistSlots, sl)
				}
				return false
			case *ast.VarDecl:
				if t.Kind == ast.Var {
					for _, d := range t.Decls {
						r.hoistVar(fn, d.Name)
					}
				}
			case *ast.ForInStmt:
				if t.Decl == ast.Var {
					r.hoistVar(fn, t.Name)
				}
			}
			return true
		})
	}
}

// hoistVar declares a var-hoisted name on the function frame, reporting
// the slot. Slots that are not already entry-live — new ones, and a
// reserved self-name slot whose conditional bind may decline — are
// recorded for undefined-initialisation at entry (the initialiser skips
// slots something earlier already filled). The global pseudo-scope only
// records the name for the early rules.
func (r *resolver) hoistVar(fn *scope, name string) (uint16, bool) {
	if fn.global {
		fn.bind(name, ast.Var)
		return 0, false
	}
	fn.bindArguments(name)
	_, existed := fn.slots[name]
	entryLive := existed && fn.declIndex[name] == idxEntry
	sl, ok := fn.declare(name, idxEntry)
	if !ok {
		return 0, false
	}
	if !entryLive {
		fn.info.VarSlots = append(fn.info.VarSlots, sl)
	}
	return sl, true
}

// prescanLexical collects s's let/const declarations before resolution.
// direct statements get their index (provable for later statements);
// declarations reached through non-scope statement bodies (brace-less if
// arms and loop bodies) execute conditionally and are never provable —
// they still bind in s at run time, so they need slots. Nested blocks,
// loops with heads, switches and try clauses open scopes of their own and
// are not descended into.
func (r *resolver) prescanLexical(ss []ast.Stmt, s *scope, direct bool) {
	for i, st := range ss {
		idx := idxNever
		if direct {
			idx = i
		}
		switch t := st.(type) {
		case *ast.VarDecl:
			if t.Kind == ast.Let || t.Kind == ast.Const {
				for _, d := range t.Decls {
					s.declare(d.Name, idx)
				}
			}
		case *ast.IfStmt:
			r.prescanNonScopeBody(t.Then, s)
			if t.Else != nil {
				r.prescanNonScopeBody(t.Else, s)
			}
		case *ast.WhileStmt:
			r.prescanNonScopeBody(t.Body, s)
		case *ast.DoWhileStmt:
			r.prescanNonScopeBody(t.Body, s)
		case *ast.LabeledStmt:
			r.prescanNonScopeBody(t.Body, s)
		}
	}
}

// prescanNonScopeBody handles a single statement that executes in s's own
// environment (no block braces): any lexical declaration in it binds in s
// but is conditionally executed.
func (r *resolver) prescanNonScopeBody(st ast.Stmt, s *scope) {
	switch st.(type) {
	case *ast.BlockStmt, *ast.ForStmt, *ast.ForInStmt, *ast.SwitchStmt, *ast.TryStmt:
		return // opens its own scope
	}
	r.prescanLexical([]ast.Stmt{st}, s, false)
}

// ---------- statements ----------

func (r *resolver) stmts(ss []ast.Stmt, s *scope) {
	for i, st := range ss {
		s.curIndex = i
		r.stmt(st, s)
	}
	s.curIndex = len(ss)
}

func (r *resolver) stmt(st ast.Stmt, s *scope) {
	switch t := st.(type) {
	case *ast.VarDecl:
		r.varDecl(t, s)
	case *ast.FuncDecl:
		// The name was hoisted; nothing executes here. The body is
		// resolved here so that its early errors keep their source order.
		r.funcLit(t.Fn, s, true)
	case *ast.ExprStmt:
		r.expr(t.X, s)
	case *ast.BlockStmt:
		r.block(t, s, "")
	case *ast.IfStmt:
		r.expr(t.Cond, s)
		r.stmt(t.Then, s)
		if t.Else != nil {
			r.stmt(t.Else, s)
		}
	case *ast.ForStmt:
		info := newScopeInfo()
		t.Scope = info
		ls := r.newScope(s, info, false)
		ls.noLex = true
		if vd, ok := t.Init.(*ast.VarDecl); ok && (vd.Kind == ast.Let || vd.Kind == ast.Const) {
			ls.noLex = false
			for _, d := range vd.Decls {
				ls.declare(d.Name, -1) // live once the init has run
			}
		}
		r.prescanNonScopeBody(t.Body, ls)
		ls.curIndex = -1 // init executes before the head's declarations
		switch init := t.Init.(type) {
		case *ast.VarDecl:
			r.varDecl(init, ls)
		case ast.Expr:
			r.expr(init, ls)
		}
		ls.curIndex = 0 // cond/post/body run after the init
		if t.Cond != nil {
			r.expr(t.Cond, ls)
		}
		if t.Post != nil {
			r.expr(t.Post, ls)
		}
		r.loopBody(t.Body, ls)
	case *ast.ForInStmt:
		r.expr(t.Obj, s) // evaluated in the enclosing environment
		info := newScopeInfo()
		t.Scope = info
		ls := r.newScope(s, info, false)
		ls.noLex = t.Decl != ast.Let && t.Decl != ast.Const
		if !ls.noLex {
			ls.declare(t.Name, -1)
		}
		r.prescanNonScopeBody(t.Body, ls)
		switch t.Decl {
		case ast.Let, ast.Const:
			if sl, ok := ls.slots[t.Name]; ok {
				t.NameRef = ast.ScopeRef{Kind: ast.RefSlot, Depth: 0, Slot: sl}
			}
			r.lexDeclare(ls, t.Name, t.Decl, t.Pos())
		case ast.Var:
			fn := ls.funcScope()
			if sl, ok := fn.slots[t.Name]; ok {
				t.NameRef = declTarget(ls, fn, sl)
			}
			r.varDeclare(ls, t.Name, t.Pos())
		default:
			// Plain-name target: ordinary assignment resolution.
			id := &ast.Ident{Name: t.Name}
			r.ref(id, ls)
			t.NameRef = id.Ref
			r.checkWrite(ls, t.Name, t.Pos())
		}
		ls.curIndex = 0 // the body runs after each per-iteration binding
		r.loopBody(t.Body, ls)
	case *ast.WhileStmt:
		r.expr(t.Cond, s)
		r.loopBody(t.Body, s)
	case *ast.DoWhileStmt:
		r.loopBody(t.Body, s)
		r.expr(t.Cond, s)
	case *ast.SwitchStmt:
		r.expr(t.Disc, s)
		info := newScopeInfo()
		t.Scope = info
		cs := r.newScope(s, info, false)
		for _, c := range t.Cases {
			r.prescanLexical(c.Body, cs, false) // entry point unknown: never provable
		}
		r.switchDepth++
		for _, c := range t.Cases {
			if c.Test != nil {
				r.expr(c.Test, cs)
			}
			r.stmts(c.Body, cs)
		}
		r.switchDepth--
	case *ast.BreakStmt:
		if t.Label == "" {
			if r.loopDepth == 0 && r.switchDepth == 0 {
				r.errorf("bad-break", t.Pos(), "Illegal break statement")
			}
		} else if r.findLabel(t.Label) == nil {
			r.errorf("undefined-label", t.Pos(), "Undefined label %q", t.Label)
		}
	case *ast.ContinueStmt:
		if t.Label == "" {
			if r.loopDepth == 0 {
				r.errorf("bad-continue", t.Pos(), "Illegal continue statement")
			}
		} else if l := r.findLabel(t.Label); l == nil {
			r.errorf("undefined-label", t.Pos(), "Undefined label %q", t.Label)
		} else if !l.iter {
			r.errorf("continue-not-loop", t.Pos(),
				"Illegal continue statement: %q does not denote an iteration statement", t.Label)
		}
	case *ast.EmptyStmt, *ast.DebuggerStmt:
	case *ast.ReturnStmt:
		if r.fnDepth == 0 {
			r.errorf("bad-return", t.Pos(), "Illegal return statement")
		}
		if t.X != nil {
			r.expr(t.X, s)
		}
	case *ast.ThrowStmt:
		r.expr(t.X, s)
	case *ast.TryStmt:
		r.block(t.Block, s, "")
		if t.Catch != nil {
			r.block(t.Catch, s, t.CatchParam)
		}
		if t.Finally != nil {
			r.block(t.Finally, s, "")
		}
	case *ast.LabeledStmt:
		if r.findLabel(t.Label) != nil {
			r.errorf("dup-label", t.Pos(), "Label %q has already been declared", t.Label)
		}
		// A label chain targets an iteration statement when the innermost
		// labeled statement is a loop; every label in the chain is then a
		// valid continue target.
		body := t.Body
		for {
			ls, ok := body.(*ast.LabeledStmt)
			if !ok {
				break
			}
			body = ls.Body
		}
		r.labels = append(r.labels, label{name: t.Label, iter: isIteration(body)})
		r.stmt(t.Body, s)
		r.labels = r.labels[:len(r.labels)-1]
	}
}

// loopBody resolves a loop body with the iteration context open.
func (r *resolver) loopBody(body ast.Stmt, s *scope) {
	r.loopDepth++
	r.stmt(body, s)
	r.loopDepth--
}

func isIteration(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ForStmt, *ast.ForInStmt, *ast.WhileStmt, *ast.DoWhileStmt:
		return true
	}
	return false
}

// block resolves a block statement's scope. catchParam, when non-empty,
// adds the catch-clause parameter as an entry-live binding (the runtime
// executes a catch body in the same frame as its parameter).
func (r *resolver) block(b *ast.BlockStmt, parent *scope, catchParam string) {
	info := newScopeInfo()
	b.Scope = info
	s := r.newScope(parent, info, false)
	if catchParam != "" {
		if sl, ok := s.declare(catchParam, idxEntry); ok {
			info.CatchParamSlot = int32(sl)
		}
		s.bindArguments(catchParam)
	}
	r.prescanLexical(b.Body, s, true)
	r.stmts(b.Body, s)
}

func (r *resolver) varDecl(t *ast.VarDecl, s *scope) {
	for i := range t.Decls {
		d := &t.Decls[i]
		if d.Init != nil {
			r.expr(d.Init, s)
		}
		switch t.Kind {
		case ast.Var:
			fn := s.funcScope()
			if sl, ok := fn.slots[d.Name]; ok {
				d.Ref = declTarget(s, fn, sl)
			}
			r.varDeclare(s, d.Name, t.Pos())
		case ast.Let, ast.Const:
			if !s.global { // top-level lexicals live on the global environment
				if sl, ok := s.slots[d.Name]; ok {
					d.Ref = ast.ScopeRef{Kind: ast.RefSlot, Depth: 0, Slot: sl}
				}
			}
			r.lexDeclare(s, d.Name, t.Kind, t.Pos())
		}
	}
}

// ---------- expressions ----------

func (r *resolver) expr(e ast.Expr, s *scope) {
	switch t := e.(type) {
	case *ast.Ident:
		if t.Name == "eval" {
			r.sawEval = true
		}
		r.ref(t, s)
	case *ast.FuncLit:
		r.funcLit(t, s, false)
	case *ast.TemplateLit:
		for _, x := range t.Exprs {
			r.expr(x, s)
		}
	case *ast.ArrayLit:
		for _, el := range t.Elems {
			if el != nil {
				r.expr(el, s)
			}
		}
	case *ast.ObjectLit:
		for i := range t.Props {
			p := &t.Props[i]
			if p.Computed && p.KeyExpr != nil {
				r.expr(p.KeyExpr, s)
			}
			if p.Value != nil {
				r.expr(p.Value, s)
			}
		}
	case *ast.UnaryExpr:
		r.expr(t.X, s)
	case *ast.UpdateExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			r.checkWrite(s, id.Name, t.Pos())
		}
		r.expr(t.X, s)
	case *ast.BinaryExpr:
		r.expr(t.L, s)
		r.expr(t.R, s)
	case *ast.LogicalExpr:
		r.expr(t.L, s)
		r.expr(t.R, s)
	case *ast.AssignExpr:
		if id, ok := t.L.(*ast.Ident); ok {
			r.checkWrite(s, id.Name, t.Pos())
		}
		r.expr(t.L, s)
		r.expr(t.R, s)
	case *ast.CondExpr:
		r.expr(t.Cond, s)
		r.expr(t.Then, s)
		r.expr(t.Else, s)
	case *ast.CallExpr:
		r.expr(t.Callee, s)
		for _, a := range t.Args {
			r.expr(a, s)
		}
	case *ast.NewExpr:
		r.expr(t.Callee, s)
		for _, a := range t.Args {
			r.expr(a, s)
		}
	case *ast.MemberExpr:
		r.expr(t.Obj, s)
		if t.Computed && t.Prop != nil {
			r.expr(t.Prop, s)
		}
	case *ast.SeqExpr:
		for _, x := range t.Exprs {
			r.expr(x, s)
		}
	case *ast.SpreadExpr:
		r.expr(t.X, s)
	}
}

// ---------- early errors ----------

func (r *resolver) errorf(kind string, pos token.Pos, format string, args ...any) {
	r.errs = append(r.errs, ast.EarlyError{Kind: kind, Msg: fmt.Sprintf(format, args...), Pos: pos})
}

// earlyErrors returns the walk's violations in source order, without the
// program-level const writes when the program mentions eval.
func (r *resolver) earlyErrors() []ast.EarlyError {
	if !r.sawEval || len(r.globalConstWrites) == 0 {
		return r.errs
	}
	kept := r.errs[:0]
	skip := r.globalConstWrites
	for i, e := range r.errs {
		if len(skip) > 0 && skip[0] == i {
			skip = skip[1:]
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// lexical returns the scope the early rules declare into from s.
func (s *scope) lexical() *scope {
	if s.noLex {
		return s.outer
	}
	return s
}

// bind records name's binding kind for the early rules.
func (s *scope) bind(name string, kind ast.VarKind) {
	if s.kinds == nil {
		s.kinds = map[string]ast.VarKind{}
	}
	s.kinds[name] = kind
}

// bindArguments records a parameter, catch parameter or hoisted name
// spelled "arguments", which declIndex cannot tell apart from the implicit
// arguments object (see kind).
func (s *scope) bindArguments(name string) {
	if name == "arguments" {
		s.bind(name, ast.Var)
	}
}

// kind reports the binding kind the early rules see for name in s.
// Parameters, catch parameters and hoisted vars and function names are
// live from scope entry, so declIndex already holds them; the implicit
// arguments object is no declaration.
func (s *scope) kind(name string) (ast.VarKind, bool) {
	if kind, ok := s.kinds[name]; ok {
		return kind, true
	}
	if name != "arguments" && s.declIndex[name] == idxEntry {
		return ast.Var, true
	}
	return 0, false
}

// lookup finds the nearest scope from s outward (s included) whose early
// bindings name name, or nil.
func (s *scope) lookup(name string) (*scope, ast.VarKind) {
	for cur := s; cur != nil; cur = cur.outer {
		if kind, ok := cur.kind(name); ok {
			return cur, kind
		}
	}
	return nil, 0
}

// lexDeclare records a let/const binding written in s, reporting a clash
// with any binding its scope already holds: a lexical name, a parameter,
// or a var declared in the same scope's subtree.
func (r *resolver) lexDeclare(s *scope, name string, kind ast.VarKind, pos token.Pos) {
	if !r.hoistedGlobals {
		r.hoistedGlobals = true
		r.hoistDecls(r.body, r.global)
	}
	ls := s.lexical()
	if _, dup := ls.kind(name); dup {
		r.errorf("dup-decl", pos, "Identifier %q has already been declared", name)
		return
	}
	if found, _ := ls.outer.lookup(name); found != nil {
		r.shadowing = true
	}
	ls.bind(name, kind)
}

// varDeclare records a var binding written in s: the name is checked
// against every scope it hoists through, up to and including the function
// scope, and recorded at each block level so later lexical declarations in
// those blocks see it (the function scope holds it from entry).
func (r *resolver) varDeclare(s *scope, name string, pos token.Pos) {
	for cur := s.lexical(); cur != nil; cur = cur.outer {
		if kind, ok := cur.kinds[name]; ok && kind != ast.Var {
			r.errorf("dup-decl", pos, "Identifier %q has already been declared", name)
			return
		}
		if cur.isFunc {
			return
		}
		cur.bind(name, ast.Var)
	}
}

// checkWrite reports a const-assignment early error when name, written in
// s, resolves to a const binding already declared.
func (r *resolver) checkWrite(s *scope, name string, pos token.Pos) {
	found, kind := s.lexical().lookup(name)
	if found == nil || kind != ast.Const {
		return // unresolved: a plain global-object write
	}
	if found.global {
		r.globalConstWrites = append(r.globalConstWrites, len(r.errs))
	}
	r.errorf("const-assign", pos, "Assignment to constant variable %q", name)
}

// findLabel returns the active label entry for name, or nil.
func (r *resolver) findLabel(name string) *label {
	for i := range r.labels {
		if r.labels[i].name == name {
			return &r.labels[i]
		}
	}
	return nil
}

// ---------- helpers ----------

// usesName reports whether the function body can observe the given binding
// name: any identifier occurrence (or for-in loop target) outside nested
// non-arrow function literals, which rebind `arguments`; arrow literals
// inherit it and are descended into.
func usesName(lit *ast.FuncLit, name string) bool {
	found := false
	visit := func(n ast.Node) bool {
		if found {
			return false
		}
		switch t := n.(type) {
		case *ast.Ident:
			if t.Name == name {
				found = true
			}
		case *ast.ForInStmt:
			if t.Name == name {
				found = true
			}
		case *ast.FuncLit:
			return t.Arrow
		}
		return !found
	}
	if lit.Body != nil {
		ast.Walk(lit.Body, visit)
	}
	if lit.ExprBody != nil {
		ast.Walk(lit.ExprBody, visit)
	}
	return found
}
