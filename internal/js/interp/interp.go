package interp

import (
	"math"
	"math/rand"
	"strings"

	"comfort/internal/js/ast"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/regex"
	"comfort/internal/js/token"
)

// Config parameterises an interpreter instance.
type Config struct {
	// Fuel is the step budget standing in for wall-clock time; 0 means the
	// default budget.
	Fuel int64
	// Strict forces strict mode for the whole run (the "strict testbed").
	Strict bool
	// Hook intercepts operations for seeded engine defects.
	Hook Hook
	// Seed drives Math.random and Date.now determinism.
	Seed int64
	// DisableShapes keeps every object in classic dictionary (property map)
	// layout — the reference layout the hidden-class machinery is checked
	// against. Only the engines package's shape oracle sets it.
	DisableShapes bool
	// Watchdog, when non-nil, is the wall-clock deadline probe: it is
	// polled cooperatively at the shared fuel-charge site every
	// WatchdogStride consumed steps, and a true return aborts the run with
	// AbortDeadline. The interpreter itself never reads a clock — the
	// caller decides what "too long" means (a wall-clock closure in the
	// scheduler, a deterministic countdown in the fault-injection
	// harness) — so execution stays replayable from the seed alone. Nil
	// (the default) costs one pointer test per charge and nothing else.
	Watchdog func() bool
}

// WatchdogStride is the fuel interval between Watchdog probes: small
// enough that a hung case is caught within a fraction of the default
// budget, large enough that an enabled watchdog prices at well under a
// probe per thousand charges.
const WatchdogStride = 16384

// DefaultFuel is the default step budget per program run.
const DefaultFuel = 2_000_000

// maxDepth bounds JS call recursion (RangeError beyond it).
const maxDepth = 256

// Coverage accumulates statement / function / branch coverage for one or
// more runs (the Istanbul substitute's raw data).
type Coverage struct {
	Stmts    map[int]bool
	Funcs    map[int]bool
	Branches map[[2]int]bool
}

// NewCoverage allocates an empty coverage recorder.
func NewCoverage() *Coverage {
	return &Coverage{
		Stmts:    map[int]bool{},
		Funcs:    map[int]bool{},
		Branches: map[[2]int]bool{},
	}
}

// Interp is one JavaScript runtime instance (one testbed execution).
type Interp struct {
	Global    *Object
	GlobalEnv *Env
	// Protos maps the realm's prototype names ("Object", "TypeError", ...)
	// to their objects; the builtins package populates it.
	Protos map[string]*Object

	Hook Hook
	Cov  *Coverage
	// ProtoMiss, when set, is invoked on a Protos lookup miss (see Proto)
	// so the builtins package can materialise lazily-installed sections
	// the interpreter itself depends on (the Error hierarchy). It receives
	// the realm instead of capturing one, like the lazy-property thunks.
	ProtoMiss func(in *Interp, kind string)
	// Sections is a bitset of the lazily installed stdlib sections this
	// realm has forced; the builtins package owns the bit assignment. The
	// section thunks are shared by every realm cloned from one template,
	// so this per-realm bookkeeping cannot live in them.
	Sections uint32
	// Strict mirrors Config.Strict. The bools sit together so the struct
	// stays in its allocation size class.
	Strict bool
	// DisableShapes mirrors Config.DisableShapes: NewObject allocates
	// dictionary-mode objects.
	DisableShapes bool
	// hookScratchBusy marks hookScratch (below) as lent out; randLive
	// records that this run has seeded rand.
	hookScratchBusy bool
	randLive        bool

	// Out receives print() output.
	Out strings.Builder

	// rand drives Math.random deterministically; seeded lazily via Rand()
	// because most programs never observe it and seeding Go's legacy source
	// costs microseconds per interpreter instance. A reset realm keeps the
	// source and reseeds it (randLive, above, records that this run has).
	rand     *rand.Rand
	randSeed int64
	// Now is the deterministic Date.now clock (milliseconds).
	Now float64

	fuel    int64
	fuelCap int64
	depth   int

	// watchdog mirrors Config.Watchdog; wdNext is the fuel level at or
	// below which the next probe fires (fuel counts down, so the probe
	// cadence is expressed in consumed steps and shared by both
	// evaluators' charge sites).
	watchdog func() bool
	wdNext   int64

	thisStack []Value
	// pendingLabel carries a statement label into the next loop statement so
	// labelled continue/break can match it.
	pendingLabel string

	// framePool recycles slot frames of Poolable scopes (see compiled.go);
	// per-instance, so it needs no synchronisation — one Interp is one
	// single-threaded execution. argsPool does the same for argument
	// slices of compiled calls to plain JS functions.
	framePool []*Env
	argsPool  [][]Value

	// Compiled-evaluator control registers (see compiled.go).
	ctrlLabel string
	ctrlVal   Value

	// Direct-mapped string-metrics cache (see stringMetrics): rune count
	// and ASCII-ness of recently measured strings.
	strCache [4]strMetrics

	// hookScratch is the HookCtx that Ask lends the hook at every site;
	// it is cleared when the hook returns (see Ask).
	hookScratch HookCtx

	// slab holds the realm's copy of its template's objects (see
	// Template); a reset refills it in place.
	slab realmSlab
}

// New creates an interpreter without the standard library; callers normally
// use builtins.NewRuntime instead.
func New(cfg Config) *Interp {
	in := newInterp(cfg)
	in.Global = in.NewObject(nil)
	return in
}

// newInterp creates an interpreter with no global object yet: New adds an
// empty one, Template.New a copy of the template's.
func newInterp(cfg Config) *Interp {
	in := new(Interp)
	// Presized past the eager stdlib sections plus the error hierarchy,
	// so realm construction never grows the map.
	in.init(cfg, make(map[string]*Object, 16), NewEnv(nil, true))
	return in
}

// init sets every field of in from cfg, with the given (empty) Protos map
// and global environment: all other state is zeroed by construction.
func (in *Interp) init(cfg Config, protos map[string]*Object, genv *Env) {
	fuel := cfg.Fuel
	if fuel <= 0 {
		fuel = DefaultFuel
	}
	*in = Interp{
		GlobalEnv:     genv,
		Protos:        protos,
		Strict:        cfg.Strict,
		Hook:          cfg.Hook,
		DisableShapes: cfg.DisableShapes,
		randSeed:      cfg.Seed + 1,
		Now:           1_600_000_000_000,
		fuel:          fuel,
		fuelCap:       fuel,
		watchdog:      cfg.Watchdog,
		wdNext:        fuel - WatchdogStride,
	}
}

// NewObject allocates a plain object with the given prototype in shape
// (hidden-class) mode, unless the interpreter runs with DisableShapes —
// the oracle configuration keeps dictionary layout everywhere.
func (in *Interp) NewObject(proto *Object) *Object {
	o := NewObject(proto)
	if !in.DisableShapes {
		o.shape = shapeRoot
	}
	return o
}

// Rand returns the deterministic Math.random source, seeding it on first
// use.
func (in *Interp) Rand() *rand.Rand {
	if !in.randLive {
		if in.rand == nil {
			in.rand = rand.New(rand.NewSource(in.randSeed))
		} else {
			in.rand.Seed(in.randSeed)
		}
		in.randLive = true
	}
	return in.rand
}

// FuelUsed reports consumed steps — the deterministic time axis used by the
// differential tester's 2× timeout rule.
func (in *Interp) FuelUsed() int64 { return in.fuelCap - in.fuel }

// charge consumes n steps and reports a timeout abort when exhausted.
// When a watchdog is armed it is probed here — the one site every
// evaluator path funnels fuel through — every WatchdogStride consumed
// steps. (ChargeSeq fuses only pure step sequences, so its skipped probes
// are made up by the next unit charge.)
func (in *Interp) charge(n int64) error {
	in.fuel -= n
	if in.fuel <= 0 {
		return &Abort{Kind: AbortTimeout, Msg: "step budget exhausted"}
	}
	if in.watchdog != nil && in.fuel <= in.wdNext {
		in.wdNext = in.fuel - WatchdogStride
		if in.watchdog() {
			return &Abort{Kind: AbortDeadline, Msg: "wall-clock deadline exceeded"}
		}
	}
	return nil
}

// Burn exposes fuel charging to builtins whose cost scales with input size.
func (in *Interp) Burn(n int64) error { return in.charge(n) }

func (in *Interp) coverStmt(id int) {
	if in.Cov != nil {
		in.Cov.Stmts[id] = true
	}
}

func (in *Interp) coverFunc(id int) {
	if in.Cov != nil {
		in.Cov.Funcs[id] = true
	}
}

func (in *Interp) coverBranch(id, arm int) {
	if in.Cov != nil {
		in.Cov.Branches[[2]int{id, arm}] = true
	}
}

// Print appends a line to the captured output (the print builtin).
func (in *Interp) Print(s string) {
	in.Out.WriteString(s)
	in.Out.WriteByte('\n')
}

// ---------- control flow ----------

type ctrlKind int

const (
	ctrlNormal ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind  ctrlKind
	label string
	val   Value
}

var ctrlOK = ctrl{}

// Run executes a parsed program in the global scope.
func (in *Interp) Run(prog *ast.Program) error {
	_, err := in.RunGlobal(prog)
	return err
}

// RunGlobal executes a program (Run's, or eval's code) in the global
// environment and returns the value of the last expression statement.
func (in *Interp) RunGlobal(prog *ast.Program) (Value, error) {
	strict := in.Strict || prog.Strict
	if err := in.DeclareGlobals(ast.HoistedDecls(prog.Body)); err != nil {
		return Undefined(), err
	}
	env := in.GlobalEnv
	last := Undefined()
	for _, s := range prog.Body {
		c, err := in.execStmt(s, env, strict)
		if err != nil {
			return Undefined(), err
		}
		if _, ok := s.(*ast.ExprStmt); ok {
			last = c.val
		}
		if c.kind != ctrlNormal {
			break
		}
	}
	return last, nil
}

// hoist performs var and function-declaration hoisting into a function
// body's env. The traversal is shared with the thunk compiler
// (ast.HoistedDecls), so both evaluators hoist exactly the same bindings
// in the same order.
func (in *Interp) hoist(body []ast.Stmt, env *Env) {
	for _, d := range ast.HoistedDecls(body) {
		if d.Fn != nil {
			env.declareVar(d.Name, ObjValue(in.MakeFunction(d.Fn, env)), true)
		} else {
			env.declareVar(d.Name, Undefined(), false)
		}
	}
}

// DeclareGlobals instantiates a program's hoisted declarations on the
// global object (ECMA-262 GlobalDeclarationInstantiation). Every function
// name passes CanDeclareGlobalFunction before any binding is created: a
// non-configurable global that is not a writable, enumerable data
// property, such as NaN, throws a TypeError. Both evaluators call it.
func (in *Interp) DeclareGlobals(decls []ast.HoistedDecl) error {
	for _, d := range decls {
		if d.Fn != nil && !in.canDeclareGlobalFunction(d.Name) {
			return in.TypeErrorf("Cannot redefine property: %s", d.Name)
		}
	}
	for _, d := range decls {
		if d.Fn != nil {
			fn := in.MakeFunction(d.Fn, in.GlobalEnv)
			in.Global.SetSlot(d.Name, ObjValue(fn), Writable|Enumerable)
		} else if !in.Global.HasOwn(d.Name) {
			in.Global.SetSlot(d.Name, Undefined(), Writable|Enumerable)
		}
	}
	return nil
}

// canDeclareGlobalFunction is ECMA-262's CanDeclareGlobalFunction.
func (in *Interp) canDeclareGlobalFunction(name string) bool {
	g := in.Global
	p, ok := g.getOwn(name)
	if !ok {
		return g.Extensible
	}
	if p.Accessor {
		return p.Attr&Configurable != 0
	}
	return p.Attr&Configurable != 0 || p.Attr&(Writable|Enumerable) == Writable|Enumerable
}

// MakeFunction builds a function object for a literal closed over env.
func (in *Interp) MakeFunction(lit *ast.FuncLit, env *Env) *Object {
	var fn *Object
	if lit.Arrow {
		fn = in.NewExoticObject(in.Protos["Function"]) // holds the lexical this
	} else {
		fn = in.NewObject(in.Protos["Function"])
	}
	fn.Class = "Function"
	fn.Fn = &FuncDef{Lit: lit, Env: env}
	if lit.Compiled != nil {
		fn.Fn.Compiled, _ = lit.Compiled.(CompiledBody)
	}
	fn.SetSlot("length", Number(float64(len(lit.Params))), Configurable)
	fn.SetSlot("name", String(lit.Name), Configurable)
	if !lit.Arrow {
		proto := in.NewObject(in.Protos["Object"])
		proto.SetSlot("constructor", ObjValue(fn), Writable|Configurable)
		fn.SetSlot("prototype", ObjValue(proto), Writable)
	}
	if lit.Arrow {
		fn.ext.boundThis = in.currentThis()
	}
	return fn
}

// currentThis is the innermost call's this; outside any call it is the
// script's this, the global object in both modes.
func (in *Interp) currentThis() Value {
	if n := len(in.thisStack); n > 0 {
		return in.thisStack[n-1]
	}
	return ObjValue(in.Global)
}

// ---------- statements ----------

func (in *Interp) execStmt(s ast.Stmt, env *Env, strict bool) (ctrl, error) {
	if err := in.charge(1); err != nil {
		return ctrlOK, err
	}
	in.coverStmt(s.ID())
	switch st := s.(type) {
	case *ast.VarDecl:
		return in.execVarDecl(st, env, strict)
	case *ast.FuncDecl:
		// Hoisted; nothing to do at execution time.
		return ctrlOK, nil
	case *ast.ExprStmt:
		v, err := in.evalExpr(st.X, env, strict)
		if err != nil {
			return ctrlOK, err
		}
		return ctrl{val: v}, nil
	case *ast.BlockStmt:
		return in.execStmts(st.Body, in.scopeEnv(env, st.Scope), strict)
	case *ast.EmptyStmt, *ast.DebuggerStmt:
		return ctrlOK, nil
	case *ast.IfStmt:
		cond, err := in.evalExpr(st.Cond, env, strict)
		if err != nil {
			return ctrlOK, err
		}
		if ToBoolean(cond) {
			in.coverBranch(st.ID(), 0)
			return in.execStmt(st.Then, env, strict)
		}
		in.coverBranch(st.ID(), 1)
		if st.Else != nil {
			return in.execStmt(st.Else, env, strict)
		}
		return ctrlOK, nil
	case *ast.WhileStmt:
		return in.execLoop(env, strict, nil, st.Cond, nil, st.Body, st.ID(), false)
	case *ast.DoWhileStmt:
		return in.execLoop(env, strict, nil, st.Cond, nil, st.Body, st.ID(), true)
	case *ast.ForStmt:
		label := in.pendingLabel
		in.pendingLabel = ""
		loopEnv := in.scopeEnv(env, st.Scope)
		switch init := st.Init.(type) {
		case *ast.VarDecl:
			if _, err := in.execVarDecl(init, loopEnv, strict); err != nil {
				return ctrlOK, err
			}
		case ast.Expr:
			if _, err := in.evalExpr(init, loopEnv, strict); err != nil {
				return ctrlOK, err
			}
		}
		in.pendingLabel = label
		return in.execLoop(loopEnv, strict, nil, st.Cond, st.Post, st.Body, st.ID(), false)
	case *ast.ForInStmt:
		return in.execForIn(st, env, strict)
	case *ast.SwitchStmt:
		return in.execSwitch(st, env, strict)
	case *ast.BreakStmt:
		return ctrl{kind: ctrlBreak, label: st.Label}, nil
	case *ast.ContinueStmt:
		return ctrl{kind: ctrlContinue, label: st.Label}, nil
	case *ast.ReturnStmt:
		v := Undefined()
		if st.X != nil {
			var err error
			v, err = in.evalExpr(st.X, env, strict)
			if err != nil {
				return ctrlOK, err
			}
		}
		return ctrl{kind: ctrlReturn, val: v}, nil
	case *ast.ThrowStmt:
		v, err := in.evalExpr(st.X, env, strict)
		if err != nil {
			return ctrlOK, err
		}
		return ctrlOK, &Throw{Val: v}
	case *ast.TryStmt:
		return in.execTry(st, env, strict)
	case *ast.LabeledStmt:
		in.pendingLabel = st.Label
		c, err := in.execStmt(st.Body, env, strict)
		in.pendingLabel = ""
		if err != nil {
			return ctrlOK, err
		}
		if c.kind == ctrlBreak && c.label == st.Label {
			return ctrlOK, nil
		}
		if c.kind == ctrlContinue && c.label == st.Label {
			return ctrlOK, nil
		}
		return c, nil
	default:
		return ctrlOK, in.Throwf("InternalError", "unsupported statement %T", s)
	}
}

func (in *Interp) execStmts(body []ast.Stmt, env *Env, strict bool) (ctrl, error) {
	for _, s := range body {
		c, err := in.execStmt(s, env, strict)
		if err != nil {
			return ctrlOK, err
		}
		if c.kind != ctrlNormal {
			return c, nil
		}
	}
	return ctrlOK, nil
}

func (in *Interp) execVarDecl(st *ast.VarDecl, env *Env, strict bool) (ctrl, error) {
	for _, d := range st.Decls {
		var v Value
		if d.Init != nil {
			var err error
			v, err = in.evalExpr(d.Init, env, strict)
			if err != nil {
				return ctrlOK, err
			}
			if fn, ok := d.Init.(*ast.FuncLit); ok && fn.Name == "" && v.IsObject() {
				v.Obj().SetSlot("name", String(d.Name), Configurable)
			}
		}
		if d.Ref.Kind == ast.RefSlot {
			b := env.at(d.Ref.Depth, d.Ref.Slot)
			switch st.Kind {
			case ast.Var:
				b.declareVarWrite(v, d.Init != nil)
			case ast.Let:
				*b = binding{v: v, mutable: true, live: true}
			case ast.Const:
				*b = binding{v: v, mutable: false, live: true}
			}
			continue
		}
		switch st.Kind {
		case ast.Var:
			if err := in.DeclareVar(env, d.Name, v, d.Init != nil, strict); err != nil {
				return ctrlOK, err
			}
		case ast.Let:
			env.declareLexical(d.Name, v, true)
		case ast.Const:
			env.declareLexical(d.Name, v, false)
		}
	}
	return ctrlOK, nil
}

// execLoop runs while/do-while/for bodies with break/continue handling.
func (in *Interp) execLoop(env *Env, strict bool, _ ast.Expr, cond, post ast.Expr,
	body ast.Stmt, nodeID int, doWhile bool) (ctrl, error) {
	myLabel := in.pendingLabel
	in.pendingLabel = ""
	first := true
	for {
		if err := in.charge(1); err != nil {
			return ctrlOK, err
		}
		if !(doWhile && first) && cond != nil {
			cv, err := in.evalExpr(cond, env, strict)
			if err != nil {
				return ctrlOK, err
			}
			if !ToBoolean(cv) {
				in.coverBranch(nodeID, 1)
				return ctrlOK, nil
			}
			in.coverBranch(nodeID, 0)
		}
		first = false
		c, err := in.execStmt(body, env, strict)
		if err != nil {
			return ctrlOK, err
		}
		switch c.kind {
		case ctrlBreak:
			if c.label == "" || c.label == myLabel {
				return ctrlOK, nil
			}
			return c, nil
		case ctrlContinue:
			if c.label != "" && c.label != myLabel {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
		if doWhile && cond != nil {
			cv, err := in.evalExpr(cond, env, strict)
			if err != nil {
				return ctrlOK, err
			}
			if !ToBoolean(cv) {
				return ctrlOK, nil
			}
			// Re-enter loop without re-testing at top.
			first = true
		}
		if post != nil {
			if _, err := in.evalExpr(post, env, strict); err != nil {
				return ctrlOK, err
			}
		}
	}
}

func (in *Interp) execForIn(st *ast.ForInStmt, env *Env, strict bool) (ctrl, error) {
	myLabel := in.pendingLabel
	in.pendingLabel = ""
	obj, err := in.evalExpr(st.Obj, env, strict)
	if err != nil {
		return ctrlOK, err
	}
	loopEnv := in.scopeEnv(env, st.Scope)
	assign := func(v Value) error {
		switch st.Decl {
		case ast.Let, ast.Const:
			if st.NameRef.Kind == ast.RefSlot {
				// The map evaluator declares both kinds mutable here.
				loopEnv.slots[st.NameRef.Slot] = binding{v: v, mutable: true, live: true}
				return nil
			}
			loopEnv.declareLexical(st.Name, v, true)
			return nil
		case ast.Var:
			if st.NameRef.Kind == ast.RefSlot {
				loopEnv.at(st.NameRef.Depth, st.NameRef.Slot).declareVarWrite(v, true)
				return nil
			}
			return in.DeclareVar(loopEnv, st.Name, v, true, strict)
		default:
			return in.assignIdentRef(st.Name, st.NameRef, v, loopEnv, strict)
		}
	}
	var items []Value
	if st.Of {
		items, err = in.iterate(obj)
	} else {
		// Nullish objects enumerate nothing (nil items, zero iterations).
		items, err = in.ForInKeys(obj)
	}
	if err != nil {
		return ctrlOK, err
	}
	for _, item := range items {
		if err := in.charge(1); err != nil {
			return ctrlOK, err
		}
		if err := assign(item); err != nil {
			return ctrlOK, err
		}
		c, err := in.execStmt(st.Body, loopEnv, strict)
		if err != nil {
			return ctrlOK, err
		}
		switch c.kind {
		case ctrlBreak:
			if c.label == "" || c.label == myLabel {
				return ctrlOK, nil
			}
			return c, nil
		case ctrlContinue:
			if c.label != "" && c.label != myLabel {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
	}
	return ctrlOK, nil
}

// iterate implements for-of over the iterable kinds the subset supports.
func (in *Interp) iterate(v Value) ([]Value, error) {
	if v.Kind() == KindString {
		var out []Value
		for _, r := range v.Str() {
			out = append(out, String(string(r)))
		}
		return out, nil
	}
	if v.IsObject() {
		o := v.Obj()
		if o.IsArray() {
			return append([]Value(nil), o.elems...), nil
		}
		if o.ElemKind != ElemNone && o.Class != "DataView" {
			var out []Value
			for i, n := 0, o.ArrayLen(); i < n; i++ {
				out = append(out, Number(o.typedGet(i)))
			}
			return out, nil
		}
		if o.Class == "String" && o.HasPrim {
			return in.iterate(o.Prim)
		}
	}
	return nil, in.TypeErrorf("%s is not iterable", TypeOf(v))
}

func (in *Interp) execSwitch(st *ast.SwitchStmt, env *Env, strict bool) (ctrl, error) {
	disc, err := in.evalExpr(st.Disc, env, strict)
	if err != nil {
		return ctrlOK, err
	}
	inner := in.scopeEnv(env, st.Scope)
	matched := -1
	for i, c := range st.Cases {
		if c.Test == nil {
			continue
		}
		tv, err := in.evalExpr(c.Test, inner, strict)
		if err != nil {
			return ctrlOK, err
		}
		if SameValueStrict(disc, tv) {
			matched = i
			break
		}
	}
	if matched < 0 {
		for i, c := range st.Cases {
			if c.Test == nil {
				matched = i
				break
			}
		}
	}
	if matched < 0 {
		return ctrlOK, nil
	}
	in.coverBranch(st.ID(), matched)
	for i := matched; i < len(st.Cases); i++ {
		for _, s := range st.Cases[i].Body {
			c, err := in.execStmt(s, inner, strict)
			if err != nil {
				return ctrlOK, err
			}
			switch c.kind {
			case ctrlBreak:
				if c.label == "" {
					return ctrlOK, nil
				}
				return c, nil
			case ctrlContinue, ctrlReturn:
				return c, nil
			}
		}
	}
	return ctrlOK, nil
}

func (in *Interp) execTry(st *ast.TryStmt, env *Env, strict bool) (ctrl, error) {
	c, err := in.execStmts(st.Block.Body, in.scopeEnv(env, st.Block.Scope), strict)
	if err != nil {
		if t, ok := IsThrow(err); ok && st.Catch != nil {
			catchEnv := in.scopeEnv(env, st.Catch.Scope)
			if st.CatchParam != "" {
				if sc := st.Catch.Scope; sc != nil && sc.CatchParamSlot >= 0 {
					catchEnv.slots[sc.CatchParamSlot] = binding{v: t.Val, mutable: true, live: true}
				} else {
					catchEnv.declareLexical(st.CatchParam, t.Val, true)
				}
			}
			c, err = in.execStmts(st.Catch.Body, catchEnv, strict)
		}
	}
	if st.Finally != nil {
		fc, ferr := in.execStmts(st.Finally.Body, in.scopeEnv(env, st.Finally.Scope), strict)
		if ferr != nil {
			return ctrlOK, ferr
		}
		if fc.kind != ctrlNormal {
			return fc, nil
		}
	}
	return c, err
}

// ---------- expressions ----------

func (in *Interp) evalExpr(e ast.Expr, env *Env, strict bool) (Value, error) {
	if err := in.charge(1); err != nil {
		return Undefined(), err
	}
	switch x := e.(type) {
	case *ast.Ident:
		return in.lookupIdentRef(x, env)
	case *ast.NumberLit:
		return Number(x.Value), nil
	case *ast.StringLit:
		return String(x.Value), nil
	case *ast.BoolLit:
		return Bool(x.Value), nil
	case *ast.NullLit:
		return Null(), nil
	case *ast.ThisExpr:
		return in.currentThis(), nil
	case *ast.RegexLit:
		return in.NewRegExp(x.Pattern, x.Flags)
	case *ast.TemplateLit:
		var b strings.Builder
		for i, q := range x.Quasis {
			b.WriteString(q)
			if i < len(x.Exprs) {
				v, err := in.evalExpr(x.Exprs[i], env, strict)
				if err != nil {
					return Undefined(), err
				}
				s, err := in.ToString(v)
				if err != nil {
					return Undefined(), err
				}
				b.WriteString(s)
			}
		}
		return String(b.String()), nil
	case *ast.ArrayLit:
		arr := in.NewArray(nil)
		for _, el := range x.Elems {
			if el == nil {
				arr.AppendElem(Undefined())
				continue
			}
			if sp, ok := el.(*ast.SpreadExpr); ok {
				sv, err := in.evalExpr(sp.X, env, strict)
				if err != nil {
					return Undefined(), err
				}
				items, err := in.iterate(sv)
				if err != nil {
					return Undefined(), err
				}
				for _, item := range items {
					arr.AppendElem(item)
				}
				continue
			}
			v, err := in.evalExpr(el, env, strict)
			if err != nil {
				return Undefined(), err
			}
			arr.AppendElem(v)
		}
		return ObjValue(arr), nil
	case *ast.ObjectLit:
		return in.evalObjectLit(x, env, strict)
	case *ast.FuncLit:
		return ObjValue(in.MakeFunction(x, env)), nil
	case *ast.UnaryExpr:
		return in.evalUnary(x, env, strict)
	case *ast.UpdateExpr:
		return in.evalUpdate(x, env, strict)
	case *ast.BinaryExpr:
		return in.evalBinary(x, env, strict)
	case *ast.LogicalExpr:
		return in.evalLogical(x, env, strict)
	case *ast.AssignExpr:
		return in.evalAssign(x, env, strict)
	case *ast.CondExpr:
		cv, err := in.evalExpr(x.Cond, env, strict)
		if err != nil {
			return Undefined(), err
		}
		if ToBoolean(cv) {
			in.coverBranch(x.ID(), 0)
			return in.evalExpr(x.Then, env, strict)
		}
		in.coverBranch(x.ID(), 1)
		return in.evalExpr(x.Else, env, strict)
	case *ast.CallExpr:
		return in.evalCall(x, env, strict)
	case *ast.NewExpr:
		return in.evalNew(x, env, strict)
	case *ast.MemberExpr:
		if x.Computed {
			obj, kv, err := in.evalComputedParts(x, env, strict)
			if err != nil {
				return Undefined(), err
			}
			return in.getPropByValue(obj, kv)
		}
		obj, err := in.evalExpr(x.Obj, env, strict)
		if err != nil {
			return Undefined(), err
		}
		return in.GetPropKey(obj, x.Name)
	case *ast.SeqExpr:
		var last Value
		for _, sub := range x.Exprs {
			var err error
			last, err = in.evalExpr(sub, env, strict)
			if err != nil {
				return Undefined(), err
			}
		}
		return last, nil
	case *ast.SpreadExpr:
		return Undefined(), in.SyntaxErrorf("unexpected spread element")
	default:
		return Undefined(), in.Throwf("InternalError", "unsupported expression %T", e)
	}
}

func (in *Interp) evalObjectLit(x *ast.ObjectLit, env *Env, strict bool) (Value, error) {
	o := in.NewObject(in.Protos["Object"])
	for _, prop := range x.Props {
		key := prop.Key
		if prop.Computed {
			kv, err := in.evalExpr(prop.KeyExpr, env, strict)
			if err != nil {
				return Undefined(), err
			}
			key, err = in.ToPropertyKey(kv)
			if err != nil {
				return Undefined(), err
			}
		}
		switch prop.Kind {
		case ast.PropInit:
			v, err := in.evalExpr(prop.Value, env, strict)
			if err != nil {
				return Undefined(), err
			}
			o.SetSlot(key, v, DefaultAttr)
		case ast.PropGet, ast.PropSet:
			fnLit := prop.Value.(*ast.FuncLit)
			fn := in.MakeFunction(fnLit, env)
			existing, ok := o.dictGet(key)
			if !ok || !existing.Accessor {
				existing = &Property{Accessor: true, Attr: Enumerable | Configurable}
				o.DefineOwn(key, existing)
			}
			if prop.Kind == ast.PropGet {
				existing.Get = fn
			} else {
				existing.Set = fn
			}
		}
	}
	return ObjValue(o), nil
}

// lookupIdentRef reads an identifier through its resolved reference: a slot
// access for provable bindings, a direct global lookup when no scope can
// intervene, and the dynamic chain walk otherwise.
func (in *Interp) lookupIdentRef(x *ast.Ident, env *Env) (Value, error) {
	switch x.Ref.Kind {
	case ast.RefSlot:
		return env.at(x.Ref.Depth, x.Ref.Slot).v, nil
	case ast.RefGlobal:
		return in.lookupGlobal(x.Name)
	}
	return in.lookupIdent(x.Name, env)
}

func (in *Interp) lookupIdent(name string, env *Env) (Value, error) {
	if b, ok := env.lookup(name); ok {
		return b.v, nil
	}
	return in.lookupGlobalTail(name)
}

// lookupGlobal resolves a name on the global environment (top-level
// lexical bindings) and then the global object — the RefGlobal fast path.
func (in *Interp) lookupGlobal(name string) (Value, error) {
	if b, ok := in.GlobalEnv.lookup(name); ok {
		return b.v, nil
	}
	return in.lookupGlobalTail(name)
}

func (in *Interp) lookupGlobalTail(name string) (Value, error) {
	if name == "undefined" {
		return Undefined(), nil
	}
	if name == "globalThis" {
		return ObjValue(in.Global), nil
	}
	// Fall back to the global object (including its prototype chain).
	if v, ok, err := in.getPropOnObject(in.Global, name); err != nil {
		return Undefined(), err
	} else if ok {
		return v, nil
	}
	return Undefined(), in.ReferenceErrorf("%s is not defined", name)
}

// assignBinding writes v through a resolved binding, honouring mutability
// and the function-self-name rules.
func (in *Interp) assignBinding(b *binding, v Value, strict bool) error {
	if !b.mutable {
		if b.silent {
			ok, err := in.allowWrite(HookSelfNameAssign)
			if err != nil {
				return err
			}
			if ok {
				b.v = v
				return nil
			}
			if !strict {
				return nil // sloppy-mode write to a function self-name
			}
		}
		return in.TypeErrorf("Assignment to constant variable.")
	}
	b.v = v
	return nil
}

// assignIdentRef writes an identifier through its resolved reference.
func (in *Interp) assignIdentRef(name string, ref ast.ScopeRef, v Value, env *Env, strict bool) error {
	switch ref.Kind {
	case ast.RefSlot:
		return in.assignBinding(env.at(ref.Depth, ref.Slot), v, strict)
	case ast.RefGlobal:
		if b, ok := in.GlobalEnv.lookup(name); ok {
			return in.assignBinding(b, v, strict)
		}
		return in.assignGlobalTail(name, v, strict)
	}
	return in.assignIdent(name, v, env, strict)
}

func (in *Interp) assignIdent(name string, v Value, env *Env, strict bool) error {
	if b, ok := env.lookup(name); ok {
		return in.assignBinding(b, v, strict)
	}
	return in.assignGlobalTail(name, v, strict)
}

func (in *Interp) assignGlobalTail(name string, v Value, strict bool) error {
	if in.Global.HasOwn(name) {
		return in.SetProp(ObjValue(in.Global), name, v, strict)
	}
	if strict {
		ok, err := in.allowWrite(HookUndeclaredAssign)
		if err != nil {
			return err
		}
		if !ok {
			return in.ReferenceErrorf("%s is not defined", name)
		}
	}
	in.Global.SetSlot(name, v, DefaultAttr)
	return nil
}

func (in *Interp) evalMemberParts(x *ast.MemberExpr, env *Env, strict bool) (Value, string, error) {
	obj, err := in.evalExpr(x.Obj, env, strict)
	if err != nil {
		return Undefined(), "", err
	}
	if !x.Computed {
		return obj, x.Name, nil
	}
	kv, err := in.evalExpr(x.Prop, env, strict)
	if err != nil {
		return Undefined(), "", err
	}
	key, err := in.ToPropertyKey(kv)
	if err != nil {
		return Undefined(), "", err
	}
	return obj, key, nil
}

func (in *Interp) evalUnary(x *ast.UnaryExpr, env *Env, strict bool) (Value, error) {
	if x.Op == token.TYPEOF {
		if id, ok := x.X.(*ast.Ident); ok {
			switch id.Ref.Kind {
			case ast.RefSlot:
				// Provably declared — fall through and evaluate.
			case ast.RefGlobal:
				if !in.GlobalEnv.Has(id.Name) && !in.hasGlobal(id.Name) &&
					id.Name != "undefined" && id.Name != "globalThis" {
					return String("undefined"), nil
				}
			default:
				if !env.Has(id.Name) && !in.hasGlobal(id.Name) &&
					id.Name != "undefined" && id.Name != "globalThis" {
					return String("undefined"), nil
				}
			}
		}
		v, err := in.evalExpr(x.X, env, strict)
		if err != nil {
			return Undefined(), err
		}
		return String(TypeOf(v)), nil
	}
	if x.Op == token.DELETE {
		if m, ok := x.X.(*ast.MemberExpr); ok {
			obj, key, err := in.evalMemberParts(m, env, strict)
			if err != nil {
				return Undefined(), err
			}
			if !obj.IsObject() {
				return Bool(true), nil
			}
			ok := obj.Obj().DeleteOwn(key)
			if !ok && strict {
				return Undefined(), in.TypeErrorf("Cannot delete property '%s'", key)
			}
			return Bool(ok), nil
		}
		if id, ok := x.X.(*ast.Ident); ok {
			switch id.Ref.Kind {
			case ast.RefSlot:
				return Bool(false), nil
			case ast.RefGlobal:
				if in.GlobalEnv.Has(id.Name) {
					return Bool(false), nil
				}
			default:
				if env.Has(id.Name) {
					return Bool(false), nil
				}
			}
			return Bool(in.Global.DeleteOwn(id.Name)), nil
		}
		// delete of a non-reference evaluates the operand and returns true.
		if _, err := in.evalExpr(x.X, env, strict); err != nil {
			return Undefined(), err
		}
		return Bool(true), nil
	}
	v, err := in.evalExpr(x.X, env, strict)
	if err != nil {
		return Undefined(), err
	}
	switch x.Op {
	case token.NOT:
		return Bool(!ToBoolean(v)), nil
	case token.MINUS:
		n, err := in.ToNumber(v)
		if err != nil {
			return Undefined(), err
		}
		return Number(-n), nil
	case token.PLUS:
		n, err := in.ToNumber(v)
		if err != nil {
			return Undefined(), err
		}
		return Number(n), nil
	case token.BNOT:
		n, err := in.ToNumber(v)
		if err != nil {
			return Undefined(), err
		}
		return Number(float64(^jsnum.ToInt32(n))), nil
	case token.VOID:
		return Undefined(), nil
	}
	return Undefined(), in.Throwf("InternalError", "unsupported unary %s", x.Op)
}

func (in *Interp) hasGlobal(name string) bool {
	for cur := in.Global; cur != nil; cur = cur.Proto {
		if cur.HasOwn(name) {
			return true
		}
	}
	return false
}

func (in *Interp) evalUpdate(x *ast.UpdateExpr, env *Env, strict bool) (Value, error) {
	old, setter, err := in.evalRef(x.X, env, strict)
	if err != nil {
		return Undefined(), err
	}
	n, err := in.ToNumber(old)
	if err != nil {
		return Undefined(), err
	}
	delta := 1.0
	if x.Op == token.DEC {
		delta = -1
	}
	nv := Number(n + delta)
	if err := setter(nv); err != nil {
		return Undefined(), err
	}
	if x.Prefix {
		return nv, nil
	}
	return Number(n), nil
}

// evalRef evaluates an assignable expression to its current value plus a
// setter closure.
func (in *Interp) evalRef(e ast.Expr, env *Env, strict bool) (Value, func(Value) error, error) {
	switch t := e.(type) {
	case *ast.Ident:
		v, err := in.lookupIdentRef(t, env)
		if err != nil {
			if _, isThrow := IsThrow(err); !isThrow {
				return Undefined(), nil, err
			}
			// Unresolved identifier: reads throw, but the setter may create
			// a global in sloppy mode.
			if strict {
				return Undefined(), nil, err
			}
			v = Undefined()
			err = nil
		}
		return v, func(nv Value) error { return in.assignIdentRef(t.Name, t.Ref, nv, env, strict) }, nil
	case *ast.MemberExpr:
		obj, key, err := in.evalMemberParts(t, env, strict)
		if err != nil {
			return Undefined(), nil, err
		}
		cur, err := in.GetPropKey(obj, key)
		if err != nil {
			return Undefined(), nil, err
		}
		return cur, func(nv Value) error { return in.SetProp(obj, key, nv, strict) }, nil
	}
	return Undefined(), nil, in.SyntaxErrorf("invalid assignment target")
}

func (in *Interp) evalAssign(x *ast.AssignExpr, env *Env, strict bool) (Value, error) {
	// Plain assignment evaluates RHS after resolving the reference.
	if x.Op == token.ASSIGN {
		switch t := x.L.(type) {
		case *ast.Ident:
			v, err := in.evalExpr(x.R, env, strict)
			if err != nil {
				return Undefined(), err
			}
			if fn, ok := x.R.(*ast.FuncLit); ok && fn.Name == "" && v.IsObject() {
				v.Obj().SetSlot("name", String(t.Name), Configurable)
			}
			if err := in.assignIdentRef(t.Name, t.Ref, v, env, strict); err != nil {
				return Undefined(), err
			}
			return v, nil
		case *ast.MemberExpr:
			if t.Computed {
				obj, kv, err := in.evalComputedParts(t, env, strict)
				if err != nil {
					return Undefined(), err
				}
				v, err := in.evalExpr(x.R, env, strict)
				if err != nil {
					return Undefined(), err
				}
				if err := in.setPropByValue(obj, kv, v, strict); err != nil {
					return Undefined(), err
				}
				return v, nil
			}
			obj, err := in.evalExpr(t.Obj, env, strict)
			if err != nil {
				return Undefined(), err
			}
			v, err := in.evalExpr(x.R, env, strict)
			if err != nil {
				return Undefined(), err
			}
			if err := in.SetProp(obj, t.Name, v, strict); err != nil {
				return Undefined(), err
			}
			return v, nil
		default:
			return Undefined(), in.SyntaxErrorf("invalid assignment target")
		}
	}
	// Logical assignment short-circuits.
	switch x.Op {
	case token.LOGANDASSIGN, token.LOGORASSIGN, token.NULLISHASSIGN:
		cur, setter, err := in.evalRef(x.L, env, strict)
		if err != nil {
			return Undefined(), err
		}
		doAssign := false
		switch x.Op {
		case token.LOGANDASSIGN:
			doAssign = ToBoolean(cur)
		case token.LOGORASSIGN:
			doAssign = !ToBoolean(cur)
		case token.NULLISHASSIGN:
			doAssign = cur.IsNullish()
		}
		if !doAssign {
			return cur, nil
		}
		v, err := in.evalExpr(x.R, env, strict)
		if err != nil {
			return Undefined(), err
		}
		return v, setter(v)
	}
	cur, setter, err := in.evalRef(x.L, env, strict)
	if err != nil {
		return Undefined(), err
	}
	rhs, err := in.evalExpr(x.R, env, strict)
	if err != nil {
		return Undefined(), err
	}
	var binOp token.Type
	switch x.Op {
	case token.PLUSASSIGN:
		binOp = token.PLUS
	case token.MINUSASSIGN:
		binOp = token.MINUS
	case token.STARASSIGN:
		binOp = token.STAR
	case token.SLASHASSIGN:
		binOp = token.SLASH
	case token.PERCENTASSIGN:
		binOp = token.PERCENT
	case token.POWASSIGN:
		binOp = token.POW
	case token.SHLASSIGN:
		binOp = token.SHL
	case token.SHRASSIGN:
		binOp = token.SHR
	case token.USHRASSIGN:
		binOp = token.USHR
	case token.ANDASSIGN:
		binOp = token.AND
	case token.ORASSIGN:
		binOp = token.OR
	case token.XORASSIGN:
		binOp = token.XOR
	default:
		return Undefined(), in.SyntaxErrorf("unsupported assignment operator")
	}
	v, err := in.applyBinary(binOp, cur, rhs)
	if err != nil {
		return Undefined(), err
	}
	return v, setter(v)
}

func (in *Interp) evalLogical(x *ast.LogicalExpr, env *Env, strict bool) (Value, error) {
	l, err := in.evalExpr(x.L, env, strict)
	if err != nil {
		return Undefined(), err
	}
	switch x.Op {
	case token.LOGAND:
		if !ToBoolean(l) {
			in.coverBranch(x.ID(), 1)
			return l, nil
		}
	case token.LOGOR:
		if ToBoolean(l) {
			in.coverBranch(x.ID(), 1)
			return l, nil
		}
	case token.NULLISH:
		if !l.IsNullish() {
			in.coverBranch(x.ID(), 1)
			return l, nil
		}
	}
	in.coverBranch(x.ID(), 0)
	return in.evalExpr(x.R, env, strict)
}

func (in *Interp) evalBinary(x *ast.BinaryExpr, env *Env, strict bool) (Value, error) {
	l, err := in.evalExpr(x.L, env, strict)
	if err != nil {
		return Undefined(), err
	}
	r, err := in.evalExpr(x.R, env, strict)
	if err != nil {
		return Undefined(), err
	}
	return in.applyBinary(x.Op, l, r)
}

func (in *Interp) applyBinary(op token.Type, l, r Value) (Value, error) {
	switch op {
	case token.PLUS:
		lp, err := in.ToPrimitive(l, "")
		if err != nil {
			return Undefined(), err
		}
		rp, err := in.ToPrimitive(r, "")
		if err != nil {
			return Undefined(), err
		}
		if lp.Kind() == KindString || rp.Kind() == KindString {
			ls, err := in.ToString(lp)
			if err != nil {
				return Undefined(), err
			}
			rs, err := in.ToString(rp)
			if err != nil {
				return Undefined(), err
			}
			return String(ls + rs), nil
		}
		ln, err := in.ToNumber(lp)
		if err != nil {
			return Undefined(), err
		}
		rn, err := in.ToNumber(rp)
		if err != nil {
			return Undefined(), err
		}
		return Number(ln + rn), nil
	case token.MINUS, token.STAR, token.SLASH, token.PERCENT, token.POW:
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined(), err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined(), err
		}
		switch op {
		case token.MINUS:
			return Number(ln - rn), nil
		case token.STAR:
			return Number(ln * rn), nil
		case token.SLASH:
			return Number(ln / rn), nil
		case token.PERCENT:
			return Number(math.Mod(ln, rn)), nil
		default:
			return Number(math.Pow(ln, rn)), nil
		}
	case token.EQ:
		eq, err := in.LooseEquals(l, r)
		if err != nil {
			return Undefined(), err
		}
		return Bool(eq), nil
	case token.NEQ:
		eq, err := in.LooseEquals(l, r)
		if err != nil {
			return Undefined(), err
		}
		return Bool(!eq), nil
	case token.STRICTEQ:
		return Bool(SameValueStrict(l, r)), nil
	case token.STRICTNE:
		return Bool(!SameValueStrict(l, r)), nil
	case token.LT:
		b, err := in.Compare("<", l, r)
		return Bool(b), err
	case token.GT:
		b, err := in.Compare(">", l, r)
		return Bool(b), err
	case token.LE:
		b, err := in.Compare("<=", l, r)
		return Bool(b), err
	case token.GE:
		b, err := in.Compare(">=", l, r)
		return Bool(b), err
	case token.AND, token.OR, token.XOR, token.SHL, token.SHR:
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined(), err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined(), err
		}
		li := jsnum.ToInt32(ln)
		shift := uint32(jsnum.ToUint32(rn)) & 31
		switch op {
		case token.AND:
			return Number(float64(li & jsnum.ToInt32(rn))), nil
		case token.OR:
			return Number(float64(li | jsnum.ToInt32(rn))), nil
		case token.XOR:
			return Number(float64(li ^ jsnum.ToInt32(rn))), nil
		case token.SHL:
			return Number(float64(li << shift)), nil
		default:
			return Number(float64(li >> shift)), nil
		}
	case token.USHR:
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined(), err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined(), err
		}
		return Number(float64(jsnum.ToUint32(ln) >> (jsnum.ToUint32(rn) & 31))), nil
	case token.IN:
		if !r.IsObject() {
			return Undefined(), in.TypeErrorf("Cannot use 'in' operator to search in %s", TypeOf(r))
		}
		key, err := in.ToPropertyKey(l)
		if err != nil {
			return Undefined(), err
		}
		for cur := r.Obj(); cur != nil; cur = cur.Proto {
			if cur.HasOwn(key) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case token.INSTANCEOF:
		if !r.IsObject() || !r.Obj().IsCallable() {
			return Undefined(), in.TypeErrorf("Right-hand side of 'instanceof' is not callable")
		}
		if !l.IsObject() {
			return Bool(false), nil
		}
		protoV, err := in.GetProp(r, "prototype")
		if err != nil {
			return Undefined(), err
		}
		if !protoV.IsObject() {
			return Undefined(), in.TypeErrorf("Function has non-object prototype")
		}
		target := protoV.Obj()
		for cur := l.Obj().Proto; cur != nil; cur = cur.Proto {
			if cur == target {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	}
	return Undefined(), in.Throwf("InternalError", "unsupported binary operator %s", op)
}

// ---------- calls ----------

func (in *Interp) evalCall(x *ast.CallExpr, env *Env, strict bool) (Value, error) {
	var thisVal Value
	var fnVal Value
	var err error
	if m, ok := x.Callee.(*ast.MemberExpr); ok {
		obj, key, err2 := in.evalMemberParts(m, env, strict)
		if err2 != nil {
			return Undefined(), err2
		}
		fnVal, err = in.GetPropKey(obj, key)
		if err != nil {
			return Undefined(), err
		}
		thisVal = obj
	} else {
		// A plain call passes undefined; call1 substitutes the global
		// object when the callee is sloppy.
		fnVal, err = in.evalExpr(x.Callee, env, strict)
		if err != nil {
			return Undefined(), err
		}
	}
	args, err := in.evalArgs(x.Args, env, strict)
	if err != nil {
		return Undefined(), err
	}
	if !fnVal.IsObject() || !fnVal.Obj().IsCallable() {
		name := describeCallee(x.Callee)
		return Undefined(), in.TypeErrorf("%s is not a function", name)
	}
	return in.Call(fnVal.Obj(), thisVal, args)
}

func describeCallee(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.MemberExpr:
		if !t.Computed {
			return describeCallee(t.Obj) + "." + t.Name
		}
		return describeCallee(t.Obj) + "[...]"
	default:
		return "expression"
	}
}

func (in *Interp) evalArgs(exprs []ast.Expr, env *Env, strict bool) ([]Value, error) {
	var args []Value
	for _, a := range exprs {
		if sp, ok := a.(*ast.SpreadExpr); ok {
			sv, err := in.evalExpr(sp.X, env, strict)
			if err != nil {
				return nil, err
			}
			items, err := in.iterate(sv)
			if err != nil {
				return nil, err
			}
			args = append(args, items...)
			continue
		}
		v, err := in.evalExpr(a, env, strict)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

// Call invokes fn with the given this and arguments. The depth guard
// lives here; the body runs in call1 so the unwind is a plain decrement
// instead of a deferred closure (Call is the hottest shared entry point —
// two defers per invocation showed up in campaign profiles).
func (in *Interp) Call(fn *Object, this Value, args []Value) (Value, error) {
	if err := in.charge(4); err != nil {
		return Undefined(), err
	}
	in.depth++
	v, err := in.call1(fn, this, args)
	in.depth--
	return v, err
}

func (in *Interp) call1(fn *Object, this Value, args []Value) (Value, error) {
	if in.depth > maxDepth {
		return Undefined(), in.RangeErrorf("Maximum call stack size exceeded")
	}
	if x := fn.ext; x != nil && x.boundTarget != nil {
		return in.Call(x.boundTarget, x.boundThis, append(append([]Value(nil), x.boundArgs...), args...))
	}
	if fn.Native != nil {
		return in.callNative(fn.Native, fn.NativeName, false, this, args)
	}
	if fn.Fn == nil {
		return Undefined(), in.TypeErrorf("object is not callable")
	}
	fn.Invocations++
	if in.Hook != nil {
		ov, err := in.Ask(HookCtx{Site: HookFuncTier, In: in, Tier: int(fn.Invocations)})
		if err != nil {
			return Undefined(), err
		}
		if ov != nil && ov.Replace {
			return ov.Return, ov.Err
		}
	}
	lit := fn.Fn.Lit
	strict := lit.Strict || in.Strict
	compiled := fn.Fn.Compiled
	var callEnv *Env
	pooled := false
	if sc := lit.Scope; sc != nil {
		// Resolved path: a pre-sized slot frame replaces the map, the
		// hoist walk is precomputed, and the arguments object is built
		// only when the body can observe it. Empty frames (slotless
		// arrows) reuse the closure environment, matching the resolver's
		// depth accounting.
		if sc.NumSlots == 0 {
			callEnv = fn.Fn.Env
		} else {
			// Compiled calls of closure-free bodies recycle their frame
			// (released after the body below); observable behaviour is
			// identical — release zeroes the slots.
			if compiled != nil && sc.Poolable {
				callEnv = in.AcquireScope(fn.Fn.Env, sc, true)
				pooled = true
			} else {
				callEnv = newFrame(fn.Fn.Env, sc, true)
			}
			for i, psl := range sc.ParamSlots {
				var pv Value
				if i < len(args) {
					pv = args[i]
				}
				callEnv.slots[psl] = binding{v: pv, mutable: true, live: true}
			}
			if sc.RestSlot >= 0 {
				rest := in.NewArray(nil)
				for i := len(lit.Params); i < len(args); i++ {
					rest.AppendElem(args[i])
				}
				callEnv.slots[sc.RestSlot] = binding{v: ObjValue(rest), mutable: true, live: true}
			}
		}
	} else {
		callEnv = NewEnv(fn.Fn.Env, true)
		for i, p := range lit.Params {
			if i < len(args) {
				callEnv.declareLexical(p, args[i], true)
			} else {
				callEnv.declareLexical(p, Undefined(), true)
			}
		}
		if lit.Rest != "" {
			rest := in.NewArray(nil)
			for i := len(lit.Params); i < len(args); i++ {
				rest.AppendElem(args[i])
			}
			callEnv.declareLexical(lit.Rest, ObjValue(rest), true)
		}
	}
	// this binding.
	var thisVal Value
	if lit.Arrow {
		thisVal = fn.ext.boundThis
	} else {
		thisVal = this
		if !strict {
			if thisVal.IsNullish() {
				thisVal = ObjValue(in.Global)
			} else if !thisVal.IsObject() {
				boxed, err := in.ToObject(thisVal)
				if err != nil {
					return Undefined(), err
				}
				thisVal = ObjValue(boxed)
			}
		}
		if sc := lit.Scope; sc != nil {
			if sc.ArgumentsSlot >= 0 {
				callEnv.slots[sc.ArgumentsSlot] = binding{v: in.makeArguments(args), mutable: true, live: true}
			}
			// The self-name binds only when the name is not already
			// visible up the closure chain — the dynamic path's
			// callEnv.Has gate, whose own-frame half (params, rest,
			// arguments) the resolver already ruled out statically.
			if sc.SelfSlot >= 0 && !fn.Fn.Env.Has(lit.Name) {
				callEnv.slots[sc.SelfSlot] = binding{v: ObjValue(fn), mutable: false, silent: true, live: true}
			}
		} else {
			// A parameter named arguments keeps its value
			// (FunctionDeclarationInstantiation step 15).
			if !lit.HasParam("arguments") {
				callEnv.declareLexical("arguments", in.makeArguments(args), true)
			}
			if lit.Name != "" && !callEnv.Has(lit.Name) {
				callEnv.declareFuncSelfName(lit.Name, ObjValue(fn))
			}
		}
	}
	in.thisStack = append(in.thisStack, thisVal)

	if sc := lit.Scope; sc != nil && sc.NumSlots > 0 {
		// Precomputed hoisting: var slots come live as undefined, then the
		// hoisted function declarations are instantiated in source order
		// (value writes only — flag state mirrors declareVar's).
		for _, vs := range sc.VarSlots {
			b := &callEnv.slots[vs]
			if !b.live {
				*b = binding{v: Undefined(), mutable: true, live: true}
			}
		}
		for i, hf := range sc.HoistFuncs {
			fobj := in.MakeFunction(hf, callEnv)
			callEnv.slots[sc.HoistSlots[i]].v = ObjValue(fobj)
		}
	}

	// Body dispatch. All exits flow through the explicit this-stack pop
	// below (no defer on the hot path).
	var rv Value
	var rerr error
	switch {
	case compiled != nil:
		rv, rerr = compiled(in, callEnv, strict)
	case lit.ExprBody != nil:
		rv, rerr = in.evalExpr(lit.ExprBody, callEnv, strict)
	default:
		in.coverFunc(lit.ID())
		if lit.Scope == nil {
			in.hoist(lit.Body.Body, callEnv)
		}
		c, err := in.execStmts(lit.Body.Body, callEnv, strict)
		if err != nil {
			rerr = err
		} else if c.kind == ctrlReturn {
			rv = c.val
		}
	}
	in.thisStack = in.thisStack[:len(in.thisStack)-1]
	if pooled {
		in.ReleaseScope(callEnv)
	}
	return rv, rerr
}

// makeArguments builds the (non-strict-spec, unmapped) arguments object.
func (in *Interp) makeArguments(args []Value) Value {
	argsObj := in.NewObject(in.Protos["Object"])
	argsObj.Class = "Arguments"
	for i, a := range args {
		argsObj.SetSlot(jsnum.Format(float64(i)), a, DefaultAttr)
	}
	argsObj.SetSlot("length", Number(float64(len(args))), Writable|Configurable)
	return ObjValue(argsObj)
}

func (in *Interp) evalNew(x *ast.NewExpr, env *Env, strict bool) (Value, error) {
	fnVal, err := in.evalExpr(x.Callee, env, strict)
	if err != nil {
		return Undefined(), err
	}
	args, err := in.evalArgs(x.Args, env, strict)
	if err != nil {
		return Undefined(), err
	}
	if !fnVal.IsObject() || !fnVal.Obj().IsCallable() {
		return Undefined(), in.TypeErrorf("%s is not a constructor", describeCallee(x.Callee))
	}
	return in.Construct(fnVal.Obj(), args)
}

// Construct implements the new operator.
func (in *Interp) Construct(fn *Object, args []Value) (Value, error) {
	if x := fn.ext; x != nil && x.boundTarget != nil {
		return in.Construct(x.boundTarget, append(append([]Value(nil), x.boundArgs...), args...))
	}
	native := fn.Construct
	if native == nil {
		native = fn.Native
	}
	if native != nil {
		return in.callNative(native, fn.NativeName, true, Undefined(), args)
	}
	if fn.Fn == nil || fn.Fn.Lit.Arrow {
		return Undefined(), in.TypeErrorf("not a constructor")
	}
	protoV, err := in.GetProp(ObjValue(fn), "prototype")
	if err != nil {
		return Undefined(), err
	}
	proto := in.Protos["Object"]
	if protoV.IsObject() {
		proto = protoV.Obj()
	}
	obj := in.NewObject(proto)
	res, err := in.Call(fn, ObjValue(obj), args)
	if err != nil {
		return Undefined(), err
	}
	if res.IsObject() {
		return res, nil
	}
	return ObjValue(obj), nil
}

// ---------- property access ----------

// GetProp reads property key from any value (boxing primitives virtually).
func (in *Interp) GetProp(v Value, key string) (Value, error) {
	return in.GetPropKey(v, key)
}

// evalComputedParts evaluates a computed member expression's object and
// key. Object keys are converted to strings immediately — the conversion
// can run user code (toString), so it must happen at the key's evaluation
// position, before anything that follows (e.g. an assignment's right-hand
// side). Primitive keys stay unconverted for the by-value fast paths;
// their conversion is pure and deferrable.
func (in *Interp) evalComputedParts(x *ast.MemberExpr, env *Env, strict bool) (Value, Value, error) {
	obj, err := in.evalExpr(x.Obj, env, strict)
	if err != nil {
		return Undefined(), Undefined(), err
	}
	kv, err := in.evalExpr(x.Prop, env, strict)
	if err != nil {
		return Undefined(), Undefined(), err
	}
	if kv.IsObject() {
		key, err := in.ToPropertyKey(kv)
		if err != nil {
			return Undefined(), Undefined(), err
		}
		kv = String(key)
	}
	return obj, kv, nil
}

// denseIndex reports whether f is a canonical index into a dense array of
// length n.
func denseIndex(f float64, n int) (int, bool) {
	i := int(f)
	if float64(i) != f || i < 0 || i >= n {
		return 0, false
	}
	return i, true
}

// getPropByValue reads obj[key] with the key still a language value: dense
// integer reads on arrays skip the number→string conversion and the
// property-descriptor boxing entirely. Every other shape converts and takes
// the generic path, so behaviour (including conversion side effects, which
// are pure for non-object keys) is unchanged.
func (in *Interp) getPropByValue(obj, key Value) (Value, error) {
	if key.Kind() == KindNumber && obj.IsObject() {
		o := obj.Obj()
		if o.IsArray() {
			if idx, ok := denseIndex(key.Num(), len(o.elems)); ok {
				if err := in.charge(1); err != nil {
					return Undefined(), err
				}
				return o.elems[idx], nil
			}
		}
	}
	k, err := in.ToPropertyKey(key)
	if err != nil {
		return Undefined(), err
	}
	return in.GetPropKey(obj, k)
}

// setPropByValue writes obj[key] = v with the key still a language value.
// The fast path covers dense array elements — in-bounds overwrites and the
// append position — when the array is not frozen; it performs exactly the
// write, the charge and the hook asks of the generic path. The append
// position additionally requires an index-free prototype chain
// (chainIndexFree), so a numeric accessor installed anywhere above the
// array still intercepts exactly as the generic chain walk would have.
func (in *Interp) setPropByValue(target, key, v Value, strict bool) error {
	if key.Kind() == KindNumber && target.IsObject() {
		o := target.Obj()
		if o.IsArray() && o.integrity != Frozen {
			f := key.Num()
			idx, ok := denseIndex(f, len(o.elems))
			if !ok && f == float64(len(o.elems)) && f < 4294967295 && chainIndexFree(o) {
				idx, ok = len(o.elems), true
			}
			if ok {
				// The generic path would stringify the index, stop its
				// chain walk at the array's own slot (in bounds) or find
				// the chain empty of index keys (append), and land in
				// arraySet; charge and asks happen in SetProp's order.
				// The checks above precede the asks here but follow them
				// there, so a property-store hook that lets the store
				// through leaves the array and its chain as they were.
				if err := in.charge(1); err != nil {
					return err
				}
				if in.Hook != nil {
					if done, err := in.askPropSet(o, key, v); done || err != nil {
						return err
					}
					if err := in.askArrayGrow(o, uint32(idx), v); err != nil {
						return err
					}
				}
				o.arraySet(uint32(idx), v)
				return nil
			}
		}
	}
	k, err := in.ToPropertyKey(key)
	if err != nil {
		return err
	}
	return in.SetProp(target, k, v, strict)
}

// chainIndexFree reports that no object on the prototype chain (receiver
// included) carries index-keyed own properties or virtual index slots, so
// a prototype-chain walk for an index key is provably a miss.
func chainIndexFree(o *Object) bool {
	for cur := o; cur != nil; cur = cur.Proto {
		if cur.indexProps || cur.ElemKind != ElemNone || cur.HasPrim {
			return false
		}
	}
	return true
}

// GetPropKey reads a property with a precomputed key.
func (in *Interp) GetPropKey(v Value, key string) (Value, error) {
	if err := in.charge(1); err != nil {
		return Undefined(), err
	}
	switch v.Kind() {
	case KindUndefined, KindNull:
		return Undefined(), in.TypeErrorf("Cannot read properties of %s (reading '%s')", v.Kind(), key)
	case KindObject:
		val, ok, err := in.getPropOnObject(v.Obj(), key)
		if err != nil {
			return Undefined(), err
		}
		if ok {
			return val, nil
		}
		return Undefined(), nil
	case KindString:
		if key == "length" {
			return Number(float64(in.RuneLen(v.Str()))), nil
		}
		if idx, ok := arrayIndex(key); ok {
			s := v.Str()
			if _, ascii := in.stringMetrics(s); ascii {
				if int(idx) < len(s) {
					return String(s[idx : idx+1]), nil
				}
				return Undefined(), nil
			}
			if r, ok := runeAt(s, int(idx)); ok {
				return String(r), nil
			}
			return Undefined(), nil
		}
		return in.protoLookup(v, in.Protos["String"], key)
	case KindNumber:
		return in.protoLookup(v, in.Protos["Number"], key)
	default:
		return in.protoLookup(v, in.Protos["Boolean"], key)
	}
}

func (in *Interp) protoLookup(this Value, proto *Object, key string) (Value, error) {
	if proto == nil {
		return Undefined(), nil
	}
	v, ok, err := in.getPropOnObjectWithThis(proto, key, this)
	if err != nil {
		return Undefined(), err
	}
	if ok {
		return v, nil
	}
	return Undefined(), nil
}

func (in *Interp) getPropOnObject(o *Object, key string) (Value, bool, error) {
	return in.getPropOnObjectWithThis(o, key, ObjValue(o))
}

func (in *Interp) getPropOnObjectWithThis(o *Object, key string, this Value) (Value, bool, error) {
	for cur := o; cur != nil; cur = cur.Proto {
		// Array virtual slots are data properties; answer them without
		// materialising a descriptor (getOwn allocates one per hit, which
		// used to dominate element-read cost).
		if cur.IsArray() {
			if key == "length" {
				return Number(float64(cur.arrayLen)), true, nil
			}
			if idx, ok := arrayIndex(key); ok && int(idx) < len(cur.elems) {
				return cur.elems[idx], true, nil
			}
		}
		// Shape-mode objects answer (or definitively miss) named keys from
		// slot storage without boxing a descriptor; shape properties are
		// always data properties, so no accessor dispatch is needed.
		if cur.shape != nil && cur.shapeFastKey(key) {
			if sp := cur.shape.find(key); sp != nil {
				v := cur.slot(sp.slot)
				if v.kind == kindPending {
					cur.resolveLazy(key)
					if v = cur.slot(sp.slot); v.kind == kindPending {
						continue
					}
				}
				return v, true, nil
			}
			continue
		}
		p, ok := cur.getOwn(key)
		if !ok {
			continue
		}
		if p.Accessor {
			if p.Get == nil {
				return Undefined(), true, nil
			}
			v, err := in.Call(p.Get, this, nil)
			return v, true, err
		}
		return p.Value, true, nil
	}
	return Undefined(), false, nil
}

// SetProp stores a property on a value per the language assignment rules
// (prototype setters, writability, array index fast path, defect hooks).
func (in *Interp) SetProp(target Value, key string, v Value, strict bool) error {
	if err := in.charge(1); err != nil {
		return err
	}
	if target.IsNullish() {
		return in.TypeErrorf("Cannot set properties of %s (setting '%s')", target.Kind(), key)
	}
	if !target.IsObject() {
		// Assignment to a property of a primitive: no-op (sloppy) or
		// TypeError (strict).
		if strict {
			return in.TypeErrorf("Cannot create property '%s' on %s", key, TypeOf(target))
		}
		return nil
	}
	o := target.Obj()
	if in.Hook != nil {
		if done, err := in.askPropSet(o, String(key), v); done || err != nil {
			return err
		}
	}
	return in.setProp(o, key, v, strict)
}

// setProp is the ordinary [[Set]] of key on o: prototype setters,
// writability, the array index fast path. An existing own data property
// keeps its attributes; a new one gets DefaultAttr.
func (in *Interp) setProp(o *Object, key string, v Value, strict bool) error {
	attr := DefaultAttr
	// Accessor on the prototype chain?
	idx, isIdx := arrayIndex(key)
	for cur := o; cur != nil; cur = cur.Proto {
		// Array virtual slots are writable data properties wherever they
		// sit in the chain; stop the walk without boxing a descriptor.
		if cur.IsArray() {
			if key == "length" {
				break
			}
			if isIdx && int(idx) < len(cur.elems) {
				break
			}
		}
		// Index keys cannot resolve on objects that never gained an
		// index-keyed own property (and carry no virtual index slots) —
		// the common growing-array write walks past Array.prototype and
		// Object.prototype without probing their maps.
		if isIdx && !cur.indexProps && cur.ElemKind == ElemNone && !cur.HasPrim {
			continue
		}
		// Shape-mode link: named shape properties are data properties, so
		// the walk only needs existence and (on the receiver) writability —
		// no descriptor box, no map probe.
		if cur.shape != nil && cur.shapeFastKey(key) {
			sp := cur.shape.find(key)
			if sp == nil {
				continue
			}
			if cur == o {
				if sp.attr&Writable == 0 {
					if strict {
						return in.TypeErrorf("Cannot assign to read only property '%s'", key)
					}
					return nil
				}
				attr = sp.attr
			}
			break
		}
		p, ok := cur.getOwn(key)
		if !ok {
			continue
		}
		if p.Accessor {
			if p.Set == nil {
				if strict {
					return in.TypeErrorf("Cannot set property %s which has only a getter", key)
				}
				return nil
			}
			_, err := in.Call(p.Set, ObjValue(o), []Value{v})
			return err
		}
		if cur == o {
			if p.Attr&Writable == 0 {
				if strict {
					return in.TypeErrorf("Cannot assign to read only property '%s'", key)
				}
				return nil
			}
			attr = p.Attr
		}
		break
	}
	// Frozen arrays and typed arrays reject element writes.
	if isIdx && (o.IsArray() || o.ElemKind != ElemNone) && o.integrity == Frozen {
		if strict {
			return in.TypeErrorf("Cannot assign to read only property '%s' of object", key)
		}
		return nil
	}
	// Array fast path with the growth hook (performance defects).
	if o.IsArray() {
		if isIdx {
			if in.Hook != nil {
				if err := in.askArrayGrow(o, idx, v); err != nil {
					return err
				}
			}
			o.arraySet(idx, v)
			return nil
		}
		if key == "length" {
			n, err := in.ToNumber(v)
			if err != nil {
				return err
			}
			u := jsnum.ToUint32(n)
			if float64(u) != n {
				return in.RangeErrorf("Invalid array length")
			}
			o.truncate(u)
			return nil
		}
	}
	// Typed arrays.
	if o.ElemKind != ElemNone && o.Class != "DataView" {
		if isIdx {
			if int(idx) < o.ArrayLen() {
				n, err := in.ToNumber(v)
				if err != nil {
					return err
				}
				o.TypedSet(int(idx), n)
			}
			return nil
		}
	}
	if !o.Extensible && !o.HasOwn(key) {
		if strict {
			return in.TypeErrorf("Cannot add property %s, object is not extensible", key)
		}
		return nil
	}
	o.SetSlot(key, v, attr)
	return nil
}

// NewArray allocates an Array object with the given dense elements.
func (in *Interp) NewArray(elems []Value) *Object {
	o := NewObject(in.Protos["Array"])
	o.Class = "Array"
	o.elems = elems
	o.arrayLen = uint32(len(elems))
	return o
}

// NewRegExp compiles a regex literal into a RegExp object, passing through
// the regex-engine defect hook.
func (in *Interp) NewRegExp(pattern, flags string) (Value, error) {
	re, err := regex.Compile(pattern, flags)
	if err != nil {
		return Undefined(), in.SyntaxErrorf("Invalid regular expression: /%s/: %v", pattern, err)
	}
	o := newExoticObject(in.Protos["RegExp"])
	o.Class = "RegExp"
	o.ext.regex = re
	o.SetSlot("lastIndex", Number(0), Writable)
	o.SetSlot("source", String(pattern), 0)
	o.SetSlot("flags", String(flags), 0)
	o.SetSlot("global", Bool(re.Global), 0)
	o.SetSlot("ignoreCase", Bool(re.IgnoreCase), 0)
	o.SetSlot("multiline", Bool(re.Multiline), 0)
	o.SetSlot("sticky", Bool(re.Sticky), 0)
	return ObjValue(o), nil
}
