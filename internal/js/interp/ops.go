package interp

import (
	"comfort/internal/js/ast"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/token"
)

// This file holds the semantics of the language operations both
// evaluators perform. The tree walker (interp.go) and the compiled thunks
// (internal/js/compile) evaluate the operands, charge their fuel and then
// call the helper here, so each operation is written once and a fix to it
// reaches both. No helper charges fuel.

// CoverStmt records statement coverage for the statement with the given
// node ID.
func (in *Interp) CoverStmt(id int) {
	if in.Cov != nil {
		in.Cov.Stmts[id] = true
	}
}

// CoverFunc records that the function literal with the given node ID ran.
func (in *Interp) CoverFunc(id int) {
	if in.Cov != nil {
		in.Cov.Funcs[id] = true
	}
}

// CoverBranch records that arm of the branching node id was taken.
func (in *Interp) CoverBranch(id, arm int) {
	if in.Cov != nil {
		in.Cov.Branches[[2]int{id, arm}] = true
	}
}

// UnaryOp applies one of the operators ! - + ~ void to its evaluated
// operand (typeof and delete, which look at the operand's reference, are
// TypeofUnbound and DeleteProp/DeleteBinding).
func (in *Interp) UnaryOp(op token.Type, v Value) (Value, error) {
	switch op {
	case token.NOT:
		return Bool(!ToBoolean(v)), nil
	case token.VOID:
		return Undefined(), nil
	case token.MINUS, token.PLUS, token.BNOT:
		n, err := in.ToNumber(v)
		if err != nil {
			return Undefined(), err
		}
		switch op {
		case token.MINUS:
			return Number(-n), nil
		case token.PLUS:
			return Number(n), nil
		}
		return Number(float64(^jsnum.ToInt32(n))), nil
	}
	return Undefined(), in.Throwf("InternalError", "unsupported unary %s", op)
}

// TypeofUnbound reports whether `typeof name` is "undefined" without
// reading the identifier because the name resolves to nothing: a
// reference of the given kind, looked up from env, that no environment,
// global property or built-in name binds. A slot reference is always
// bound.
func (in *Interp) TypeofUnbound(name string, kind ast.RefKind, env *Env) bool {
	switch kind {
	case ast.RefSlot:
		return false
	case ast.RefGlobal:
		env = in.GlobalEnv
	}
	return !env.Has(name) && !in.hasGlobal(name) && name != "undefined" && name != "globalThis"
}

func (in *Interp) hasGlobal(name string) bool {
	for cur := in.Global; cur != nil; cur = cur.Proto {
		if cur.HasOwn(name) {
			return true
		}
	}
	return false
}

// DeleteProp is `delete obj[key]`: true for a primitive base, otherwise
// whether the own property is gone; strict code throws a TypeError where
// the property refuses deletion.
func (in *Interp) DeleteProp(obj Value, key string, strict bool) (Value, error) {
	if !obj.IsObject() {
		return Bool(true), nil
	}
	ok := obj.Obj().DeleteOwn(key)
	if !ok && strict {
		return Undefined(), in.TypeErrorf("Cannot delete property '%s'", key)
	}
	return Bool(ok), nil
}

// DeleteBinding is sloppy `delete name` for a reference of the given
// kind: a declared binding is never deleted (false); otherwise the global
// object's own property is.
func (in *Interp) DeleteBinding(name string, kind ast.RefKind, env *Env) Value {
	switch kind {
	case ast.RefSlot:
		return Bool(false)
	case ast.RefGlobal:
		env = in.GlobalEnv
	}
	if env.Has(name) {
		return Bool(false)
	}
	return Bool(in.Global.DeleteOwn(name))
}

// CompoundOp maps a compound assignment operator (+=, <<=, ...) to its
// binary operator; ok is false for any other token.
func CompoundOp(op token.Type) (bin token.Type, ok bool) {
	switch op {
	case token.PLUSASSIGN:
		return token.PLUS, true
	case token.MINUSASSIGN:
		return token.MINUS, true
	case token.STARASSIGN:
		return token.STAR, true
	case token.SLASHASSIGN:
		return token.SLASH, true
	case token.PERCENTASSIGN:
		return token.PERCENT, true
	case token.POWASSIGN:
		return token.POW, true
	case token.SHLASSIGN:
		return token.SHL, true
	case token.SHRASSIGN:
		return token.SHR, true
	case token.USHRASSIGN:
		return token.USHR, true
	case token.ANDASSIGN:
		return token.AND, true
	case token.ORASSIGN:
		return token.OR, true
	case token.XORASSIGN:
		return token.XOR, true
	}
	return 0, false
}

// ShortCircuits reports whether the logical operator && || or ?? yields
// its evaluated left operand lv without evaluating the right. It and
// LogicalAssignTakes test nullishness as kind <= KindNull (undefined and
// null are the first two kinds), which keeps them within the inlining
// budget of the thunks that call them.
func ShortCircuits(op token.Type, lv Value) bool {
	if op != token.NULLISH {
		return ToBoolean(lv) == (op == token.LOGOR)
	}
	return lv.kind > KindNull
}

// LogicalAssignTakes reports whether the logical assignment &&= ||= or
// ??= evaluates its right-hand side and assigns, given the target's
// current value.
func LogicalAssignTakes(op token.Type, cur Value) bool {
	if op != token.NULLISHASSIGN {
		return ToBoolean(cur) == (op == token.LOGANDASSIGN)
	}
	return cur.kind <= KindNull
}

// KeyValue converts the evaluated key of a computed member expression
// where the conversion may run user code: an object key becomes its
// property-key string at once, at the key's evaluation position, before
// anything that follows (an assignment's right-hand side, say). A
// primitive key stays a value for the by-value fast paths; its conversion
// is pure and happens later. The test inlines into the by-value fast
// paths; the conversion does not.
func (in *Interp) KeyValue(kv Value) (Value, error) {
	if kv.kind != KindObject {
		return kv, nil
	}
	return in.objectKey(kv)
}

func (in *Interp) objectKey(kv Value) (Value, error) {
	key, err := in.ToPropertyKey(kv)
	if err != nil {
		return Undefined(), err
	}
	return String(key), nil
}

// DescribeCallee renders a callee expression for the not-a-function and
// not-a-constructor TypeErrors.
func DescribeCallee(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.MemberExpr:
		if !t.Computed {
			return DescribeCallee(t.Obj) + "." + t.Name
		}
		return DescribeCallee(t.Obj) + "[...]"
	default:
		return "expression"
	}
}

// NameFunction gives an anonymous function value the binding name it is
// assigned or declared to (the SetFunctionName of `x = function () {}`);
// callers check that the initializer is an unnamed function literal.
func NameFunction(v Value, name string) {
	if v.IsObject() {
		v.Obj().SetSlot("name", String(name), Configurable)
	}
}

// AppendSpread appends the items of the iterable v to the array literal
// under construction (a spread element).
func (in *Interp) AppendSpread(arr *Object, v Value) error {
	items, err := in.iterate(v)
	if err != nil {
		return err
	}
	for _, item := range items {
		arr.AppendElem(item)
	}
	return nil
}

// DefineAccessor installs one half of an accessor property on an object
// literal under construction, merging with the other half when the
// literal defined it earlier.
func (o *Object) DefineAccessor(key string, fn *Object, getter bool) {
	existing, ok := o.getOwn(key)
	if !ok || !existing.Accessor {
		existing = &Property{Accessor: true, Attr: Enumerable | Configurable}
		o.DefineOwn(key, existing)
	}
	if getter {
		existing.Get = fn
	} else {
		existing.Set = fn
	}
}

// Declare writes the evaluated initializer v of declarator d of a
// var/let/const statement of the given kind; v is ignored when d has no
// initializer and kind is var.
func (in *Interp) Declare(kind ast.VarKind, d *ast.Declarator, env *Env, v Value, strict bool) error {
	if d.Ref.Kind == ast.RefSlot {
		b := env.at(d.Ref.Depth, d.Ref.Slot)
		if kind == ast.Var {
			b.declareVarWrite(v, d.Init != nil)
		} else {
			*b = binding{v: v, mutable: kind == ast.Let, live: true}
		}
		return nil
	}
	if kind == ast.Var {
		return in.writeVar(env, d.Name, v, d.Init != nil, strict)
	}
	env.declareLexical(d.Name, v, kind == ast.Let)
	return nil
}

// ForInItems lists what the for-in or for-of statement st iterates over
// in the value v: its keys for for-in, its items for for-of.
func (in *Interp) ForInItems(st *ast.ForInStmt, v Value) ([]Value, error) {
	if st.Of {
		return in.iterate(v)
	}
	return in.forInKeys(v)
}

// forInKeys collects the for-in enumeration sequence of a value: own and
// inherited enumerable keys, deduplicated along the prototype chain. A
// nullish value enumerates nothing (nil, nil).
func (in *Interp) forInKeys(obj Value) ([]Value, error) {
	if obj.IsNullish() {
		return nil, nil
	}
	o, err := in.ToObject(obj)
	if err != nil {
		return nil, err
	}
	var items []Value
	seen := map[string]bool{}
	for cur := o; cur != nil; cur = cur.Proto {
		for _, k := range cur.EnumerableKeys() {
			if !seen[k] {
				seen[k] = true
				items = append(items, String(k))
			}
		}
	}
	return items, nil
}

// BindForIn binds one key (for-in) or item (for-of) v to the loop
// variable of st in the loop's environment: a fresh let/const binding, a
// var write or an assignment to the named target.
func (in *Interp) BindForIn(st *ast.ForInStmt, loopEnv *Env, v Value, strict bool) error {
	ref := st.NameRef
	switch st.Decl {
	case ast.Let, ast.Const:
		// Both kinds are bound mutable, as the map evaluator declares them.
		if ref.Kind == ast.RefSlot {
			loopEnv.slots[ref.Slot] = binding{v: v, mutable: true, live: true}
			return nil
		}
		loopEnv.declareLexical(st.Name, v, true)
		return nil
	case ast.Var:
		if ref.Kind == ast.RefSlot {
			loopEnv.at(ref.Depth, ref.Slot).declareVarWrite(v, true)
			return nil
		}
		return in.writeVar(loopEnv, st.Name, v, true, strict)
	}
	return in.assignIdentRef(st.Name, ref, v, loopEnv, strict)
}

// writeVar applies a var declarator's write on the dynamic path; init
// is false for a declarator without an initializer. The binding lives on
// the nearest function frame, unless the var scope is the program's — a
// var at the top level or in a top-level block or loop — whose vars live
// on the global object, where hoisting created the property. There the
// initializer is an ordinary [[Set]]: a read-only global such as NaN keeps
// its value (strict code throws), the property keeps its attributes, and
// a declarator without an initializer writes nothing.
func (in *Interp) writeVar(env *Env, name string, v Value, init, strict bool) error {
	if env.varScope() != in.GlobalEnv {
		env.declareVar(name, v, init)
		return nil
	}
	if !init {
		return nil
	}
	return in.setProp(in.Global, name, v, strict)
}

// BindCatchParam binds the caught value v to st's catch parameter, if it
// names one, in the catch block's environment.
func (e *Env) BindCatchParam(st *ast.TryStmt, v Value) {
	if st.CatchParam == "" {
		return
	}
	if sc := st.Catch.Scope; sc != nil && sc.CatchParamSlot >= 0 {
		e.slots[sc.CatchParamSlot] = binding{v: v, mutable: true, live: true}
		return
	}
	e.declareLexical(st.CatchParam, v, true)
}

// CtrlTargets reports whether a break or continue carrying label ends at
// the loop or switch labelled own ("" when it has none): an unlabelled
// one ends at the innermost, a labelled one at the statement it names.
func CtrlTargets(label, own string) bool {
	return label == "" || label == own
}
