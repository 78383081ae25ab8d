package compile

import (
	"math"
	"strings"

	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
	"comfort/internal/js/token"
)

// expr compiles one expression. Every produced thunk opens with the tree
// walker's expression prologue: one fuel step. Operand resolution that the
// tree walker performs per execution (reference-kind switches, operator
// mapping, callee rendering, key staticness) happens here, once.
func (c *compiler) expr(e ast.Expr) exprThunk {
	switch x := e.(type) {
	case *ast.Ident:
		return c.ident(x)
	case *ast.NumberLit:
		v := interp.Number(x.Value)
		return constThunk(v)
	case *ast.StringLit:
		v := interp.String(x.Value)
		return constThunk(v)
	case *ast.BoolLit:
		v := interp.Bool(x.Value)
		return constThunk(v)
	case *ast.NullLit:
		return constThunk(interp.Null())
	case *ast.ThisExpr:
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return in.CurrentThis(), nil
		}
	case *ast.RegexLit:
		pattern, flags := x.Pattern, x.Flags
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return in.NewRegExp(pattern, flags)
		}
	case *ast.TemplateLit:
		return c.template(x)
	case *ast.ArrayLit:
		return c.arrayLit(x)
	case *ast.ObjectLit:
		return c.objectLit(x)
	case *ast.FuncLit:
		c.funcBody(x)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return interp.ObjValue(in.MakeFunction(x, env)), nil
		}
	case *ast.UnaryExpr:
		return c.unary(x)
	case *ast.UpdateExpr:
		return c.update(x)
	case *ast.BinaryExpr:
		return c.binary(x)
	case *ast.LogicalExpr:
		return c.logical(x)
	case *ast.AssignExpr:
		return c.assign(x)
	case *ast.CondExpr:
		id := x.ID()
		cond, then, els := c.expr(x.Cond), c.expr(x.Then), c.expr(x.Else)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			cv, err := cond(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			if interp.ToBoolean(cv) {
				in.CoverBranch(id, 0)
				return then(in, env, strict)
			}
			in.CoverBranch(id, 1)
			return els(in, env, strict)
		}
	case *ast.CallExpr:
		return c.call(x)
	case *ast.NewExpr:
		callee := c.expr(x.Callee)
		args := c.args(x.Args)
		name := interp.DescribeCallee(x.Callee)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			fnVal, err := callee(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			av, err := args.eval(in, env, strict, false)
			if err != nil {
				return interp.Undefined(), err
			}
			if !fnVal.IsObject() || !fnVal.Obj().IsCallable() {
				return interp.Undefined(), in.TypeErrorf("%s is not a constructor", name)
			}
			return in.Construct(fnVal.Obj(), av)
		}
	case *ast.MemberExpr:
		if x.Computed {
			if ol, ook := leafOf(x.Obj); ook {
				if kl, kok := leafOf(x.Prop); kok {
					return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
						if err := in.Charge(1); err != nil {
							return interp.Undefined(), err
						}
						ov, err := ol.read(in, env)
						if err != nil {
							return interp.Undefined(), err
						}
						kv, err := kl.read(in, env)
						if err != nil {
							return interp.Undefined(), err
						}
						if kv, err = in.KeyValue(kv); err != nil {
							return interp.Undefined(), err
						}
						return in.GetPropByValue(ov, kv)
					}
				}
			}
			parts := c.computedParts(x)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				obj, kv, err := parts(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				return in.GetPropByValue(obj, kv)
			}
		}
		key := x.Name
		if id, ok := x.Obj.(*ast.Ident); ok {
			read := identReader(id.Name, id.Ref)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				// Two fuel steps: the member node and its identifier
				// operand, exactly the tree walker's two evalExpr entries.
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				ov, err := read(in, env)
				if err != nil {
					return interp.Undefined(), err
				}
				return in.GetPropKey(ov, key)
			}
		}
		obj := c.expr(x.Obj)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			ov, err := obj(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			return in.GetPropKey(ov, key)
		}
	case *ast.SeqExpr:
		subs := make([]exprThunk, len(x.Exprs))
		for i, sub := range x.Exprs {
			subs[i] = c.expr(sub)
		}
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			var last interp.Value
			for _, sub := range subs {
				var err error
				last, err = sub(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
			}
			return last, nil
		}
	case *ast.SpreadExpr:
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return interp.Undefined(), in.SyntaxErrorf("unexpected spread element")
		}
	default:
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return interp.Undefined(), in.Throwf("InternalError", "unsupported expression %T", e)
		}
	}
}

// leafKind classifies operand expressions whose evaluation is a pure,
// call-free read: literals and resolved identifiers. Fusing them into the
// parent thunk removes a closure invocation per operand while charging the
// same per-node fuel step at the same point.
type leafKind uint8

const (
	leafConst leafKind = iota
	leafSlot
	leafGlobal
	leafDynamic
)

type leaf struct {
	kind        leafKind
	v           interp.Value
	depth, slot uint16
	name        string
}

// leafOf classifies e; ok is false for non-leaf expressions.
func leafOf(e ast.Expr) (leaf, bool) {
	switch t := e.(type) {
	case *ast.NumberLit:
		return leaf{kind: leafConst, v: interp.Number(t.Value)}, true
	case *ast.StringLit:
		return leaf{kind: leafConst, v: interp.String(t.Value)}, true
	case *ast.BoolLit:
		return leaf{kind: leafConst, v: interp.Bool(t.Value)}, true
	case *ast.NullLit:
		return leaf{kind: leafConst, v: interp.Null()}, true
	case *ast.Ident:
		switch t.Ref.Kind {
		case ast.RefSlot:
			return leaf{kind: leafSlot, depth: t.Ref.Depth, slot: t.Ref.Slot}, true
		case ast.RefGlobal:
			return leaf{kind: leafGlobal, name: t.Name}, true
		default:
			return leaf{kind: leafDynamic, name: t.Name}, true
		}
	}
	return leaf{}, false
}

// read evaluates the leaf, charging its node's fuel step first (the tree
// walker's evalExpr entry).
func (lf *leaf) read(in *interp.Interp, env *interp.Env) (interp.Value, error) {
	if err := in.Charge(1); err != nil {
		return interp.Undefined(), err
	}
	switch lf.kind {
	case leafConst:
		return lf.v, nil
	case leafSlot:
		return env.SlotValue(lf.depth, lf.slot), nil
	case leafGlobal:
		return in.LookupGlobalName(lf.name)
	default:
		return in.LookupDynamic(lf.name, env)
	}
}

// binary compiles a binary operator application, fusing leaf operands
// into the operator thunk. Slot/const operand pairs — the shape of
// virtually every loop condition and accumulator step — collapse into a
// single thunk with one fused fuel charge and direct slot reads: the
// three per-node unit charges the tree walker pays are contiguous with
// only pure slot/constant reads between them, exactly ChargeSeq's
// contract.
func (c *compiler) binary(x *ast.BinaryExpr) exprThunk {
	apply := binApplier(x.Op)
	ll, lok := leafOf(x.L)
	rl, rok := leafOf(x.R)
	if lok && rok {
		switch {
		case ll.kind == leafSlot && rl.kind == leafSlot:
			ld, ls, rd, rs := ll.depth, ll.slot, rl.depth, rl.slot
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.ChargeSeq(3); err != nil {
					return interp.Undefined(), err
				}
				return apply(in, env.SlotValue(ld, ls), env.SlotValue(rd, rs))
			}
		case ll.kind == leafSlot && rl.kind == leafConst:
			ld, ls, rv := ll.depth, ll.slot, rl.v
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.ChargeSeq(3); err != nil {
					return interp.Undefined(), err
				}
				return apply(in, env.SlotValue(ld, ls), rv)
			}
		case ll.kind == leafConst && rl.kind == leafSlot:
			lv, rd, rs := ll.v, rl.depth, rl.slot
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.ChargeSeq(3); err != nil {
					return interp.Undefined(), err
				}
				return apply(in, lv, env.SlotValue(rd, rs))
			}
		case ll.kind == leafConst && rl.kind == leafConst:
			lv, rv := ll.v, rl.v
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.ChargeSeq(3); err != nil {
					return interp.Undefined(), err
				}
				return apply(in, lv, rv)
			}
		}
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			lv, err := ll.read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			rv, err := rl.read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			return apply(in, lv, rv)
		}
	}
	if lok {
		r := c.expr(x.R)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			lv, err := ll.read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			rv, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			return apply(in, lv, rv)
		}
	}
	l := c.expr(x.L)
	if rok {
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			lv, err := l(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			rv, err := rl.read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			return apply(in, lv, rv)
		}
	}
	r := c.expr(x.R)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		lv, err := l(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		rv, err := r(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		return apply(in, lv, rv)
	}
}

// binApplier selects the operator application at compile time. The common
// operators get monomorphic appliers whose primitive fast paths are the
// tree walker's own semantics with the conversion calls proven away —
// ToPrimitive and ToNumber are identities on numbers, ToString on strings,
// and none of them charge fuel or fire hooks on primitives, so the fast
// paths are observably identical to ApplyBinary. Everything else (and
// every mixed-type operand pair) falls back to the shared ApplyBinary.
func binApplier(op token.Type) func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
	const num = interp.KindNumber
	switch op {
	case token.PLUS:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Number(l.Num() + r.Num()), nil
			}
			if l.Kind() == interp.KindString && r.Kind() == interp.KindString {
				return interp.String(l.Str() + r.Str()), nil
			}
			return in.ApplyBinary(token.PLUS, l, r)
		}
	case token.MINUS:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Number(l.Num() - r.Num()), nil
			}
			return in.ApplyBinary(token.MINUS, l, r)
		}
	case token.STAR:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Number(l.Num() * r.Num()), nil
			}
			return in.ApplyBinary(token.STAR, l, r)
		}
	case token.SLASH:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Number(l.Num() / r.Num()), nil
			}
			return in.ApplyBinary(token.SLASH, l, r)
		}
	case token.PERCENT:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Number(fmod(l.Num(), r.Num())), nil
			}
			return in.ApplyBinary(token.PERCENT, l, r)
		}
	case token.LT:
		// Go float comparisons are false on NaN operands, which is exactly
		// the abstract relational comparison's undefined→false rule.
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() < r.Num()), nil
			}
			return in.ApplyBinary(token.LT, l, r)
		}
	case token.GT:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() > r.Num()), nil
			}
			return in.ApplyBinary(token.GT, l, r)
		}
	case token.LE:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() <= r.Num()), nil
			}
			return in.ApplyBinary(token.LE, l, r)
		}
	case token.GE:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() >= r.Num()), nil
			}
			return in.ApplyBinary(token.GE, l, r)
		}
	case token.EQ:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() == r.Num()), nil
			}
			return in.ApplyBinary(token.EQ, l, r)
		}
	case token.NEQ:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			if l.Kind() == num && r.Kind() == num {
				return interp.Bool(l.Num() != r.Num()), nil
			}
			return in.ApplyBinary(token.NEQ, l, r)
		}
	case token.STRICTEQ:
		// === is pure over all kinds; bypass the dispatch entirely.
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			return interp.Bool(interp.SameValueStrict(l, r)), nil
		}
	case token.STRICTNE:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			return interp.Bool(!interp.SameValueStrict(l, r)), nil
		}
	default:
		return func(in *interp.Interp, l, r interp.Value) (interp.Value, error) {
			return in.ApplyBinary(op, l, r)
		}
	}
}

// fmod is math.Mod with an exact fast path for integral operands in the
// safe-integer range — the shape of virtually every fuzzer-generated
// modulus. Go's % truncates toward zero with the dividend's sign, exactly
// fmod's contract, and integral results up to 2⁵³ are exact in both
// representations; a zero result keeps the dividend's sign (JS -5 % 5 is
// -0). Everything else (NaN, infinities, fractional operands, huge
// magnitudes) takes math.Mod unchanged.
func fmod(a, b float64) float64 {
	const maxSafe = 1 << 53
	if a > -maxSafe && a < maxSafe && b > -maxSafe && b < maxSafe {
		ia, ib := int64(a), int64(b)
		if float64(ia) == a && float64(ib) == b && ib != 0 {
			m := ia % ib
			if m == 0 {
				return math.Copysign(0, a)
			}
			return float64(m)
		}
	}
	return math.Mod(a, b)
}

// constThunk evaluates to a fixed value (literals still pay their node's
// fuel step, exactly as the tree walker does).
func constThunk(v interp.Value) exprThunk {
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		return v, nil
	}
}

// ident compiles an identifier read through its resolved reference class.
func (c *compiler) ident(x *ast.Ident) exprThunk {
	switch x.Ref.Kind {
	case ast.RefSlot:
		depth, slot := x.Ref.Depth, x.Ref.Slot
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return env.SlotValue(depth, slot), nil
		}
	case ast.RefGlobal:
		name := x.Name
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return in.LookupGlobalName(name)
		}
	default:
		name := x.Name
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return in.LookupDynamic(name, env)
		}
	}
}

// identReader resolves an identifier without the expression fuel step —
// the evalRef read position, which the tree walker reaches without
// charging for the identifier node.
func identReader(name string, ref ast.ScopeRef) func(in *interp.Interp, env *interp.Env) (interp.Value, error) {
	switch ref.Kind {
	case ast.RefSlot:
		depth, slot := ref.Depth, ref.Slot
		return func(in *interp.Interp, env *interp.Env) (interp.Value, error) {
			return env.SlotValue(depth, slot), nil
		}
	case ast.RefGlobal:
		return func(in *interp.Interp, env *interp.Env) (interp.Value, error) {
			return in.LookupGlobalName(name)
		}
	default:
		return func(in *interp.Interp, env *interp.Env) (interp.Value, error) {
			return in.LookupDynamic(name, env)
		}
	}
}

// identAssigner writes an identifier through its resolved reference class.
func identAssigner(name string, ref ast.ScopeRef) func(in *interp.Interp, env *interp.Env, v interp.Value, strict bool) error {
	switch ref.Kind {
	case ast.RefSlot:
		depth, slot := ref.Depth, ref.Slot
		return func(in *interp.Interp, env *interp.Env, v interp.Value, strict bool) error {
			return in.AssignSlot(env, depth, slot, v, strict)
		}
	case ast.RefGlobal:
		return func(in *interp.Interp, env *interp.Env, v interp.Value, strict bool) error {
			return in.AssignGlobalName(name, v, strict)
		}
	default:
		return func(in *interp.Interp, env *interp.Env, v interp.Value, strict bool) error {
			return in.AssignDynamic(name, v, env, strict)
		}
	}
}

func (c *compiler) template(x *ast.TemplateLit) exprThunk {
	quasis := x.Quasis
	exprs := make([]exprThunk, len(x.Exprs))
	for i, sub := range x.Exprs {
		exprs[i] = c.expr(sub)
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		var b strings.Builder
		for i, q := range quasis {
			b.WriteString(q)
			if i < len(exprs) {
				v, err := exprs[i](in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				s, err := in.ToString(v)
				if err != nil {
					return interp.Undefined(), err
				}
				b.WriteString(s)
			}
		}
		return interp.String(b.String()), nil
	}
}

// arrayElem is one compiled array-literal element: a hole, a spread, or a
// plain expression.
type arrayElem struct {
	thunk  exprThunk // nil for a hole
	spread bool
}

func (c *compiler) arrayLit(x *ast.ArrayLit) exprThunk {
	elems := make([]arrayElem, len(x.Elems))
	for i, el := range x.Elems {
		if el == nil {
			continue
		}
		if sp, ok := el.(*ast.SpreadExpr); ok {
			elems[i] = arrayElem{thunk: c.expr(sp.X), spread: true}
			continue
		}
		elems[i] = arrayElem{thunk: c.expr(el)}
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		arr := in.NewArray(nil)
		for _, el := range elems {
			if el.thunk == nil {
				arr.AppendElem(interp.Undefined())
				continue
			}
			v, err := el.thunk(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			if el.spread {
				if err := in.AppendSpread(arr, v); err != nil {
					return interp.Undefined(), err
				}
				continue
			}
			arr.AppendElem(v)
		}
		return interp.ObjValue(arr), nil
	}
}

// propThunk is one compiled object-literal property.
type propThunk struct {
	key     string    // static key (Computed false)
	keyExpr exprThunk // computed key
	kind    ast.PropKind
	value   exprThunk    // PropInit
	accFn   *ast.FuncLit // PropGet / PropSet
}

func (c *compiler) objectLit(x *ast.ObjectLit) exprThunk {
	props := make([]propThunk, len(x.Props))
	for i := range x.Props {
		p := &x.Props[i]
		pt := propThunk{key: p.Key, kind: p.Kind}
		if p.Computed {
			pt.keyExpr = c.expr(p.KeyExpr)
		}
		switch p.Kind {
		case ast.PropInit:
			pt.value = c.expr(p.Value)
		case ast.PropGet, ast.PropSet:
			pt.accFn = p.Value.(*ast.FuncLit)
			c.funcBody(pt.accFn)
		}
		props[i] = pt
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		o := in.NewObject(in.Protos["Object"])
		for i := range props {
			p := &props[i]
			key := p.key
			if p.keyExpr != nil {
				kv, err := p.keyExpr(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				key, err = in.ToPropertyKey(kv)
				if err != nil {
					return interp.Undefined(), err
				}
			}
			switch p.kind {
			case ast.PropInit:
				v, err := p.value(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				o.SetSlot(key, v, interp.DefaultAttr)
			case ast.PropGet, ast.PropSet:
				fn := in.MakeFunction(p.accFn, env)
				o.DefineAccessor(key, fn, p.kind == ast.PropGet)
			}
		}
		return interp.ObjValue(o), nil
	}
}

// ---------- unary / update ----------

func (c *compiler) unary(x *ast.UnaryExpr) exprThunk {
	if x.Op == token.TYPEOF {
		return c.typeofExpr(x)
	}
	if x.Op == token.DELETE {
		return c.deleteExpr(x)
	}
	operand := c.expr(x.X)
	op := x.Op
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		v, err := operand(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		return in.UnaryOp(op, v)
	}
}

func (c *compiler) typeofExpr(x *ast.UnaryExpr) exprThunk {
	operand := c.expr(x.X)
	id, isIdent := x.X.(*ast.Ident)
	if !isIdent || id.Ref.Kind == ast.RefSlot {
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			v, err := operand(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			return interp.String(interp.TypeOf(v)), nil
		}
	}
	name := id.Name
	kind := id.Ref.Kind
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		if in.TypeofUnbound(name, kind, env) {
			return interp.String("undefined"), nil
		}
		v, err := operand(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.String(interp.TypeOf(v)), nil
	}
}

func (c *compiler) deleteExpr(x *ast.UnaryExpr) exprThunk {
	if m, ok := x.X.(*ast.MemberExpr); ok {
		parts := c.memberParts(m)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			obj, key, err := parts(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			return in.DeleteProp(obj, key, strict)
		}
	}
	if id, ok := x.X.(*ast.Ident); ok {
		name := id.Name
		kind := id.Ref.Kind
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return in.DeleteBinding(name, kind, env), nil
		}
	}
	// delete of a non-reference evaluates the operand and returns true.
	operand := c.expr(x.X)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		if _, err := operand(in, env, strict); err != nil {
			return interp.Undefined(), err
		}
		return interp.Bool(true), nil
	}
}

func (c *compiler) update(x *ast.UpdateExpr) exprThunk {
	delta := 1.0
	if x.Op == token.DEC {
		delta = -1
	}
	prefix := x.Prefix
	// Slot-resolved updates collapse to a direct read-modify-write on the
	// frame slot: no reader/writer closures at all, and a slot read cannot
	// fail.
	if id, ok := x.X.(*ast.Ident); ok && id.Ref.Kind == ast.RefSlot {
		depth, slot := id.Ref.Depth, id.Ref.Slot
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			old := env.SlotValue(depth, slot)
			var n float64
			var err error
			if old.Kind() == interp.KindNumber {
				n = old.Num()
			} else if n, err = in.ToNumber(old); err != nil {
				return interp.Undefined(), err
			}
			nv := interp.Number(n + delta)
			if err := in.AssignSlot(env, depth, slot, nv, strict); err != nil {
				return interp.Undefined(), err
			}
			if prefix {
				return nv, nil
			}
			return interp.Number(n), nil
		}
	}
	// Identifier updates (the i++ of every fuzzer loop) read and write
	// through the resolved reference directly — no setter closure, no
	// ToNumber call for values that are already numbers.
	if id, ok := x.X.(*ast.Ident); ok {
		read := identReader(id.Name, id.Ref)
		write := identAssigner(id.Name, id.Ref)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			old, err := read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			var n float64
			if old.Kind() == interp.KindNumber {
				n = old.Num()
			} else if n, err = in.ToNumber(old); err != nil {
				return interp.Undefined(), err
			}
			nv := interp.Number(n + delta)
			if err := write(in, env, nv, strict); err != nil {
				return interp.Undefined(), err
			}
			if prefix {
				return nv, nil
			}
			return interp.Number(n), nil
		}
	}
	ref := c.ref(x.X)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		old, set, err := ref(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		n, err := in.ToNumber(old)
		if err != nil {
			return interp.Undefined(), err
		}
		nv := interp.Number(n + delta)
		if err := set(nv); err != nil {
			return interp.Undefined(), err
		}
		if prefix {
			return nv, nil
		}
		return interp.Number(n), nil
	}
}

// refThunk resolves an assignable expression to its current value plus a
// setter — the thunk twin of evalRef.
type refThunk func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, func(interp.Value) error, error)

func (c *compiler) ref(e ast.Expr) refThunk {
	switch t := e.(type) {
	case *ast.Ident:
		read := identReader(t.Name, t.Ref)
		write := identAssigner(t.Name, t.Ref)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, func(interp.Value) error, error) {
			v, err := read(in, env)
			if err != nil {
				return interp.Undefined(), nil, err
			}
			return v, func(nv interp.Value) error { return write(in, env, nv, strict) }, nil
		}
	case *ast.MemberExpr:
		parts := c.memberParts(t)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, func(interp.Value) error, error) {
			obj, key, err := parts(in, env, strict)
			if err != nil {
				return interp.Undefined(), nil, err
			}
			cur, err := in.GetPropKey(obj, key)
			if err != nil {
				return interp.Undefined(), nil, err
			}
			return cur, func(nv interp.Value) error { return in.SetProp(obj, key, nv, strict) }, nil
		}
	}
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, func(interp.Value) error, error) {
		return interp.Undefined(), nil, in.SyntaxErrorf("invalid assignment target")
	}
}

// memberParts evaluates a member expression's object and string key — the
// thunk twin of evalMemberParts (keys are converted eagerly; conversion
// can run user code, so it happens at the key's evaluation position).
type partsThunk func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, string, error)

func (c *compiler) memberParts(m *ast.MemberExpr) partsThunk {
	if !m.Computed {
		key := m.Name
		if ol, ok := leafOf(m.Obj); ok {
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, string, error) {
				ov, err := ol.read(in, env)
				if err != nil {
					return interp.Undefined(), "", err
				}
				return ov, key, nil
			}
		}
		obj := c.expr(m.Obj)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, string, error) {
			ov, err := obj(in, env, strict)
			if err != nil {
				return interp.Undefined(), "", err
			}
			return ov, key, nil
		}
	}
	obj := c.expr(m.Obj)
	prop := c.expr(m.Prop)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, string, error) {
		ov, err := obj(in, env, strict)
		if err != nil {
			return interp.Undefined(), "", err
		}
		kv, err := prop(in, env, strict)
		if err != nil {
			return interp.Undefined(), "", err
		}
		key, err := in.ToPropertyKey(kv)
		if err != nil {
			return interp.Undefined(), "", err
		}
		return ov, key, nil
	}
}

// computedParts evaluates a computed member expression keeping primitive
// keys unconverted — the thunk twin of evalComputedParts, feeding the
// by-value fast paths.
type valuePartsThunk func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, interp.Value, error)

func (c *compiler) computedParts(m *ast.MemberExpr) valuePartsThunk {
	if oid, ok := m.Obj.(*ast.Ident); ok {
		if kid, ok := m.Prop.(*ast.Ident); ok {
			readObj := identReader(oid.Name, oid.Ref)
			readKey := identReader(kid.Name, kid.Ref)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, interp.Value, error) {
				// One fuel step per identifier node, as the tree walker's
				// evalExpr entries charge.
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), interp.Undefined(), err
				}
				ov, err := readObj(in, env)
				if err != nil {
					return interp.Undefined(), interp.Undefined(), err
				}
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), interp.Undefined(), err
				}
				kv, err := readKey(in, env)
				if err != nil {
					return interp.Undefined(), interp.Undefined(), err
				}
				if kv, err = in.KeyValue(kv); err != nil {
					return interp.Undefined(), interp.Undefined(), err
				}
				return ov, kv, nil
			}
		}
	}
	obj := c.expr(m.Obj)
	prop := c.expr(m.Prop)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, interp.Value, error) {
		ov, err := obj(in, env, strict)
		if err != nil {
			return interp.Undefined(), interp.Undefined(), err
		}
		kv, err := prop(in, env, strict)
		if err != nil {
			return interp.Undefined(), interp.Undefined(), err
		}
		if kv, err = in.KeyValue(kv); err != nil {
			return interp.Undefined(), interp.Undefined(), err
		}
		return ov, kv, nil
	}
}

// ---------- logical / assignment ----------

func (c *compiler) logical(x *ast.LogicalExpr) exprThunk {
	id := x.ID()
	l, r := c.expr(x.L), c.expr(x.R)
	op := x.Op
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		lv, err := l(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		if interp.ShortCircuits(op, lv) {
			in.CoverBranch(id, 1)
			return lv, nil
		}
		in.CoverBranch(id, 0)
		return r(in, env, strict)
	}
}

func (c *compiler) assign(x *ast.AssignExpr) exprThunk {
	if x.Op == token.ASSIGN {
		return c.plainAssign(x)
	}
	switch x.Op {
	case token.LOGANDASSIGN, token.LOGORASSIGN, token.NULLISHASSIGN:
		r := c.expr(x.R)
		op := x.Op
		if id, ok := x.L.(*ast.Ident); ok {
			read := identReader(id.Name, id.Ref)
			write := identAssigner(id.Name, id.Ref)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				cur, err := read(in, env)
				if err != nil {
					return interp.Undefined(), err
				}
				if !interp.LogicalAssignTakes(op, cur) {
					return cur, nil
				}
				v, err := r(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				return v, write(in, env, v, strict)
			}
		}
		ref := c.ref(x.L)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			cur, set, err := ref(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			if !interp.LogicalAssignTakes(op, cur) {
				return cur, nil
			}
			v, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			return v, set(v)
		}
	}
	r := c.expr(x.R)
	binOp, known := interp.CompoundOp(x.Op)
	// Slot-resolved compound targets (acc += …) read and write the frame
	// slot directly; a slot read cannot fail.
	if id, ok := x.L.(*ast.Ident); ok && known && id.Ref.Kind == ast.RefSlot {
		depth, slot := id.Ref.Depth, id.Ref.Slot
		apply := binApplier(binOp)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			cur := env.SlotValue(depth, slot)
			rhs, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			v, err := apply(in, cur, rhs)
			if err != nil {
				return interp.Undefined(), err
			}
			if err := in.AssignSlot(env, depth, slot, v, strict); err != nil {
				return interp.Undefined(), err
			}
			return v, nil
		}
	}
	if id, ok := x.L.(*ast.Ident); ok && known {
		read := identReader(id.Name, id.Ref)
		write := identAssigner(id.Name, id.Ref)
		apply := binApplier(binOp)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			cur, err := read(in, env)
			if err != nil {
				return interp.Undefined(), err
			}
			rhs, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			v, err := apply(in, cur, rhs)
			if err != nil {
				return interp.Undefined(), err
			}
			return v, write(in, env, v, strict)
		}
	}
	ref := c.ref(x.L)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		cur, set, err := ref(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		rhs, err := r(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		if !known {
			return interp.Undefined(), in.SyntaxErrorf("unsupported assignment operator")
		}
		v, err := in.ApplyBinary(binOp, cur, rhs)
		if err != nil {
			return interp.Undefined(), err
		}
		return v, set(v)
	}
}

func (c *compiler) plainAssign(x *ast.AssignExpr) exprThunk {
	switch t := x.L.(type) {
	case *ast.Ident:
		// Slot-resolved targets write the frame slot directly; leaf
		// right-hand sides fuse the two unit charges (assign node + leaf
		// node) — the intervening slot/const read is pure, ChargeSeq's
		// contract. An unnamed function literal RHS needs the name fix, so
		// it stays on the generic thunk below.
		if fn, ok := x.R.(*ast.FuncLit); t.Ref.Kind == ast.RefSlot && !(ok && fn.Name == "") {
			depth, slot := t.Ref.Depth, t.Ref.Slot
			if rl, rok := leafOf(x.R); rok {
				switch rl.kind {
				case leafSlot:
					rd, rs := rl.depth, rl.slot
					return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
						if err := in.ChargeSeq(2); err != nil {
							return interp.Undefined(), err
						}
						v := env.SlotValue(rd, rs)
						if err := in.AssignSlot(env, depth, slot, v, strict); err != nil {
							return interp.Undefined(), err
						}
						return v, nil
					}
				case leafConst:
					rv := rl.v
					return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
						if err := in.ChargeSeq(2); err != nil {
							return interp.Undefined(), err
						}
						if err := in.AssignSlot(env, depth, slot, rv, strict); err != nil {
							return interp.Undefined(), err
						}
						return rv, nil
					}
				}
			}
			r := c.expr(x.R)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				v, err := r(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				if err := in.AssignSlot(env, depth, slot, v, strict); err != nil {
					return interp.Undefined(), err
				}
				return v, nil
			}
		}
		r := c.expr(x.R)
		nameFix := false
		if fn, ok := x.R.(*ast.FuncLit); ok && fn.Name == "" {
			nameFix = true
		}
		name := t.Name
		write := identAssigner(name, t.Ref)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			v, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			if nameFix {
				interp.NameFunction(v, name)
			}
			if err := write(in, env, v, strict); err != nil {
				return interp.Undefined(), err
			}
			return v, nil
		}
	case *ast.MemberExpr:
		if t.Computed {
			r := c.expr(x.R)
			if ol, ook := leafOf(t.Obj); ook {
				if kl, kok := leafOf(t.Prop); kok {
					return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
						if err := in.Charge(1); err != nil {
							return interp.Undefined(), err
						}
						ov, err := ol.read(in, env)
						if err != nil {
							return interp.Undefined(), err
						}
						kv, err := kl.read(in, env)
						if err != nil {
							return interp.Undefined(), err
						}
						if kv, err = in.KeyValue(kv); err != nil {
							return interp.Undefined(), err
						}
						v, err := r(in, env, strict)
						if err != nil {
							return interp.Undefined(), err
						}
						if err := in.SetPropByValue(ov, kv, v, strict); err != nil {
							return interp.Undefined(), err
						}
						return v, nil
					}
				}
			}
			parts := c.computedParts(t)
			return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
				if err := in.Charge(1); err != nil {
					return interp.Undefined(), err
				}
				obj, kv, err := parts(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				v, err := r(in, env, strict)
				if err != nil {
					return interp.Undefined(), err
				}
				if err := in.SetPropByValue(obj, kv, v, strict); err != nil {
					return interp.Undefined(), err
				}
				return v, nil
			}
		}
		obj := c.expr(t.Obj)
		key := t.Name
		r := c.expr(x.R)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			ov, err := obj(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			v, err := r(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			if err := in.SetProp(ov, key, v, strict); err != nil {
				return interp.Undefined(), err
			}
			return v, nil
		}
	default:
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			return interp.Undefined(), in.SyntaxErrorf("invalid assignment target")
		}
	}
}

// ---------- calls ----------

func (c *compiler) call(x *ast.CallExpr) exprThunk {
	args := c.args(x.Args)
	name := interp.DescribeCallee(x.Callee)
	if m, ok := x.Callee.(*ast.MemberExpr); ok {
		parts := c.memberParts(m)
		return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
			if err := in.Charge(1); err != nil {
				return interp.Undefined(), err
			}
			obj, key, err := parts(in, env, strict)
			if err != nil {
				return interp.Undefined(), err
			}
			fnVal, err := in.GetPropKey(obj, key)
			if err != nil {
				return interp.Undefined(), err
			}
			pooled := args.poolable && plainFunc(fnVal)
			av, err := args.eval(in, env, strict, pooled)
			if err != nil {
				return interp.Undefined(), err
			}
			if !fnVal.IsObject() || !fnVal.Obj().IsCallable() {
				return interp.Undefined(), in.TypeErrorf("%s is not a function", name)
			}
			v, err := in.Call(fnVal.Obj(), obj, av)
			if pooled {
				in.ReleaseArgs(av)
			}
			return v, err
		}
	}
	callee := c.expr(x.Callee)
	return func(in *interp.Interp, env *interp.Env, strict bool) (interp.Value, error) {
		if err := in.Charge(1); err != nil {
			return interp.Undefined(), err
		}
		fnVal, err := callee(in, env, strict)
		if err != nil {
			return interp.Undefined(), err
		}
		pooled := args.poolable && plainFunc(fnVal)
		av, err := args.eval(in, env, strict, pooled)
		if err != nil {
			return interp.Undefined(), err
		}
		if !fnVal.IsObject() || !fnVal.Obj().IsCallable() {
			return interp.Undefined(), in.TypeErrorf("%s is not a function", name)
		}
		// A plain call passes undefined; Call substitutes the global
		// object when the callee is sloppy.
		v, err := in.Call(fnVal.Obj(), interp.Undefined(), av)
		if pooled {
			in.ReleaseArgs(av)
		}
		return v, err
	}
}

// argElem is one compiled call argument.
type argElem struct {
	thunk  exprThunk
	spread bool
}

// argList is a compiled argument list. Spread-free lists (the normal
// case) may evaluate into a pooled slice when the call site proved the
// callee cannot retain it.
type argList struct {
	elems    []argElem
	poolable bool // no spread elements
}

// args compiles an argument list — the thunk twin of evalArgs.
func (c *compiler) args(exprs []ast.Expr) argList {
	elems := make([]argElem, len(exprs))
	poolable := true
	for i, a := range exprs {
		if sp, ok := a.(*ast.SpreadExpr); ok {
			elems[i] = argElem{thunk: c.expr(sp.X), spread: true}
			poolable = false
			continue
		}
		elems[i] = argElem{thunk: c.expr(a)}
	}
	return argList{elems: elems, poolable: poolable}
}

// eval evaluates the argument list; pooled selects the recycled-slice
// path (callers must ReleaseArgs after the call completes).
func (al *argList) eval(in *interp.Interp, env *interp.Env, strict bool, pooled bool) ([]interp.Value, error) {
	if pooled {
		out := in.AcquireArgs(len(al.elems))
		for i := range al.elems {
			v, err := al.elems[i].thunk(in, env, strict)
			if err != nil {
				// Return the slice on the throw path too — fuzzed
				// programs throw mid-argument-list constantly, and the
				// pool would otherwise drain exactly when it matters.
				in.ReleaseArgs(out)
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var out []interp.Value
	if len(al.elems) > 0 {
		out = make([]interp.Value, 0, len(al.elems))
	}
	for i := range al.elems {
		el := &al.elems[i]
		v, err := el.thunk(in, env, strict)
		if err != nil {
			return nil, err
		}
		if el.spread {
			items, err := in.Iterate(v)
			if err != nil {
				return nil, err
			}
			out = append(out, items...)
			continue
		}
		out = append(out, v)
	}
	return out, nil
}

// plainFunc reports whether the callee is a plain JS function — the
// args-pooling precondition (natives and bound functions may retain the
// argument slice; plain functions only copy values out of it).
func plainFunc(fnVal interp.Value) bool {
	if !fnVal.IsObject() {
		return false
	}
	o := fnVal.Obj()
	return o.Fn != nil && o.Native == nil && o.BoundTarget() == nil
}
