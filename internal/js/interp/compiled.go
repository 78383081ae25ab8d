package interp

import (
	"comfort/internal/js/ast"
	"comfort/internal/js/token"
)

// This file is the runtime-support surface for internal/js/compile: the
// compile pass turns a resolved AST into a tree of closure thunks, and
// those thunks execute against the same interpreter state — environments,
// fuel, hooks, global object — as the tree-walking evaluator. Every helper
// here is a thin exported veneer over an existing internal operation, and
// the language operations both evaluators perform are written once in
// ops.go, so the two cannot drift: a thunk that calls SetProp or UnaryOp
// gets exactly the fuel, hook interception and semantics the tree walker
// gets at the same site.

// CompiledBody executes a thunk-compiled function body in an already
// prepared call frame (parameters, rest, arguments, self-name and hoisted
// declarations are installed by Call, shared with the tree walker). It
// subsumes both statement bodies (handling the return control signal
// internally) and arrow expression bodies.
type CompiledBody func(in *Interp, env *Env, strict bool) (Value, error)

// Charge consumes n fuel steps — the compiled code's equivalent of the
// tree walker's per-node charge.
func (in *Interp) Charge(n int64) error { return in.charge(n) }

// ChargeSeq consumes n unit steps with the exact observable semantics of
// n consecutive Charge(1) calls whose intervening work is pure: the
// sequence succeeds iff fuel > n, and otherwise aborts at the step that
// drives fuel to zero, leaving fuel pinned at 0 so FuelUsed never
// over-reports past the abort point. Fused thunks may use this ONLY when
// nothing observable (output, hooks, errors, further charges) happens
// between the unit charges they replace.
func (in *Interp) ChargeSeq(n int64) error {
	if in.fuel > n {
		in.fuel -= n
		return nil
	}
	in.fuel = 0
	return &Abort{Kind: AbortTimeout, Msg: "step budget exhausted"}
}

// CtrlLabel and CtrlVal are the compiled evaluator's control registers:
// break/continue thunks write the label, return thunks write the value,
// and the statement thunks return only a one-byte control kind. Each
// register is read by its direct consumer (the loop, switch, labelled
// statement or function-body runner) before any other thunk runs; the one
// construct that executes statements between receiving a control signal
// and propagating it — try/finally — snapshots and restores them.
func (in *Interp) CtrlLabel() string     { return in.ctrlLabel }
func (in *Interp) SetCtrlLabel(l string) { in.ctrlLabel = l }
func (in *Interp) CtrlVal() Value        { return in.ctrlVal }
func (in *Interp) SetCtrlVal(v Value)    { in.ctrlVal = v }

// CurrentThis resolves the active this binding.
func (in *Interp) CurrentThis() Value { return in.currentThis() }

// TakePendingLabel consumes the pending statement label (the loop-entry
// half of the labelled break/continue protocol); SetPendingLabel sets it
// (the LabeledStmt half). Compiled code keeps this protocol dynamic — the
// tree walker lets a label flow through arbitrary statements, and even
// through calls, until the first loop consumes it, which no static pass
// can reproduce.
func (in *Interp) TakePendingLabel() string {
	l := in.pendingLabel
	in.pendingLabel = ""
	return l
}

// SetPendingLabel sets the pending statement label.
func (in *Interp) SetPendingLabel(l string) { in.pendingLabel = l }

// ---------- identifier access ----------

// SlotValue reads the binding at a resolved (depth, slot) coordinate.
func (e *Env) SlotValue(depth, slot uint16) Value { return e.at(depth, slot).v }

// AssignSlot writes through a resolved slot reference, honouring
// mutability and the function self-name rules.
func (in *Interp) AssignSlot(env *Env, depth, slot uint16, v Value, strict bool) error {
	return in.assignBinding(env.at(depth, slot), v, strict)
}

// LookupGlobalName reads a RefGlobal identifier: the global environment's
// lexical bindings, then the global object and its prototype chain.
func (in *Interp) LookupGlobalName(name string) (Value, error) { return in.lookupGlobal(name) }

// LookupDynamic reads a RefDynamic identifier by walking the environment
// chain by name.
func (in *Interp) LookupDynamic(name string, env *Env) (Value, error) {
	return in.lookupIdent(name, env)
}

// AssignGlobalName writes a RefGlobal identifier.
func (in *Interp) AssignGlobalName(name string, v Value, strict bool) error {
	if b, ok := in.GlobalEnv.lookup(name); ok {
		return in.assignBinding(b, v, strict)
	}
	return in.assignGlobalTail(name, v, strict)
}

// AssignDynamic writes a RefDynamic identifier by chain walk.
func (in *Interp) AssignDynamic(name string, v Value, env *Env, strict bool) error {
	return in.assignIdent(name, v, env, strict)
}

// ---------- declarations ----------

// ScopeEnv returns the environment a resolved scope executes in (fresh
// frame, reused parent, or dynamic child — see the unexported scopeEnv).
func (in *Interp) ScopeEnv(parent *Env, scope *ast.ScopeInfo) *Env {
	return in.scopeEnv(parent, scope)
}

// ---------- operations ----------

// Iterate spreads an iterable value (for-of, spread syntax).
func (in *Interp) Iterate(v Value) ([]Value, error) { return in.iterate(v) }

// ApplyBinary applies a binary operator to evaluated operands.
func (in *Interp) ApplyBinary(op token.Type, l, r Value) (Value, error) {
	return in.applyBinary(op, l, r)
}

// GetPropByValue reads obj[key] with the key still a language value
// (dense-array fast path included).
func (in *Interp) GetPropByValue(obj, key Value) (Value, error) {
	return in.getPropByValue(obj, key)
}

// SetPropByValue writes obj[key] = v with the key still a language value.
func (in *Interp) SetPropByValue(target, key, v Value, strict bool) error {
	return in.setPropByValue(target, key, v, strict)
}

// ---------- frame pooling ----------

// maxPooledFrames bounds the per-interpreter frame free list; beyond it
// released frames are left to the collector.
const maxPooledFrames = 64

// AcquireScope returns a slot frame for a Poolable scope, recycling a
// released frame whose slot slice is large enough. The frame is
// indistinguishable from a fresh newFrame allocation: slots are zeroed at
// release time.
func (in *Interp) AcquireScope(parent *Env, scope *ast.ScopeInfo, isFunc bool) *Env {
	for i := len(in.framePool) - 1; i >= 0; i-- {
		e := in.framePool[i]
		if cap(e.slots) >= scope.NumSlots {
			in.framePool[i] = in.framePool[len(in.framePool)-1]
			in.framePool = in.framePool[:len(in.framePool)-1]
			e.scope = scope
			e.slots = e.slots[:scope.NumSlots]
			e.parent = parent
			e.isFunc = isFunc
			return e
		}
	}
	return newFrame(parent, scope, isFunc)
}

// AcquireArgs returns an argument slice of length n from the
// per-interpreter free list. Compiled call sites use it when the callee is
// a plain JS function: such calls only ever copy argument values (into
// parameter slots, the rest array, or the arguments object), so the slice
// itself provably does not survive the call. Natives and bound functions
// are excluded — they may retain the slice.
func (in *Interp) AcquireArgs(n int) []Value {
	if k := len(in.argsPool); k > 0 {
		a := in.argsPool[k-1]
		if cap(a) >= n {
			in.argsPool = in.argsPool[:k-1]
			return a[:n]
		}
	}
	return make([]Value, n)
}

// ReleaseArgs returns an argument slice to the free list, dropping the
// value references it holds.
func (in *Interp) ReleaseArgs(a []Value) {
	if cap(a) == 0 || len(in.argsPool) >= maxPooledFrames {
		return
	}
	a = a[:cap(a)]
	for i := range a {
		a[i] = Value{}
	}
	in.argsPool = append(in.argsPool, a)
}

// ReleaseScope returns a frame obtained from AcquireScope (or newFrame)
// to the free list. Callers guarantee the frame cannot be referenced
// after release — the compile pass only marks a scope Poolable when no
// closure can capture it. A frame that grew a dynamic overlay is never
// pooled (the overlay would leak bindings across activations).
func (in *Interp) ReleaseScope(e *Env) {
	if e.vars != nil || len(in.framePool) >= maxPooledFrames {
		return
	}
	slots := e.slots[:cap(e.slots)]
	for i := range slots {
		slots[i] = binding{}
	}
	e.parent = nil
	e.scope = nil
	in.framePool = append(in.framePool, e)
}
