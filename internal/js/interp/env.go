package interp

import "comfort/internal/js/ast"

// Env is a lexical environment: a chain of binding frames. Function-level
// frames absorb var declarations from nested blocks (var hoisting).
//
// A frame comes in two shapes. Dynamic frames (the global environment and
// every scope of an unresolved program) store bindings in a map, exactly as
// the original evaluator did. Slot frames (scopes of a resolve-annotated
// program) store bindings inline in a pre-sized slice, indexed by the
// static (depth, slot) coordinates the resolver assigned; per-slot liveness
// reproduces the map's "a let binding exists only once its declaration has
// executed" semantics for the dynamic fallback lookups. A slot frame may
// grow a map overlay for the rare declarations the resolver left dynamic.
type Env struct {
	vars   map[string]*binding
	scope  *ast.ScopeInfo // non-nil for slot frames
	slots  []binding      // len == scope.NumSlots; never reallocated
	parent *Env
	isFunc bool // var-scope boundary
}

type binding struct {
	v       Value
	mutable bool
	// silent marks immutable bindings whose sloppy-mode assignment is a
	// silent no-op rather than a TypeError (function self-names).
	silent bool
	// live marks slot bindings whose declaration has executed; dynamic
	// scans skip dead slots (map frames express this by absence).
	live bool
}

// declareVarWrite applies var-declaration write semantics to a slot
// binding: a dead slot is (re)created mutable; a live binding takes v only
// when init is set — a declarator without an initializer (and var
// hoisting) leaves its value alone, while `var a = undefined` writes —
// and always keeps its flags: var re-declaration never changes mutability.
func (b *binding) declareVarWrite(v Value, init bool) {
	if !b.live {
		*b = binding{v: v, mutable: true, live: true}
	} else if init {
		b.v = v
	}
}

// NewEnv creates a dynamic child environment.
func NewEnv(parent *Env, isFunc bool) *Env {
	return &Env{vars: map[string]*binding{}, parent: parent, isFunc: isFunc}
}

// newFrame creates a slot-backed child environment with scope's layout.
// The slot slice is pre-sized and must never be appended to: lookups hand
// out interior pointers.
func newFrame(parent *Env, scope *ast.ScopeInfo, isFunc bool) *Env {
	return &Env{scope: scope, slots: make([]binding, scope.NumSlots), parent: parent, isFunc: isFunc}
}

// scopeEnv returns the environment a resolved scope executes in: a fresh
// frame when the scope has slots, the enclosing environment when it is
// empty (the resolver's depth accounting relies on empty scopes not
// materialising), and a dynamic child for unresolved scopes.
func (in *Interp) scopeEnv(parent *Env, scope *ast.ScopeInfo) *Env {
	if scope != nil {
		if scope.NumSlots == 0 {
			return parent
		}
		return newFrame(parent, scope, false)
	}
	return NewEnv(parent, false)
}

// at returns the binding at the static coordinate (depth materialised
// frames up, index slot).
func (e *Env) at(depth, slot uint16) *binding {
	for ; depth > 0; depth-- {
		e = e.parent
	}
	return &e.slots[slot]
}

// slotIndex scans a slot frame's layout for name.
func (e *Env) slotIndex(name string) (int, bool) {
	for i, n := range e.scope.Names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// lookup finds the binding for name, walking outward. Slot frames are
// scanned by name honouring liveness; map frames (and slot-frame overlays)
// by key presence.
func (e *Env) lookup(name string) (*binding, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.scope != nil {
			if i, ok := cur.slotIndex(name); ok && cur.slots[i].live {
				return &cur.slots[i], true
			}
		}
		if b, ok := cur.vars[name]; ok {
			return b, true
		}
	}
	return nil, false
}

// varScope returns the frame e's var declarations bind on: the nearest
// function frame, or the root (global) environment.
func (e *Env) varScope() *Env {
	fn := e
	for fn.parent != nil && !fn.isFunc {
		fn = fn.parent
	}
	return fn
}

// declareVar creates a var-scoped binding on the nearest function frame,
// with declareVarWrite's semantics.
func (e *Env) declareVar(name string, v Value, init bool) {
	fn := e.varScope()
	if fn.scope != nil {
		if i, ok := fn.slotIndex(name); ok {
			fn.slots[i].declareVarWrite(v, init)
			return
		}
	}
	if b, ok := fn.vars[name]; ok {
		if init {
			b.v = v
		}
		return
	}
	if fn.vars == nil {
		fn.vars = map[string]*binding{}
	}
	fn.vars[name] = &binding{v: v, mutable: true, live: true}
}

// declareLexical creates a block-scoped binding on this frame.
func (e *Env) declareLexical(name string, v Value, mutable bool) {
	if e.scope != nil {
		if i, ok := e.slotIndex(name); ok {
			e.slots[i] = binding{v: v, mutable: mutable, live: true}
			return
		}
	}
	if e.vars == nil {
		e.vars = map[string]*binding{}
	}
	e.vars[name] = &binding{v: v, mutable: mutable, live: true}
}

// declareFuncSelfName creates the immutable (but sloppy-silent) binding of a
// named function expression's own name inside its body.
func (e *Env) declareFuncSelfName(name string, v Value) {
	if e.vars == nil {
		e.vars = map[string]*binding{}
	}
	e.vars[name] = &binding{v: v, mutable: false, silent: true, live: true}
}

// Has reports whether name resolves in this environment chain.
func (e *Env) Has(name string) bool {
	_, ok := e.lookup(name)
	return ok
}
