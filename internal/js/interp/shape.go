package interp

import (
	"sync"
	"sync/atomic"
)

// Shape is a node in the process-global hidden-class transition tree.
// Every node fixes one named property: its key, its descriptor attributes
// and the slot index it occupies in the owning object's dense slot array
// (slot == parent depth, so slots and shape chain always agree on layout).
// Objects that add the same properties in the same order with the same
// attributes share the same shape pointer.
//
// The tree is shared by every realm in the process: transitions are
// published copy-on-write under a global mutex, so campaign workers
// building realms concurrently only ever read immutable maps. A realm's
// prototypes, function objects and program objects therefore converge on
// one set of shapes after the first realm, making shape pointers stable
// across the thousands of realms a campaign builds per second.
type Shape struct {
	parent *Shape
	key    string
	attr   PropAttr
	slot   int32
	depth  int32

	// trans maps (key, attr) to the child shape; replaced wholesale on
	// insert (copy-on-write) so readers never take the lock.
	trans atomic.Pointer[map[transKey]*Shape]
	// table is a lazily built key → node index for deep chains, built at
	// most once per shape; shallow chains walk parent links instead.
	table atomic.Pointer[map[string]*Shape]
	// keyChain caches the root→leaf key order for enumeration.
	keyCache atomic.Pointer[[]string]
}

// transKey identifies a transition: property name plus descriptor
// attributes (objects that add the same key with different attributes
// must not share a shape, or attribute checks would need per-object
// storage again).
type transKey struct {
	key  string
	attr PropAttr
}

// shapeMu serialises transition inserts; lookups are lock-free.
var shapeMu sync.Mutex

// shapeRoot is the empty shape every shape-mode object starts from.
var shapeRoot = &Shape{slot: -1}

// nativeFuncShape is the prebuilt layout of every builtin function object:
// length then name, both configurable. Built once at process start so
// NewNativeFunc performs zero transition lookups.
var nativeFuncShape = shapeRoot.transition("length", Configurable).transition("name", Configurable)

// shapeTableDepth is the chain length at which find switches from the
// linear parent walk to a per-shape lookup table.
const shapeTableDepth = 8

// transition returns the child shape for adding (key, attr), creating and
// publishing it on first use.
func (s *Shape) transition(key string, attr PropAttr) *Shape {
	tk := transKey{key, attr}
	if m := s.trans.Load(); m != nil {
		if c := (*m)[tk]; c != nil {
			return c
		}
	}
	shapeMu.Lock()
	defer shapeMu.Unlock()
	old := s.trans.Load()
	if old != nil {
		if c := (*old)[tk]; c != nil {
			return c
		}
	}
	child := &Shape{
		parent: s, key: key, attr: attr,
		slot: s.depth, depth: s.depth + 1,
	}
	var nm map[transKey]*Shape
	if old == nil {
		nm = map[transKey]*Shape{tk: child}
	} else {
		nm = make(map[transKey]*Shape, len(*old)+1)
		for k, v := range *old {
			nm[k] = v
		}
		nm[tk] = child
	}
	s.trans.Store(&nm)
	return child
}

// find returns the shape node owning key, or nil when the layout has no
// such property. Deep chains (the global object accumulating program
// variables) build a lookup table once; shallow chains — the common case
// for program objects — walk parent links, which is a handful of pointer
// hops and (usually interned) string compares.
func (s *Shape) find(key string) *Shape {
	if s.depth >= shapeTableDepth {
		t := s.table.Load()
		if t == nil {
			t = s.buildTable()
		}
		return (*t)[key]
	}
	for n := s; n.depth > 0; n = n.parent {
		if n.key == key {
			return n
		}
	}
	return nil
}

// buildTable constructs and publishes the key table for a deep shape.
// Racing builders produce identical tables, so last-store-wins is fine.
func (s *Shape) buildTable() *map[string]*Shape {
	m := make(map[string]*Shape, s.depth)
	for n := s; n.depth > 0; n = n.parent {
		m[n.key] = n
	}
	s.table.Store(&m)
	return &m
}

// keyChain returns the root→leaf property name order (the insertion order
// dictionary mode records in keys), cached per shape.
func (s *Shape) keyChain() []string {
	if s.depth == 0 {
		return nil
	}
	if ks := s.keyCache.Load(); ks != nil {
		return *ks
	}
	out := make([]string, s.depth)
	for n := s; n.depth > 0; n = n.parent {
		out[n.slot] = n.key
	}
	s.keyCache.Store(&out)
	return out
}

// shapeGetOwn answers getOwn for shape-mode objects. It boxes a Property
// for descriptor-shaped callers (builtins, enumeration); the evaluator's
// hot paths read slots directly through the probes in interp.go instead.
func (o *Object) shapeGetOwn(key string) (*Property, bool) {
	sp := o.shape.find(key)
	if sp == nil {
		return nil, false
	}
	v := o.slot(sp.slot)
	if v.kind == kindPending {
		o.resolveLazy(key)
		v = o.slot(sp.slot)
		if v.kind == kindPending {
			return nil, false
		}
	}
	return &Property{Value: v, Attr: sp.attr}, true
}

// shapeAppend adds a new named data property to a shape-mode object:
// one transition, one slot append, no map, no Property box.
func (o *Object) shapeAppend(key string, v Value, attr PropAttr) {
	o.appendSlot(v)
	o.shape = o.shape.transition(key, attr)
	o.noteKey(key)
}

// appendSlot appends the slot of a key about to join the shape. A pending
// tail still implicit is allocated in the same step, with headroom for
// the keys likely to follow: an exact fill would make this append
// reallocate at once (the global object's first declaration paid for
// both).
func (o *Object) appendSlot(v Value) {
	n := int(o.shape.depth)
	if len(o.slots) < n {
		o.growSlots(n, n+1+n/4)
	}
	o.slots = append(o.slots, v)
}

// slot reads shape slot i. An index past the end of slots is in the
// implicit pending tail: a method table or lazy thunk registered its key
// without allocating a slot.
func (o *Object) slot(i int32) Value {
	if uint(i) < uint(len(o.slots)) {
		return o.slots[i]
	}
	return pendingValue
}

// fillSlots allocates the implicit pending tail, so slots covers the
// whole shape; every write at or past the current end goes through it
// (appends through appendSlot).
func (o *Object) fillSlots() {
	if n := int(o.shape.depth); len(o.slots) < n {
		o.growSlots(n, n)
	}
}

// growSlots extends slots to length n, marking the new tail pending. It
// reallocates at capacity c only when slots has less room than n: a
// pooled realm's reset hands an object back the array an earlier run
// grew (see Template.Reset).
func (o *Object) growSlots(n, c int) {
	m := len(o.slots)
	if cap(o.slots) >= n {
		o.slots = o.slots[:n]
	} else {
		grown := make([]Value, n, c)
		copy(grown, o.slots)
		o.slots = grown
	}
	for i := m; i < n; i++ {
		o.slots[i] = pendingValue
	}
}

// shapeFastKey reports whether key on o can bypass the virtual-slot checks
// (array/typed length and indices, string wrapper length and indices) and
// be answered directly from shape storage. Index keys all start with a
// digit, so one byte test clears almost every name.
func (o *Object) shapeFastKey(key string) bool {
	if len(key) == 0 {
		return false
	}
	if c := key[0]; c >= '0' && c <= '9' {
		return false
	}
	if key == "length" {
		return !o.IsArray() && o.ElemKind == ElemNone && !(o.Class == "String" && o.HasPrim)
	}
	return true
}

// toDictionary leaves shape mode: every materialised slot is boxed into
// the classic property map, pending lazy slots keep riding the lazy
// machinery, and insertion order is recovered from the shape chain. This
// is the escape hatch for deletes, accessors, attribute redefinition and
// other exotica the dense layout does not model; the object behaves
// identically afterwards, just without shape acceleration.
func (o *Object) toDictionary() {
	sh := o.shape
	if sh == nil {
		return
	}
	chain := sh.keyChain()
	d := &dictProps{
		props: make(map[string]*Property, len(chain)),
		keys:  append([]string(nil), chain...),
	}
	ps := make([]Property, sh.depth)
	for n := sh; n.depth > 0; n = n.parent {
		v := o.slot(n.slot)
		if v.kind == kindPending {
			continue // still lazy: resolveLazy installs it into props later
		}
		ps[n.slot] = Property{Value: v, Attr: n.attr}
		d.props[n.key] = &ps[n.slot]
	}
	o.dict = d
	o.shape = nil
	o.slots = nil
}
