package interp

import (
	"fmt"
	"unsafe"
)

// Template is a read-only snapshot of a pristine shape-layout realm: the
// global object, every object reachable from it or from the Protos table,
// and the realm's Protos and ProtoMiss. New copies the graph into a fresh
// interpreter instead of re-running the standard-library installers, and
// Reset copies it again into a used one; one of the two runs per physical
// testbed execution, so the copy sits on the campaign scheduler's hottest
// path.
//
// The snapshot fixes an object index and every pointer to remap, in a
// deterministic walk order (the global object, then breadth-first through
// prototypes and object-valued slots in layout order, then the Protos
// entries in the order given); it never iterates a Go map. New allocates
// one Object slab, one Value slab and one lazyProp slab (an empty slab
// allocates nothing); the copy (fill) writes every struct into the slabs
// and re-points each internal pointer by index. Pending slot tails stay
// unallocated (see Object.slot). Every slab range is capped at its
// length, so an append or a lazy resolution in the copy reallocates
// instead of writing past its range, and no copy ever holds a template
// object's backing array: template objects are never written after the
// snapshot, and any number of goroutines may copy one template
// concurrently.
//
// The snapshot supports exactly the state a pristine shape-layout realm
// holds — ordinary and native-function objects with data properties in
// slots, lazy thunks and native-method tables — and panics on anything
// else (objects in dictionary mode, closures over JS code, array
// elements, and any ext state: bound and arrow functions, buffers,
// regexps), so a new eager stdlib section that cannot be cloned fails at
// the first realm build instead of leaking state between realms. A
// dictionary-layout realm is never a clone: the oracle configuration
// installs its standard library from scratch, so the clone code here is
// itself under test whenever the two layouts are compared.
type Template struct {
	objs  []*Object // walk order; objs[0] is the global object
	proto []int32   // index of objs[i].Proto, -1 for none

	nslots, nlazy int // slab sizes
	// slotRefs are the object-valued slots.
	slotRefs []objRef

	protos    []namedRef
	protoMiss func(*Interp, string)
}

// objRef is one pointer to remap: objs[obj].slots[slot] holds
// objs[target].
type objRef struct{ obj, slot, target int32 }

// namedRef is one Protos entry: name → object index.
type namedRef struct {
	name string
	idx  int32
}

// NewTemplate snapshots the realm in, which must not run code or be
// written afterwards. names lists every Protos key in a fixed order; an
// entry missing from it panics, as does any object state a clone could
// not reproduce (see Template).
func NewTemplate(in *Interp, names []string) *Template {
	t := &Template{protoMiss: in.ProtoMiss}
	idx := map[*Object]int32{}
	add := func(o *Object) int32 {
		if o == nil {
			return -1
		}
		if i, ok := idx[o]; ok {
			return i
		}
		i := int32(len(t.objs))
		idx[o] = i
		t.objs = append(t.objs, o)
		return i
	}
	next := 0
	walk := func() {
		for ; next < len(t.objs); next++ {
			t.visit(in, t.objs[next], add)
		}
	}
	add(in.Global)
	walk()
	for _, name := range names {
		if p := in.Protos[name]; p != nil {
			t.protos = append(t.protos, namedRef{name, add(p)})
		}
	}
	walk()
	if len(t.protos) != len(in.Protos) {
		panic("interp: realm template names miss a Protos entry")
	}
	return t
}

// visit records one object's prototype, remap positions and slab shares.
func (t *Template) visit(in *Interp, o *Object, add func(*Object) int32) {
	switch {
	case o.Fn != nil, o.ext != nil, o.elems != nil, o.lazyInstalling != 0,
		o.Prim.kind == KindObject:
		panic(fmt.Sprintf("interp: realm template cannot clone %s object state", o.Class))
	case o.shape == nil || o.dict != nil:
		panic(fmt.Sprintf("interp: realm template cannot clone a %s object in dictionary mode", o.Class))
	case o.realm != nil && o.realm != in:
		panic("interp: realm template object belongs to another realm")
	}
	obj := int32(len(t.proto))
	t.proto = append(t.proto, add(o.Proto))
	for i, v := range o.slots {
		if v.kind == KindObject {
			t.slotRefs = append(t.slotRefs, objRef{obj, int32(i), add(v.Obj())})
		}
	}
	t.nslots += len(o.slots)
	t.nlazy += len(o.lazy)
}

// realmSlab is the backing storage of a realm's copy of its template: one
// Object, one Value and one lazyProp slab, sized by the template.
type realmSlab struct {
	objs []Object
	vals []Value
	lazy []lazyProp
}

// New creates an interpreter configured by cfg whose realm is a copy of
// the template's object graph: in.Global, in.Protos and in.ProtoMiss. The
// configuration must select the shape layout.
func (t *Template) New(cfg Config) *Interp {
	if cfg.DisableShapes {
		panic("interp: a realm template builds shape-layout realms only")
	}
	in := newInterp(cfg)
	in.slab = realmSlab{
		objs: make([]Object, len(t.objs)),
		vals: make([]Value, t.nslots),
		lazy: make([]lazyProp, t.nlazy),
	}
	t.fill(in)
	return in
}

// Reset returns in, a realm built by New from this template
// and possibly run since, to the state New(cfg) would build. Every field
// is zeroed by construction (see Interp.init); only buffers survive: the
// object, value and lazy slabs, which the template is copied into again;
// the slot array of every realm object a run grew past its slab range
// (the global object's first top-level declaration, a prototype's lazy
// tail), which takes the template's slots again with the rest cleared,
// so the next run's growth of that object fits without reallocating;
// the Protos and global-binding maps, cleared; and the Math.random
// source, reseeded on first use. The maps keep the size of the largest
// run the realm has served: over the benchmark workloads a run declares
// at most one global binding (top-level var and function declarations
// live on the global object, not in the map).
//
// Reset copies the whole template rather than tracking which objects a
// run dirtied: the template is a few kilobytes, and a dirty bit would
// cost a branch on every mutation path of the evaluator.
//
// With no other reference to in or to any object it reached, runs on a
// reset realm are indistinguishable from runs on a new one, fuel
// included. Reset allocates nothing.
func (t *Template) Reset(in *Interp, cfg Config) {
	if cfg.DisableShapes {
		panic("interp: a realm template resets shape-layout realms only")
	}
	if len(in.slab.objs) != len(t.objs) || len(in.slab.vals) != t.nslots || len(in.slab.lazy) != t.nlazy {
		panic("interp: realm reset from a template it was not built from")
	}
	clear(in.Protos)
	clear(in.GlobalEnv.vars)
	protos, genv, slab, rng := in.Protos, in.GlobalEnv, in.slab, in.rand
	*genv = Env{vars: genv.vars, isFunc: true}
	in.init(cfg, protos, genv)
	in.slab, in.rand = slab, rng
	t.fill(in)
}

// fill copies the template's object graph into in's slabs and points
// in.Global, in.Protos and in.ProtoMiss at the copy. An object whose
// slots outgrew their slab range keeps the grown array: a slab range is
// capped at exactly the template's length, so only an array a run grew
// has room to spare.
func (t *Template) fill(in *Interp) {
	objs, vals, lazy := in.slab.objs, in.slab.vals, in.slab.lazy
	var nv, nl int
	for i, src := range t.objs {
		o := &objs[i]
		old := o.slots
		*o = *src
		if p := t.proto[i]; p >= 0 {
			o.Proto = &objs[p]
		}
		if o.realm != nil {
			o.realm = in
		}
		n := len(src.slots)
		if cap(old) > n {
			o.slots = old[:n]
			clear(old[n:cap(old)])
		} else {
			o.slots = vals[nv : nv+n : nv+n]
		}
		copy(o.slots, src.slots)
		nv += n
		n = copy(lazy[nl:], src.lazy)
		o.lazy = lazy[nl : nl+n : nl+n]
		nl += n
	}
	for _, r := range t.slotRefs {
		objs[r.obj].slots[r.slot].ref = unsafe.Pointer(&objs[r.target])
	}
	in.Global = &objs[0]
	for _, e := range t.protos {
		in.Protos[e.name] = &objs[e.idx]
	}
	in.ProtoMiss = t.protoMiss
}
