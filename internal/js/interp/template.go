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
//
// The template also holds the lazily installed stdlib sections (see
// AddSection): each is a range of a second object index space, copied
// into the realm's slab for that section on the section's first touch
// (Materialize) instead of re-running its installer.
type Template struct {
	objs  []*Object // walk order; objs[0] is the global object
	proto []int32   // index of objs[i].Proto, -1 for none

	nslots, nlazy int // slab sizes
	// slotRefs are the object-valued slots.
	slotRefs []objRef

	protos    []namedRef
	protoMiss func(*Interp, string)
	// snap is the realm NewTemplate snapshot; the realm fields of
	// template objects, section copies included (see detach), name it.
	snap *Interp

	// secObjs are every section's objects, section by section; secProto
	// holds the secRef of each one's prototype and secOf its section.
	secObjs  []*Object
	secProto []int32
	secOf    []int32
	sections []section
}

// objRef is one pointer to remap: objs[obj].slots[slot] holds
// objs[target]. In a section, obj indexes secObjs and target is a secRef.
type objRef struct{ obj, slot, target int32 }

// A secRef names an object a section refers to: i >= 0 is objs[i], the
// realm's copy of an eager object, and ^j is secObjs[j], an object of this
// section or of one materialised before it (the Error base, for an error
// kind); noObj is none.
const noObj int32 = -1 << 31

// section is one lazy stdlib section: its objects secObjs[lo:hi], the
// sizes of its value and lazy slabs, the object-valued slots to remap,
// and the writes its installer made to objects that existed before it
// ran, in installer order.
type section struct {
	lo, hi        int32
	nslots, nlazy int
	refs          []objRef
	writes        []sectionWrite
}

// sectionWrite is a SectionWrite with its object value as a secRef
// (noObj for a primitive value, which Val holds).
type sectionWrite struct {
	SectionWrite
	target int32
}

// SectionWrite is one write a lazy section's installer makes to state
// that exists before it runs: a global binding, Global.SetSlot(Name, Val,
// Attr), or, with Proto set, the Protos entry Name.
type SectionWrite struct {
	Name  string
	Val   Value
	Attr  PropAttr
	Proto bool
}

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
	t := &Template{protoMiss: in.ProtoMiss, snap: in}
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
	checkCloneable(in, o)
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

// checkCloneable panics unless o, an object of realm in, holds only state
// a template copy reproduces (see Template).
func checkCloneable(in *Interp, o *Object) {
	switch {
	case o.Fn != nil, o.ext != nil, o.elems != nil, o.lazyInstalling != 0,
		o.Prim.kind == KindObject:
		panic(fmt.Sprintf("interp: realm template cannot clone %s object state", o.Class))
	case o.shape == nil || o.dict != nil:
		panic(fmt.Sprintf("interp: realm template cannot clone a %s object in dictionary mode", o.Class))
	case o.realm != nil && o.realm != in:
		panic("interp: realm template object belongs to another realm")
	}
}

// realmSlab is the backing storage of a realm's copy of its template: one
// Object, one Value and one lazyProp slab, sized by the template. secs
// holds one such slab per lazy section, allocated by the realm's first
// Materialize of that section, so a realm holds storage only for the
// sections its runs touched.
type realmSlab struct {
	objs []Object
	vals []Value
	lazy []lazyProp
	secs []realmSlab
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
// the section slabs, which the next run's first touch of a section
// copies that section into again (until then they hold the last run's
// section objects, which nothing in the reset realm reaches);
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

// fill copies the template's object graph into in's slabs (see copyFrom)
// and points in.Global, in.Protos and in.ProtoMiss at the copy.
func (t *Template) fill(in *Interp) {
	objs := in.slab.objs
	var nv, nl int
	for i, src := range t.objs {
		o := &objs[i]
		nv, nl = o.copyFrom(in, src, &in.slab, nv, nl)
		if p := t.proto[i]; p >= 0 {
			o.Proto = &objs[p]
		}
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

// copyFrom makes o, an object of realm in, a copy of the template object
// src whose slots and lazy entries take slab's value and lazy slabs from
// nv and nl on, and returns the slab positions after them. An object
// whose slots outgrew their slab range keeps the grown array: a slab
// range is capped at exactly the template's length, so only an array a
// run grew has room to spare.
func (o *Object) copyFrom(in *Interp, src *Object, slab *realmSlab, nv, nl int) (int, int) {
	old := o.slots
	*o = *src
	if o.realm != nil {
		o.realm = in
	}
	n := len(src.slots)
	if cap(old) > n {
		o.slots = old[:n]
		clear(old[n:cap(old)])
	} else {
		o.slots = slab.vals[nv : nv+n : nv+n]
	}
	copy(o.slots, src.slots)
	nv += n
	n = copy(slab.lazy[nl:], src.lazy)
	o.lazy = slab.lazy[nl : nl+n : nl+n]
	return nv, nl + n
}

// AddSection snapshots one lazy stdlib section and returns its ID for
// Materialize. in is a realm New built from t whose installer for the
// section has just run, after Materialize of any section it builds on
// (the Error base, for an error kind); writes are that installer's writes
// to state that existed before it ran, in the order it made them. The
// section's objects are those the writes reach that in did not hold
// before; like the eager graph, each must be cloneable (see Template).
// AddSection panics if the installer wrote any other object the realm
// already held, or a Protos entry it did not record: Materialize replays
// the recorded writes only. The realm must not be used afterwards.
func (t *Template) AddSection(in *Interp, writes []SectionWrite) int {
	idx := make(map[*Object]int32, len(in.slab.objs))
	for i := range in.slab.objs {
		idx[&in.slab.objs[i]] = int32(i)
	}
	for id, sec := range in.slab.secs {
		for j := range sec.objs {
			idx[&sec.objs[j]] = ^(t.sections[id].lo + int32(j))
		}
	}
	s := section{lo: int32(len(t.secObjs))}
	add := func(o *Object) int32 {
		if o == nil {
			return noObj
		}
		if i, ok := idx[o]; ok {
			return i
		}
		j := ^int32(len(t.secObjs))
		idx[o] = j
		t.secObjs = append(t.secObjs, o)
		return j
	}
	for _, w := range writes {
		sw := sectionWrite{SectionWrite: w, target: noObj}
		if w.Val.kind == KindObject {
			sw.target = add(w.Val.Obj())
			sw.Val = Value{}
		} else if w.Proto {
			panic("interp: a section's Protos entry must be an object")
		}
		s.writes = append(s.writes, sw)
	}
	for j := int(s.lo); j < len(t.secObjs); j++ {
		o := t.secObjs[j]
		checkCloneable(in, o)
		t.secProto = append(t.secProto, add(o.Proto))
		t.secOf = append(t.secOf, int32(len(t.sections)))
		for i, v := range o.slots {
			if v.kind == KindObject {
				s.refs = append(s.refs, objRef{int32(j), int32(i), add(v.Obj())})
			}
		}
		s.nslots += len(o.slots)
		s.nlazy += len(o.lazy)
	}
	s.hi = int32(len(t.secObjs))
	t.checkOnlyWrites(in, writes, idx)
	for j := s.lo; j < s.hi; j++ {
		t.secObjs[j] = t.detach(t.secObjs[j])
	}
	t.sections = append(t.sections, s)
	return len(t.sections) - 1
}

// detach returns a copy of the section object o that holds no pointer
// into the scratch realm it was built in, so the template does not keep
// that realm alive. Materialize sets every such pointer again: the
// prototype and the object-valued slots by secRef, and a non-nil realm
// (the snapshot realm's stands in for it here).
func (t *Template) detach(o *Object) *Object {
	c := *o
	c.Proto = nil
	if c.realm != nil {
		c.realm = t.snap
	}
	c.slots = append([]Value(nil), o.slots...)
	for i := range c.slots {
		if c.slots[i].kind == KindObject {
			c.slots[i].ref = nil
		}
	}
	return &c
}

// checkOnlyWrites panics unless the installer that ran on in changed no
// object of the eager graph beyond the global bindings in writes or in an
// earlier section (one in may hold a copy of), and no Protos entry beyond
// those in writes or an earlier section's. idx maps in's objects to
// secRefs.
func (t *Template) checkOnlyWrites(in *Interp, writes []SectionWrite, idx map[*Object]int32) {
	bound := map[string]bool{}
	written := map[string]*Object{}
	for _, w := range writes {
		bound[w.Name] = bound[w.Name] || !w.Proto
		if w.Proto {
			written[w.Name] = w.Val.Obj()
		}
	}
	for _, s := range t.sections {
		for _, w := range s.writes {
			bound[w.Name] = bound[w.Name] || !w.Proto
		}
	}
	tidx := make(map[*Object]int32, len(t.objs))
	for i, o := range t.objs {
		tidx[o] = int32(i)
	}
	same := func(a, b Value) bool {
		if a.kind != KindObject || b.kind != KindObject {
			return a.kind == b.kind && a.bits == b.bits && a.ref == b.ref
		}
		i, ok := idx[a.Obj()]
		return ok && i == tidx[b.Obj()]
	}
	for i, src := range t.objs {
		o := &in.slab.objs[i]
		ok := o.Class == src.Class && o.shape == src.shape && o.dict == nil &&
			o.Extensible == src.Extensible && o.integrity == src.integrity &&
			o.lazyTab == src.lazyTab && o.tabPending == src.tabPending &&
			len(o.lazy) == len(src.lazy) &&
			(o.Proto == nil) == (src.Proto == nil) &&
			(o.Proto == nil || idx[o.Proto] == int32(t.proto[i]))
		if ok && i != 0 {
			ok = o.lazyLeft == src.lazyLeft
		}
		for k := 0; ok && k < len(o.lazy); k++ {
			ok = o.lazy[k].key == src.lazy[k].key &&
				(bound[o.lazy[k].key] || (o.lazy[k].install == nil) == (src.lazy[k].install == nil))
		}
		for k := int32(0); ok && k < o.shape.depth; k++ {
			ok = same(o.slot(k), src.slot(k)) || i == 0 && bound[src.shape.keyChain()[k]]
		}
		if !ok {
			panic(fmt.Sprintf("interp: a lazy section's installer wrote the realm's %s object outside its recorded writes", src.Class))
		}
	}
	for name, p := range in.Protos {
		j, ok := idx[p]
		switch {
		case written[name] != nil:
			ok = written[name] == p
		case ok && j >= 0:
			ok = t.protoIndex(name) == j
		}
		if !ok {
			panic("interp: a lazy section's installer wrote the Protos entry " + name + " outside its recorded writes")
		}
	}
}

// protoIndex returns the object index of the eager Protos entry name, or
// noObj.
func (t *Template) protoIndex(name string) int32 {
	for _, e := range t.protos {
		if e.name == name {
			return e.idx
		}
	}
	return noObj
}

// Materialize copies lazy section id (see AddSection) into in, a realm
// New built from t, in place of running the section's installer: it
// fills the realm's slab for the section and then replays the
// installer's writes in order, through the same global-binding path
// (Global.SetSlot) and Protos entries, so enumeration order, shapes and
// fuel match an install. The caller guards against a second
// Materialize of one section into one run. Once the realm has held the
// section, Materialize allocates nothing but what a global binding's
// write itself does (the global object's first growth past its slab
// range).
func (t *Template) Materialize(in *Interp, id int) {
	s := &t.sections[id]
	if in.slab.secs == nil {
		if len(in.slab.objs) != len(t.objs) {
			panic("interp: section materialised into a realm not built from the template")
		}
		in.slab.secs = make([]realmSlab, len(t.sections))
	}
	slab := &in.slab.secs[id]
	if slab.objs == nil {
		*slab = realmSlab{
			objs: make([]Object, s.hi-s.lo),
			vals: make([]Value, s.nslots),
			lazy: make([]lazyProp, s.nlazy),
		}
	}
	var nv, nl int
	for j := s.lo; j < s.hi; j++ {
		o := &slab.objs[j-s.lo]
		nv, nl = o.copyFrom(in, t.secObjs[j], slab, nv, nl)
		o.Proto = t.resolve(in, t.secProto[j])
	}
	for _, r := range s.refs {
		slab.objs[r.obj-s.lo].slots[r.slot].ref = unsafe.Pointer(t.resolve(in, r.target))
	}
	for i := range s.writes {
		w := &s.writes[i]
		v := w.Val
		if w.target != noObj {
			v = ObjValue(t.resolve(in, w.target))
		}
		if w.Proto {
			in.Protos[w.Name] = v.Obj()
		} else {
			in.Global.SetSlot(w.Name, v, w.Attr)
		}
	}
}

// resolve returns in's object for the secRef r.
func (t *Template) resolve(in *Interp, r int32) *Object {
	switch {
	case r == noObj:
		return nil
	case r >= 0:
		return &in.slab.objs[r]
	}
	j := ^r
	id := t.secOf[j]
	return &in.slab.secs[id].objs[j-t.sections[id].lo]
}
