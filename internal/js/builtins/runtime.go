// Package builtins installs the ECMAScript standard library into an
// interpreter instance: Object, Function, Array, String, Number, Boolean,
// Math, JSON, RegExp, Date, the Error hierarchy, typed arrays, DataView,
// eval and the global functions. Every builtin carries a canonical spec key
// (e.g. "String.prototype.substr") through which engine defects intercept it
// and the dedup tree classifies bug reports.
package builtins

import (
	"sync"

	"comfort/internal/js/interp"
)

// NewRuntime creates an interpreter with the full standard library. A
// shape-layout realm is a clone of the pristine realm template; a
// dictionary-layout realm (the oracle configuration) runs the installers
// from scratch, so comparing the two layouts also checks the clone.
func NewRuntime(cfg interp.Config) *interp.Interp {
	if !cfg.DisableShapes {
		return realmTemplate().New(cfg)
	}
	return install(cfg)
}

// ResetRuntime returns in, a shape-layout interpreter NewRuntime built, to
// the state NewRuntime(cfg) would build, reusing its buffers (see
// interp.Template.Reset). cfg must select the shape layout.
func ResetRuntime(in *interp.Interp, cfg interp.Config) {
	realmTemplate().Reset(in, cfg)
}

// Native-method tables: the first template build runs a capture pass on a
// throwaway interpreter, recording every r.method registration into a
// frozen, realm-independent interp.NativeTable per receiver object (the
// method implementations only ever touch the interpreter passed at call
// time, never the realm that registered them — the receiver parameter
// shadows the installer's). Realms attach the frozen table (one pointer,
// one key-slice append) instead of registering each method (a closure and
// a map insert per method).
//
// The realm template: installAll then runs once per process on a
// shape-layout realm, and interp.NewTemplate snapshots the result. Every
// shape-layout realm after that is a copy of it — a new clone (NewRuntime)
// or a used realm refilled in place (ResetRuntime, which the engines
// package's realm pool calls once per physical testbed execution, the
// campaign scheduler's single hottest path). The template build then runs
// each lazy section's installer once, on a scratch clone, and snapshots
// what it built (interp.Template.AddSection); a shape-layout realm's
// first touch of a section copies that snapshot in
// (interp.Template.Materialize). Dictionary-layout realms share only the
// frozen method tables and run every installer themselves. Nothing in the
// template may capture its realm: lazy thunks, the prototype-miss hook
// and constructor bodies receive the realm they run in, and per-realm
// "already installed" state lives in interp.Interp.Sections and the
// Protos table.
var (
	tableOnce sync.Once
	// methodTables maps a method's canonical spec key to the frozen table
	// of its receiver object.
	methodTables map[string]*interp.NativeTable

	templateOnce sync.Once
	template     *interp.Template
)

// realmTemplate returns the pristine shape-layout realm, building it on
// first use.
func realmTemplate() *interp.Template {
	templateOnce.Do(func() { template = buildTemplate() })
	return template
}

// eagerCtors names, in installation order, every Protos entry a pristine
// realm holds (the lazy sections add theirs on first use).
var eagerCtors = []string{"Object", "Function", "Array", "String", "Number", "Boolean", "RegExp"}

// The lazy sections, in snapshot order: a section's constant is its
// interp.Template section ID, and 1 << ID its bit in
// interp.Interp.Sections. sectionErrors+i is errorKinds[i]'s section;
// errorKinds[0] is the Error base every other kind builds on.
const (
	sectionPrint = iota
	sectionMath
	sectionJSON
	sectionDate
	sectionTypedArrays
	sectionErrors
)

// numSections counts the lazy sections.
var numSections = sectionErrors + len(errorKinds)

// installSection runs lazy section id's installer.
func installSection(r *registry, id int) {
	switch id {
	case sectionPrint:
		installPrint(r)
	case sectionMath:
		installMath(r)
	case sectionJSON:
		installJSON(r)
	case sectionDate:
		installDate(r)
	case sectionTypedArrays:
		installTypedArrays(r)
	case sectionErrors:
		installErrorBase(r)
	default:
		installErrorKind(r, errorKinds[id-sectionErrors])
	}
}

// buildTemplate installs the standard library on a shape-layout realm,
// snapshots it, and then snapshots every lazy section. Each section's
// installer runs on its own scratch clone with every Sections bit set, so
// the nested thunk its first global binding reaches returns at once; an
// error kind's clone holds a copy of the Error base first.
func buildTemplate() *interp.Template {
	t := interp.NewTemplate(install(interp.Config{}), eagerCtors)
	for id := 0; id < numSections; id++ {
		in := t.New(interp.Config{})
		in.Sections = ^uint32(0)
		if id > sectionErrors {
			t.Materialize(in, sectionErrors)
		}
		var writes []interp.SectionWrite
		installSection(&registry{in: in, writes: &writes}, id)
		if got := t.AddSection(in, writes); got != id {
			panic("builtins: lazy section snapshot out of order")
		}
	}
	return t
}

// materialize installs lazy section id into in: a copy of the template's
// snapshot on a shape-layout realm (always a template clone), the
// installer itself on a dictionary-layout one.
func materialize(in *interp.Interp, id int) {
	if in.DisableShapes {
		installSection(&registry{in: in}, id)
		return
	}
	realmTemplate().Materialize(in, id)
}

func captureTables() {
	cap := &registry{
		in:        interp.New(interp.Config{}),
		capturing: map[*interp.Object]*interp.NativeTable{},
		captured:  map[string]*interp.NativeTable{},
	}
	installAll(cap)
	methodTables = cap.captured
}

// install creates an interpreter configured by cfg and runs every
// installer on it.
func install(cfg interp.Config) *interp.Interp {
	tableOnce.Do(captureTables)
	in := interp.New(cfg)
	installAll(&registry{in: in})
	return in
}

// installAll wires every stdlib section through the given registry: the
// template realm, a dictionary-layout realm, or the one-time table-capture
// pass.
//
// Sections reachable only through a global binding (Math, JSON, Date,
// the typed-array family, print/console and the global functions) are
// installed lazily on first access to any of their globals, since most
// generated programs touch none of them. Everything a literal or primitive
// can reach (Object/Function/Array/String/Number/Boolean/RegExp
// prototypes) stays eager; the Error hierarchy is lazy per kind (see
// installErrorsLazy).
func installAll(r *registry) {
	in := r.in

	// Bootstrap Object.prototype and Function.prototype first: everything
	// else hangs off them.
	objProto := in.NewObject(nil)
	in.Protos["Object"] = objProto
	fnProto := in.NewObject(objProto)
	fnProto.Class = "Function"
	in.Protos["Function"] = fnProto

	installObject(r)
	installFunction(r)
	installErrorsLazy(r)
	installArray(r)
	installString(r)
	installNumber(r)
	installBoolean(r)
	installRegExp(r)
	installGlobals(r)

	lazySection(r, sectionMath, "Math")
	lazySection(r, sectionJSON, "JSON")
	lazySection(r, sectionDate, "Date")
	lazySection(r, sectionTypedArrays,
		"ArrayBuffer",
		"Int8Array", "Uint8Array", "Uint8ClampedArray",
		"Int16Array", "Uint16Array",
		"Int32Array", "Uint32Array",
		"Float32Array", "Float64Array",
		"DataView")
}

// lazySection defers section id until any of its global names is
// touched; it materialises at most once per realm, guarded by the
// section's bit in interp.Interp.Sections (binding one name of a
// multi-name section writes its siblings, which re-enters the thunk). The
// capture pass installs immediately — its realm must register every
// method table.
func lazySection(r *registry, id int, names ...string) {
	if r.capturing != nil {
		installSection(r, id)
		return
	}
	thunk := func(in *interp.Interp) {
		if in.Sections&(1<<id) != 0 {
			return
		}
		in.Sections |= 1 << id
		materialize(in, id)
	}
	for _, n := range names {
		r.in.Global.SetLazy(r.in, n, thunk)
	}
}

// registry carries shared helpers for the install functions.
type registry struct {
	in *interp.Interp
	// capturing/captured are set only during the one-time table-capture
	// pass: capturing groups entries by receiver object, captured indexes
	// the resulting tables by method spec key.
	capturing map[*interp.Object]*interp.NativeTable
	captured  map[string]*interp.NativeTable
	// writes, set while the template build snapshots a lazy section,
	// records the installer's global bindings and Protos entries.
	writes *[]interp.SectionWrite
}

// shortName strips the canonical spec key down to its final segment.
func shortName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// fn creates a native function object with the canonical spec key name.
func (r *registry) fn(name string, arity int, f interp.NativeFunc) *interp.Object {
	return interp.NewNativeFunc(r.in.Protos["Function"], name, shortName(name), arity, f)
}

// method attaches a native method to obj under its short name. Function
// objects are built lazily on first access (a generated program touches a
// handful of the library's hundreds of methods); registration itself goes
// through the frozen per-object method tables, so a realm pays one table
// attachment per object instead of one closure + map insert per method.
// Materialisation order remains the registration order, and
// delete/overwrite interactions go through the lazy resolution in Object.
func (r *registry) method(obj *interp.Object, name string, arity int, f interp.NativeFunc) {
	short := shortName(name)
	if r.capturing != nil {
		t := r.capturing[obj]
		if t == nil {
			t = &interp.NativeTable{ByName: map[string]uint8{}}
			r.capturing[obj] = t
		}
		if len(t.Entries) >= interp.MaxNativeTableEntries {
			panic("builtins: method table overflow for " + name)
		}
		t.ByName[short] = uint8(len(t.Entries))
		t.Names = append(t.Names, short)
		t.Entries = append(t.Entries, interp.NativeTableEntry{SpecKey: name, Short: short, Arity: arity, Fn: f})
		r.captured[name] = t
		// Install eagerly on the capture realm so intra-install reads see
		// a complete object.
		obj.SetSlot(short, interp.ObjValue(r.fn(name, arity, f)), interp.Writable|interp.Configurable)
		return
	}
	t, ok := methodTables[name]
	if !ok {
		// The capture pass runs every installer eagerly, so every method
		// name a realm registers is in a table.
		panic("builtins: method " + name + " missing from the captured tables")
	}
	if obj.LazyTable() == nil {
		obj.AttachLazyTable(t, r.in)
	}
}

// global binds a value on the global object.
func (r *registry) global(name string, v interp.Value) {
	const attr = interp.Writable | interp.Configurable
	if r.writes != nil {
		*r.writes = append(*r.writes, interp.SectionWrite{Name: name, Val: v, Attr: attr})
	}
	r.in.Global.SetSlot(name, v, attr)
}

// globalFn binds a native function on the global object, building it
// lazily on first access like method does.
func (r *registry) globalFn(name string, arity int, f interp.NativeFunc) {
	r.in.Global.SetLazy(r.in, name, func(in *interp.Interp) {
		r := registry{in: in} // the realm's own, never the template's
		r.global(name, interp.ObjValue(r.fn(name, arity, f)))
	})
}

// ctor creates a constructor function wired to a prototype object, registers
// the prototype in the realm's Protos table, and exposes the constructor
// globally.
func (r *registry) ctor(name string, arity int, proto *interp.Object,
	call, construct interp.NativeFunc) *interp.Object {
	c := r.fn(name, arity, call)
	c.Construct = construct
	c.SetSlot("prototype", interp.ObjValue(proto), 0)
	proto.SetSlot("constructor", interp.ObjValue(c), interp.Writable|interp.Configurable)
	if r.writes != nil {
		*r.writes = append(*r.writes, interp.SectionWrite{Name: name, Val: interp.ObjValue(proto), Proto: true})
	}
	r.in.Protos[name] = proto
	r.global(name, interp.ObjValue(c))
	return c
}

// restArgs returns args[i:] or nil when fewer arguments were passed.
func restArgs(args []interp.Value, i int) []interp.Value {
	if i >= len(args) {
		return nil
	}
	return args[i:]
}

// arg returns args[i] or undefined.
func arg(args []interp.Value, i int) interp.Value {
	if i < len(args) {
		return args[i]
	}
	return interp.Undefined()
}

// requireObjectCoercible throws TypeError for null/undefined receivers.
func requireObjectCoercible(in *interp.Interp, v interp.Value, method string) error {
	if v.IsNullish() {
		return in.TypeErrorf("%s called on null or undefined", method)
	}
	return nil
}
