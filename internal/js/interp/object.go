package interp

import (
	"sort"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"comfort/internal/js/ast"
	"comfort/internal/js/regex"
)

// runeLen is the rune count of s — string "length" in this evaluator's
// rune-indexed model — without materialising a rune slice.
func runeLen(s string) int { return utf8.RuneCountInString(s) }

// stringMetrics measures a string's rune count and ASCII-ness through the
// interpreter's direct-mapped metrics cache. Scan loops read `s.length`
// (and index the same string) once per iteration; without a cache each
// read re-counts the whole string, turning a linear scan quadratic — and
// loops that alternate between two strings (`a[i] == b[i]` compares)
// ping-pong a single-entry cache back to quadratic, so the cache holds
// four entries indexed by the data pointer. The key is the (data pointer,
// byte length) pair, which identifies the exact backing bytes — Go
// strings are immutable, so equal coordinates imply equal content.
func (in *Interp) stringMetrics(s string) (runes int, ascii bool) {
	if len(s) == 0 {
		return 0, true
	}
	d := unsafe.StringData(s)
	e := &in.strCache[(uintptr(unsafe.Pointer(d))>>4)&3]
	if d == e.data && len(s) == e.len {
		return e.runes, e.ascii
	}
	runes = utf8.RuneCountInString(s)
	ascii = runes == len(s)
	*e = strMetrics{data: d, len: len(s), runes: runes, ascii: ascii}
	return runes, ascii
}

// strMetrics is one entry of the string-metrics cache.
type strMetrics struct {
	data  *byte
	len   int
	runes int
	ascii bool
}

// RuneLen is the rune count of s (string "length" in this evaluator's
// rune-indexed model), served from the metrics cache.
func (in *Interp) RuneLen(s string) int {
	n, _ := in.stringMetrics(s)
	return n
}

// RuneAt returns the rune at (integral, non-negative) position pos. pos
// arrives as a ToInteger float; any value at or beyond the byte length is
// out of range for the rune count too (runes ≤ bytes), which keeps the
// int conversion safe for absurd positions. ASCII strings — the common
// case for generated programs — index in constant time via the metrics
// cache.
func (in *Interp) RuneAt(s string, pos float64) (rune, bool) {
	if pos < 0 || pos >= float64(len(s)) {
		return 0, false
	}
	want := int(pos)
	if _, ascii := in.stringMetrics(s); ascii {
		return rune(s[want]), true
	}
	n := 0
	for _, r := range s {
		if n == want {
			return r, true
		}
		n++
	}
	return 0, false
}

// runeAt returns the idx-th rune of s as a string, slicing the original
// backing store — no rune-slice materialisation, no allocation. ok is
// false when idx is out of range.
func runeAt(s string, idx int) (string, bool) {
	n := 0
	for i, r := range s {
		if n == idx {
			return s[i : i+utf8.RuneLen(r)], true
		}
		n++
	}
	return "", false
}

// PropAttr holds property descriptor attribute bits.
type PropAttr uint8

// Descriptor attributes.
const (
	Writable PropAttr = 1 << iota
	Enumerable
	Configurable
)

// DefaultAttr is the attribute set of properties created by assignment.
const DefaultAttr = Writable | Enumerable | Configurable

// Property is a property slot: either a data property (Value) or an
// accessor property (Get/Set).
type Property struct {
	Value    Value
	Get, Set *Object
	Accessor bool
	Attr     PropAttr
}

// FuncDef binds a function literal to its defining environment (a closure).
type FuncDef struct {
	Lit *ast.FuncLit
	Env *Env
	// Compiled is the thunk-compiled body when the program went through
	// internal/js/compile; Call dispatches to it instead of tree-walking
	// Lit.
	Compiled CompiledBody
}

// NativeFunc is the Go implementation of a builtin.
type NativeFunc func(in *Interp, this Value, args []Value) (Value, error)

// ElemKind enumerates typed-array element types.
type ElemKind uint8

// Typed-array element kinds.
const (
	ElemNone ElemKind = iota
	ElemInt8
	ElemUint8
	ElemUint8Clamped
	ElemInt16
	ElemUint16
	ElemInt32
	ElemUint32
	ElemFloat32
	ElemFloat64
)

// Size returns the element width in bytes.
func (k ElemKind) Size() int {
	switch k {
	case ElemInt8, ElemUint8, ElemUint8Clamped:
		return 1
	case ElemInt16, ElemUint16:
		return 2
	case ElemInt32, ElemUint32, ElemFloat32:
		return 4
	case ElemFloat64:
		return 8
	}
	return 0
}

// ArrayBuffer is a raw byte buffer shared by typed arrays and DataViews.
type ArrayBuffer struct {
	Data []byte
}

// Object is an ECMAScript object: ordered named properties, a prototype
// link, and optional internal slots for the specialised classes.
//
// The layout is packed for the common case, because every execution
// allocates objects by the dozen (a realm clone alone copies fifteen):
// state only rare classes use — bound functions, arrow functions' lexical
// this, RegExp and ArrayBuffer/typed-array/DataView slots — lives behind
// the ext pointer, and dictionary-mode storage behind dict. Both stay nil
// on plain shape-mode objects. TestObjectLayout pins the size.
type Object struct {
	Class string // "Object", "Array", "Function", "Error", "RegExp", ...
	Proto *Object

	// shape/slots are the hidden-class layout: when shape is non-nil the
	// object is in shape mode — named data properties live in the dense
	// slots array at the indices the shape chain fixes, and dict is nil.
	// Deletes, accessors and attribute redefinition drop the object
	// to dictionary mode (toDictionary); slots holding kindPending ride
	// the lazy-property machinery below. slots may stop short of the
	// shape's depth: every index past its end is a pending lazy entry
	// (see slot and fillSlots), so registering a method table or a lazy
	// thunk allocates no slot.
	shape *Shape
	slots []Value

	// Array internal slots: dense elements plus an explicit length to
	// support sparse writes (which land in named properties).
	arrayLen uint32
	elems    []Value

	// dict is the dictionary-mode property storage, allocated when an
	// object without a shape first records a key.
	dict *dictProps

	// Function internal slots.
	Fn         *FuncDef
	Native     NativeFunc
	Construct  NativeFunc // nil means Native is used for construction too
	NativeName string     // canonical spec key, e.g. "String.prototype.substr"

	// Primitive wrapper slot (String/Number/Boolean objects) and the Date
	// time value.
	Prim Value

	// ext holds the internal slots of the rarer exotic classes (see
	// objExt); NewExoticObject allocates it with the object.
	ext *objExt

	// lazyTab is a frozen, realm-independent native-method table shared by
	// every realm (see NativeTable); tabPending is the bitmask of entries
	// not yet materialised on this object. Attaching a table costs one
	// pointer and one key-slice append per realm, where per-method lazy
	// registration cost a closure and a map insert each.
	lazyTab    *NativeTable
	tabPending uint64
	// realm is the interpreter this object's lazy entries materialise
	// into: the lazy thunks receive it (they are shared by every realm
	// cloned from one template, so they cannot capture it), and table
	// entries take its Function.prototype. Set whenever a table or thunk
	// is registered; a template clone re-points it at the new realm.
	realm *Interp

	// lazy holds own-property names and the thunks that materialise them
	// on first access — deferred stdlib sections and prototype methods —
	// as an append-only pair list in registration order. Registration is
	// one slice append (the global object registers a few dozen lazy names
	// on every realm build, so a map insert per name was a measurable
	// construction cost); lookup is a short linear scan, paid only for the
	// properties a program actually touches. A resolved entry keeps its
	// position with a nil thunk so enumeration order matches the eager
	// install order no matter which properties resolve first; lazyLeft
	// counts the entries still pending.
	lazy     []lazyProp
	lazyLeft uint16
	// lazyInstalling counts nested lazy-thunk executions; while non-zero,
	// SetSlot must not re-append a reserved key.
	lazyInstalling uint16

	// Invocations is the function call counter that drives
	// Optimizer-component defects. Fuel bounds a run to far fewer than
	// 2^31 calls.
	Invocations int32

	// ElemKind is the typed-array element type (ElemUint8 for a DataView,
	// ElemNone otherwise). It stays inline, next to the flags, as the
	// cheap discriminator the property paths test before reaching ext.
	ElemKind   ElemKind
	Extensible bool
	HasPrim    bool

	// frozen mirrors the presence of the hidden __frozen__ own property
	// (maintained in SetSlot/DefineOwn/DeleteOwn), so the array element
	// fast paths check a bit instead of probing the property map per
	// write. strictMarked mirrors __strict__ the same way for Call's
	// per-invocation strictness derivation. indexProps records that an
	// array-index-keyed own property was (ever) added — objects without
	// one can be skipped wholesale in prototype-chain walks for index
	// keys, which is every growing array write.
	frozen       bool
	strictMarked bool
	indexProps   bool
}

// dictProps is an object's dictionary-mode storage: a property map and
// the insertion order of its string keys. Only objects that leave shape
// mode (or live in a DisableShapes realm) pay for it.
type dictProps struct {
	props map[string]*Property
	keys  []string
}

// dictGet looks key up in the dictionary storage.
func (o *Object) dictGet(key string) (*Property, bool) {
	if o.dict == nil {
		return nil, false
	}
	p, ok := o.dict.props[key]
	return p, ok
}

// dictKeys is the dictionary insertion order (nil in shape mode).
func (o *Object) dictKeys() []string {
	if o.dict == nil {
		return nil
	}
	return o.dict.keys
}

// dictionary returns the dictionary storage, allocating it on first use.
// The map is allocated by the first property write (set).
func (o *Object) dictionary() *dictProps {
	if o.dict == nil {
		o.dict = &dictProps{}
	}
	return o.dict
}

// set stores p under key.
func (d *dictProps) set(key string, p *Property) {
	if d.props == nil {
		d.props = map[string]*Property{}
	}
	d.props[key] = p
}

// objExt holds the internal slots of bound functions, arrow functions,
// RegExp objects, ArrayBuffers, typed arrays and DataViews: state a
// plain object never carries, moved off Object to keep every other
// object small.
type objExt struct {
	// Bound function: target, this and leading arguments. An arrow
	// function keeps its lexical this in boundThis with a nil target.
	boundTarget *Object
	boundThis   Value
	boundArgs   []Value

	regex *regex.Regexp

	// ArrayBuffer storage, and a typed array's or DataView's view of it:
	// byte offset and length (element count for typed arrays, byte
	// length for a DataView).
	buf     *ArrayBuffer
	byteOff int
	viewLen int
}

// exoticObject is an Object allocated together with its ext slots.
type exoticObject struct {
	obj Object
	ext objExt
}

// NewExoticObject allocates a plain object (shaped like in.NewObject's)
// together with the internal slots of the exotic classes, in one
// allocation. Use it for objects that receive SetBound, SetRegex or
// SetBuffer; those setters allocate the slots separately on any other
// object.
func (in *Interp) NewExoticObject(proto *Object) *Object {
	o := newExoticObject(proto)
	if !in.DisableShapes {
		o.shape = shapeRoot
	}
	return o
}

// newExoticObject is NewObject with the ext slots allocated alongside.
func newExoticObject(proto *Object) *Object {
	x := &exoticObject{obj: Object{Class: "Object", Proto: proto, Extensible: true}}
	x.obj.ext = &x.ext
	return &x.obj
}

// exotic returns the object's ext slots, allocating them if missing.
func (o *Object) exotic() *objExt {
	if o.ext == nil {
		o.ext = &objExt{}
	}
	return o.ext
}

// BoundTarget returns a bound function's target, or nil.
func (o *Object) BoundTarget() *Object {
	if o.ext == nil {
		return nil
	}
	return o.ext.boundTarget
}

// BoundThis returns a bound function's this value (an arrow function's
// lexical this), or undefined.
func (o *Object) BoundThis() Value {
	if o.ext == nil {
		return Undefined()
	}
	return o.ext.boundThis
}

// SetBound makes the object a bound function of target.
func (o *Object) SetBound(target *Object, this Value, args []Value) {
	x := o.exotic()
	x.boundTarget, x.boundThis, x.boundArgs = target, this, args
}

// Regex returns a RegExp object's compiled pattern, or nil.
func (o *Object) Regex() *regex.Regexp {
	if o.ext == nil {
		return nil
	}
	return o.ext.regex
}

// SetRegex sets a RegExp object's compiled pattern.
func (o *Object) SetRegex(re *regex.Regexp) { o.exotic().regex = re }

// Buf returns the ArrayBuffer storage of an ArrayBuffer, typed array or
// DataView, or nil.
func (o *Object) Buf() *ArrayBuffer {
	if o.ext == nil {
		return nil
	}
	return o.ext.buf
}

// ByteOff returns a typed array's or DataView's byte offset into Buf.
func (o *Object) ByteOff() int {
	if o.ext == nil {
		return 0
	}
	return o.ext.byteOff
}

// ArrayLen returns a typed array's element count or a DataView's byte
// length.
func (o *Object) ArrayLen() int {
	if o.ext == nil {
		return 0
	}
	return o.ext.viewLen
}

// SetBuffer attaches buffer storage: off and n are the view's byte offset
// and length (element count for typed arrays, byte length for a
// DataView; 0 for an ArrayBuffer itself).
func (o *Object) SetBuffer(buf *ArrayBuffer, off, n int) {
	x := o.exotic()
	x.buf, x.byteOff, x.viewLen = buf, off, n
}

// NewObject allocates a plain object with the given prototype. The property
// map is created lazily on first write — most objects a program allocates
// (and every builtin function object) carry few or no own named properties,
// so the empty-map allocation used to dominate runtime-construction cost.
func NewObject(proto *Object) *Object {
	return &Object{Class: "Object", Proto: proto, Extensible: true}
}

// NativeTable is a frozen description of an object's native methods:
// spec key, arity and implementation per name, in registration order.
// Tables are built once per process (the implementations are pure
// functions of the interpreter instance passed at call time, never of the
// realm that registered them) and attached to every realm's corresponding
// object; entries materialise into function objects on first access.
type NativeTable struct {
	Names   []string
	ByName  map[string]uint8
	Entries []NativeTableEntry

	// shapeCache memoises the shape suffix the table induces: attaching to
	// an object whose shape matches `from` jumps straight to `to`. One
	// entry suffices — a given table attaches to objects of one
	// construction history (the realm's corresponding prototype).
	shapeCache atomic.Pointer[tableShape]
}

// tableShape is a cached (attach-point shape → post-attach shape) pair.
type tableShape struct {
	from, to *Shape
}

// NativeTableEntry is one method of a NativeTable.
type NativeTableEntry struct {
	SpecKey string
	Short   string
	Arity   int
	Fn      NativeFunc
}

// MaxNativeTableEntries bounds a table (entries pend in one uint64 mask).
const MaxNativeTableEntries = 64

// AttachLazyTable wires a frozen method table onto the object, reserving
// every entry's enumeration position. in is the object's realm, whose
// Function.prototype becomes the prototype of materialised method objects.
// Shape-mode objects take the table as a prebuilt shape suffix whose
// slots stay in the implicit pending tail (see slot), and the resulting
// leaf shape is cached on the table so realms after the first pay one
// pointer compare instead of per-name transitions.
func (o *Object) AttachLazyTable(t *NativeTable, in *Interp) {
	o.lazyTab = t
	o.realm = in
	if n := len(t.Entries); n >= 64 {
		o.tabPending = ^uint64(0)
	} else {
		o.tabPending = 1<<uint(n) - 1
	}
	if o.shape != nil {
		if c := t.shapeCache.Load(); c != nil && c.from == o.shape {
			o.shape = c.to
		} else {
			from := o.shape
			sh := from
			for _, name := range t.Names {
				sh = sh.transition(name, Writable|Configurable)
			}
			o.shape = sh
			t.shapeCache.Store(&tableShape{from: from, to: sh})
		}
		return
	}
	d := o.dictionary()
	d.keys = append(d.keys, t.Names...)
}

// LazyTable returns the attached method table, if any.
func (o *Object) LazyTable() *NativeTable { return o.lazyTab }

// lazyProp is one deferred own property: the name and the thunk that
// materialises it (nil once resolved). The thunk receives the object's
// realm instead of capturing one, so a realm template's thunks serve
// every realm cloned from it.
type lazyProp struct {
	key     string
	install func(*Interp)
}

// hasLazy reports whether any own property is still unmaterialised.
func (o *Object) hasLazy() bool { return o.lazyLeft > 0 || o.tabPending != 0 }

// SetLazy registers a thunk that installs the named own property (and
// possibly siblings sharing the thunk) when it is first needed. Used by
// the builtins package to defer expensive stdlib sections and prototype
// methods that most programs never touch. The thunk must install the key
// it was registered under, into the realm it receives (in, the object's
// realm); the key's enumeration position is reserved at registration so
// access order cannot perturb property order.
func (o *Object) SetLazy(in *Interp, key string, install func(*Interp)) {
	o.realm = in
	for i := range o.lazy {
		if o.lazy[i].key == key {
			// Re-registration: the key already holds its reserved position.
			if o.lazy[i].install == nil {
				o.lazyLeft++
			}
			o.lazy[i].install = install
			return
		}
	}
	o.lazy = append(o.lazy, lazyProp{key, install})
	o.lazyLeft++
	if o.shape != nil {
		o.shape = o.shape.transition(key, Writable|Configurable)
		return
	}
	d := o.dictionary()
	d.keys = append(d.keys, key)
}

// resolveLazy materialises the named lazy property if one is pending. It
// reports whether a thunk ran (callers then re-check props).
func (o *Object) resolveLazy(key string) bool {
	if o.lazyLeft > 0 {
		for i := range o.lazy {
			if o.lazy[i].key == key {
				th := o.lazy[i].install
				if th == nil {
					break // already materialised
				}
				// Clear before running so a nested probe cannot re-enter.
				o.lazy[i].install = nil
				o.lazyLeft--
				o.lazyInstalling++
				th(o.realm)
				o.lazyInstalling--
				return true
			}
		}
	}
	if o.tabPending != 0 {
		if i, ok := o.lazyTab.ByName[key]; ok && o.tabPending&(1<<i) != 0 {
			o.tabPending &^= 1 << i
			e := &o.lazyTab.Entries[i]
			fo := NewNativeFunc(o.realm.Protos["Function"], e.SpecKey, e.Short, e.Arity, e.Fn)
			o.lazyInstalling++
			o.SetSlot(key, ObjValue(fo), Writable|Configurable)
			o.lazyInstalling--
			return true
		}
	}
	return false
}

// materializeLazy forces every pending lazy property, in registration
// order (enumeration must observe a deterministic key order).
func (o *Object) materializeLazy() {
	if o.lazyLeft > 0 {
		for i := range o.lazy {
			if o.lazy[i].install != nil {
				o.resolveLazy(o.lazy[i].key)
			}
		}
		o.lazy, o.lazyLeft = nil, 0
	}
	if o.tabPending != 0 {
		for _, k := range o.lazyTab.Names {
			o.resolveLazy(k)
		}
	}
}

// NewNativeFunc allocates a builtin function object with its length and
// name properties pre-installed. The two Property slots share one backing
// allocation and the map is exactly sized — this constructor runs hundreds
// of times per realm, so its allocation count sets the floor on runtime
// construction cost.
func NewNativeFunc(proto *Object, specKey, short string, arity int, f NativeFunc) *Object {
	if proto != nil && proto.shape != nil {
		// Shape-mode realm (the prototype is shaped exactly when the realm
		// runs with shapes on): the prebuilt length/name shape replaces the
		// map and both Property boxes with one slot array.
		return &Object{
			Class: "Function", Proto: proto, Extensible: true,
			Native: f, NativeName: specKey,
			shape: nativeFuncShape,
			slots: []Value{Number(float64(arity)), String(short)},
		}
	}
	box := &struct {
		d  dictProps
		ps [2]Property
	}{}
	box.ps[0] = Property{Value: Number(float64(arity)), Attr: Configurable}
	box.ps[1] = Property{Value: String(short), Attr: Configurable}
	box.d = dictProps{
		props: map[string]*Property{"length": &box.ps[0], "name": &box.ps[1]},
		keys:  []string{"length", "name"},
	}
	return &Object{
		Class: "Function", Proto: proto, Extensible: true,
		Native: f, NativeName: specKey, dict: &box.d,
	}
}

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool {
	return o != nil && (o.Fn != nil || o.Native != nil || o.BoundTarget() != nil)
}

// IsArray reports whether the object is an Array exotic object.
func (o *Object) IsArray() bool { return o != nil && o.Class == "Array" }

// arrayFrozen reports the hidden __frozen__ marker Object.freeze maintains
// on arrays and typed arrays, without boxing a descriptor.
func (o *Object) arrayFrozen() bool { return o.frozen }

// frozenKey is the hidden marker property Object.freeze installs;
// strictKey marks strict-mode function objects.
const (
	frozenKey = "__frozen__"
	strictKey = "__strict__"
)

// noteKey keeps the hidden-marker mirror bits in sync with own-property
// writes (both markers are 10 bytes, so one length test gates the
// comparisons).
func (o *Object) noteKey(key string) {
	if len(key) == len(frozenKey) {
		if key == frozenKey {
			o.frozen = true
		} else if key == strictKey {
			o.strictMarked = true
		}
	}
	if !o.indexProps && isIndexKey(key) {
		o.indexProps = true
	}
}

// arrayIndex parses a canonical array index from a property key; ok is
// false for non-index keys.
func arrayIndex(key string) (uint32, bool) {
	if key == "" || len(key) > 10 {
		return 0, false
	}
	if key == "0" {
		return 0, true
	}
	if key[0] < '1' || key[0] > '9' {
		return 0, false
	}
	n, err := strconv.ParseUint(key, 10, 32)
	if err != nil || n >= 4294967295 {
		return 0, false
	}
	return uint32(n), true
}

// getOwn returns the own property for key, consulting array storage and
// virtual slots (array length, string indices).
func (o *Object) getOwn(key string) (*Property, bool) {
	if o.IsArray() {
		if key == "length" {
			return &Property{Value: Number(float64(o.arrayLen)), Attr: Writable}, true
		}
		if idx, ok := arrayIndex(key); ok && int(idx) < len(o.elems) {
			return &Property{Value: o.elems[idx], Attr: DefaultAttr}, true
		}
	}
	if o.Class == "String" && o.HasPrim {
		if key == "length" {
			return &Property{Value: Number(float64(runeLen(o.Prim.Str())))}, true
		}
		if idx, ok := arrayIndex(key); ok {
			if r, ok := runeAt(o.Prim.Str(), int(idx)); ok {
				return &Property{Value: String(r), Attr: Enumerable}, true
			}
		}
	}
	if o.ElemKind != ElemNone && o.Class != "DataView" {
		if key == "length" {
			return &Property{Value: Number(float64(o.ArrayLen()))}, true
		}
		if idx, ok := arrayIndex(key); ok {
			if int(idx) < o.ArrayLen() {
				return &Property{Value: Number(o.typedGet(int(idx))), Attr: Writable | Enumerable}, true
			}
			return &Property{Value: Undefined()}, true
		}
	}
	if o.shape != nil {
		return o.shapeGetOwn(key)
	}
	p, ok := o.dictGet(key)
	if !ok && o.hasLazy() && o.resolveLazy(key) {
		p, ok = o.dictGet(key)
	}
	return p, ok
}

// HasOwn reports whether key is an own property.
func (o *Object) HasOwn(key string) bool {
	if o.shape != nil && o.shapeFastKey(key) {
		return o.shape.find(key) != nil
	}
	_, ok := o.getOwn(key)
	return ok
}

// GetOwnProperty exposes the own-property lookup for builtins
// (Object.getOwnPropertyDescriptor and friends). Builtins mutate the
// returned descriptor in place (Object.freeze and seal clear attribute
// bits through it), which shape mode's synthesized boxes would silently
// drop — so descriptor-level access leaves shape mode first.
func (o *Object) GetOwnProperty(key string) (*Property, bool) {
	o.toDictionary()
	return o.getOwn(key)
}

// SetSlot writes a raw property without descriptor checks (used during
// runtime setup).
func (o *Object) SetSlot(key string, v Value, attr PropAttr) {
	if o.shape != nil {
		if sp := o.shape.find(key); sp != nil {
			if sp.attr != attr {
				// Attribute change needs per-object descriptor storage.
				o.toDictionary()
				o.SetSlot(key, v, attr)
				return
			}
			if o.slot(sp.slot).kind == kindPending {
				// Run the lazy installer first (it may install siblings),
				// then overwrite — matching dictionary-mode order. The
				// installer clears its pending entry before writing, so
				// the nested SetSlot cannot recurse back here.
				o.resolveLazy(key)
				o.fillSlots()
			}
			o.slots[sp.slot] = v
			return
		}
		o.shapeAppend(key, v, attr)
		return
	}
	if o.hasLazy() {
		o.resolveLazy(key)
	}
	if p, ok := o.dictGet(key); ok {
		p.Value = v
		p.Attr = attr
		p.Accessor = false
		return
	}
	d := o.dictionary()
	d.set(key, &Property{Value: v, Attr: attr})
	o.noteKey(key)
	if o.lazyInstalling > 0 && o.keyReserved(key) {
		return // the key's position was reserved at lazy registration
	}
	d.keys = append(d.keys, key)
}

// keyReserved reports whether key is already present in the insertion
// order (only consulted during lazy installs, which run once per realm).
func (o *Object) keyReserved(key string) bool {
	for _, k := range o.dictKeys() {
		if k == key {
			return true
		}
	}
	return false
}

// DefineOwn installs a property descriptor, honouring configurability.
// It returns false when the existing property forbids the redefinition.
func (o *Object) DefineOwn(key string, p *Property) bool {
	if o.hasLazy() {
		o.resolveLazy(key)
	}
	if o.IsArray() {
		if idx, ok := arrayIndex(key); ok && !p.Accessor {
			o.arraySet(idx, p.Value)
			return true
		}
		if key == "length" && !p.Accessor {
			n := uint32(p.Value.Num())
			o.truncate(n)
			return true
		}
	}
	if o.shape != nil {
		if !p.Accessor && o.Extensible && o.shape.find(key) == nil {
			o.shapeAppend(key, p.Value, p.Attr)
			return true
		}
		// Redefinition, accessor install or non-extensible define: fall
		// back to descriptor storage.
		o.toDictionary()
	}
	existing, ok := o.dictGet(key)
	if ok && existing.Attr&Configurable == 0 {
		// Permit only value updates on writable, non-configurable data props.
		if !existing.Accessor && !p.Accessor && existing.Attr&Writable != 0 {
			existing.Value = p.Value
			return true
		}
		if existing.Accessor == p.Accessor && existing.Attr == p.Attr &&
			!p.Accessor && SameValueStrict(existing.Value, p.Value) {
			return true
		}
		return false
	}
	if !ok && !o.Extensible {
		return false
	}
	d := o.dictionary()
	if !ok && !(o.lazyInstalling > 0 && o.keyReserved(key)) {
		d.keys = append(d.keys, key)
	}
	d.set(key, p)
	o.noteKey(key)
	return true
}

// DeleteOwn removes an own property; it returns false for non-configurable
// properties.
func (o *Object) DeleteOwn(key string) bool {
	if o.hasLazy() {
		o.resolveLazy(key)
	}
	if o.IsArray() {
		if idx, ok := arrayIndex(key); ok {
			if int(idx) < len(o.elems) {
				o.elems[idx] = Undefined()
				return true
			}
		}
	}
	if o.shape != nil {
		if o.shape.find(key) == nil {
			return true
		}
		// Deleting a shape-tracked property: dense layout cannot model the
		// hole, so drop to dictionary mode and delete there.
		o.toDictionary()
	}
	p, ok := o.dictGet(key)
	if !ok {
		return true
	}
	if p.Attr&Configurable == 0 {
		return false
	}
	d := o.dict
	delete(d.props, key)
	if len(key) == len(frozenKey) {
		if key == frozenKey {
			o.frozen = false
		} else if key == strictKey {
			o.strictMarked = false
		}
	}
	for i, k := range d.keys {
		if k == key {
			d.keys = append(d.keys[:i], d.keys[i+1:]...)
			break
		}
	}
	return true
}

// OwnKeys returns own enumerable-or-not string keys in specification order:
// integer indices ascending first, then insertion order.
func (o *Object) OwnKeys() []string {
	o.materializeLazy()
	var ints []uint32
	var names []string
	if o.IsArray() {
		for i := range o.elems {
			ints = append(ints, uint32(i))
		}
	}
	if o.Class == "String" && o.HasPrim {
		for i, n := 0, runeLen(o.Prim.Str()); i < n; i++ {
			ints = append(ints, uint32(i))
		}
	}
	if o.ElemKind != ElemNone && o.Class != "DataView" {
		for i, n := 0, o.ArrayLen(); i < n; i++ {
			ints = append(ints, uint32(i))
		}
	}
	named := o.dictKeys()
	if o.shape != nil {
		named = o.shape.keyChain()
	}
	for _, k := range named {
		if idx, ok := arrayIndex(k); ok {
			ints = append(ints, idx)
		} else {
			names = append(names, k)
		}
	}
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	out := make([]string, 0, len(ints)+len(names))
	var last uint32
	first := true
	for _, i := range ints {
		if !first && i == last {
			continue
		}
		first = false
		last = i
		out = append(out, strconv.FormatUint(uint64(i), 10))
	}
	return append(out, names...)
}

// EnumerableKeys returns own enumerable keys in OwnKeys order.
func (o *Object) EnumerableKeys() []string {
	var out []string
	for _, k := range o.OwnKeys() {
		p, ok := o.getOwn(k)
		if !ok {
			continue
		}
		if p.Attr&Enumerable != 0 || o.IsArray() || (o.ElemKind != ElemNone && o.Class != "DataView") ||
			(o.Class == "String" && o.HasPrim && isIndexKey(k)) {
			if o.shape != nil {
				if sp := o.shape.find(k); sp != nil && sp.attr&Enumerable == 0 {
					continue
				}
			} else if p2, inMap := o.dictGet(k); inMap {
				if p2.Attr&Enumerable == 0 {
					continue
				}
			}
			out = append(out, k)
		}
	}
	return out
}

func isIndexKey(k string) bool {
	_, ok := arrayIndex(k)
	return ok
}

// arraySet writes a dense or sparse array element and maintains length.
func (o *Object) arraySet(idx uint32, v Value) {
	const denseGap = 4096
	switch {
	case int(idx) < len(o.elems):
		o.elems[idx] = v
	case int(idx) == len(o.elems):
		o.elems = append(o.elems, v)
	case int(idx)-len(o.elems) < denseGap:
		for len(o.elems) < int(idx) {
			o.elems = append(o.elems, Undefined())
		}
		o.elems = append(o.elems, v)
	default:
		o.SetSlot(strconv.FormatUint(uint64(idx), 10), v, DefaultAttr)
	}
	if idx+1 > o.arrayLen {
		o.arrayLen = idx + 1
	}
}

// truncate implements assignment to array length.
func (o *Object) truncate(n uint32) {
	if int(n) < len(o.elems) {
		o.elems = o.elems[:n]
	}
	if n < o.arrayLen {
		for _, k := range append([]string(nil), o.dictKeys()...) {
			if idx, ok := arrayIndex(k); ok && idx >= n {
				o.DeleteOwn(k)
			}
		}
	}
	o.arrayLen = n
}

// ArrayElems exposes the dense element slice (builtins mutate it in place).
func (o *Object) ArrayElems() []Value { return o.elems }

// SetArrayElems replaces the dense elements and fixes up length.
func (o *Object) SetArrayElems(elems []Value) {
	o.elems = elems
	if uint32(len(elems)) > o.arrayLen || true {
		o.arrayLen = uint32(len(elems))
	}
}

// ArrayLength returns the array length.
func (o *Object) ArrayLength() uint32 { return o.arrayLen }

// SetArrayLength sets the length slot (used by builtins after sparse ops).
func (o *Object) SetArrayLength(n uint32) { o.arrayLen = n }

// AppendElem pushes a dense element.
func (o *Object) AppendElem(v Value) {
	o.elems = append(o.elems, v)
	if uint32(len(o.elems)) > o.arrayLen {
		o.arrayLen = uint32(len(o.elems))
	}
}

// typedGet reads element idx of a typed array as float64.
func (o *Object) typedGet(idx int) float64 {
	off := o.ext.byteOff + idx*o.ElemKind.Size()
	d := o.ext.buf.Data
	switch o.ElemKind {
	case ElemInt8:
		return float64(int8(d[off]))
	case ElemUint8, ElemUint8Clamped:
		return float64(d[off])
	case ElemInt16:
		return float64(int16(uint16(d[off]) | uint16(d[off+1])<<8))
	case ElemUint16:
		return float64(uint16(d[off]) | uint16(d[off+1])<<8)
	case ElemInt32:
		return float64(int32(le32(d[off:])))
	case ElemUint32:
		return float64(le32(d[off:]))
	case ElemFloat32:
		return float64(fromBits32(le32(d[off:])))
	case ElemFloat64:
		return fromBits64(le64(d[off:]))
	}
	return 0
}

// TypedGet exposes typed-array element reads to builtins.
func (o *Object) TypedGet(idx int) float64 { return o.typedGet(idx) }

// TypedSet writes element idx of a typed array from a float64 using the
// element kind's conversion.
func (o *Object) TypedSet(idx int, f float64) {
	off := o.ext.byteOff + idx*o.ElemKind.Size()
	d := o.ext.buf.Data
	switch o.ElemKind {
	case ElemInt8:
		d[off] = byte(int8(toInt64(f)))
	case ElemUint8:
		d[off] = byte(uint8(toInt64(f)))
	case ElemUint8Clamped:
		d[off] = clampUint8(f)
	case ElemInt16, ElemUint16:
		v := uint16(toInt64(f))
		d[off] = byte(v)
		d[off+1] = byte(v >> 8)
	case ElemInt32, ElemUint32:
		putLE32(d[off:], uint32(toInt64(f)))
	case ElemFloat32:
		putLE32(d[off:], bits32(float32(f)))
	case ElemFloat64:
		putLE64(d[off:], bits64(f))
	}
}
