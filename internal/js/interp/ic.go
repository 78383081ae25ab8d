package interp

// Polymorphic inline caches for the compiled evaluator's member-access
// thunks. Each non-computed member get/set (and method-call property load)
// compiled by internal/js/compile owns one icSite, indexed into the
// interpreter's per-execution ics slice; the site remembers up to
// icMaxEntries (receiver shape → slot) resolutions and goes megamorphic
// beyond that. Correctness rests on three guards:
//
//   - receiver shape identity: a hit requires the receiver's shape pointer
//     to equal the cached one, so any layout change (new key, delete,
//     dictionary conversion) misses by construction;
//   - prototype-chain linkage: entries that resolved through the chain
//     record the chain object pointers, so Object.setPrototypeOf-style
//     surgery (including the engine-defect hooks' `.Proto` writes) breaks
//     the cached path immediately;
//   - validity epochs: every chain object's epoch (bumped on key addition,
//     deletion, redefinition and mode change — see Object.epoch) is
//     recorded at fill time, so a later shadowing write or accessor
//     install on a prototype invalidates entries that resolved past it.
//
// Caches only ever hold plain data-property resolutions: shape-mode
// objects cannot carry accessors, dictionary-mode holders are never
// cached, and virtual slots (array/string/typed length and indices) are
// excluded by key. Everything else — and every miss — falls through to
// the byte-identical generic paths, so a cache can only change speed,
// never behaviour. With DisableShapes the ics slice stays empty and the
// entry points collapse to the generic calls.

// icMaxEntries bounds a site's polymorphism before it goes megamorphic.
const icMaxEntries = 4

// icEntry is one cached resolution at a site.
type icEntry struct {
	// shape is the receiver's shape; nil marks a primitive-receiver entry
	// matched by prim instead (string/number/boolean method loads).
	shape *Shape
	prim  Kind
	// holder owns the property; nil means it is an own property of the
	// receiver. h1 (and h2 for depth-2 resolutions) are the prototype
	// links the lookup walked: recv.Proto == h1, h1.Proto == h2, with the
	// holder being the last link. e1/e2 are their epochs at fill time.
	holder *Object
	h1, h2 *Object
	e1, e2 uint32
	// hshape pins the holder's shape (holder slot layout) at fill time.
	hshape *Shape
	slot   int32
	// next, on set sites, is the transition target: the write adds key and
	// moves the receiver from shape to next. nil means overwrite in place.
	next *Shape
}

// icSite is one member-access site: a monomorphic entry inline plus
// overflow entries allocated on demand.
type icSite struct {
	e0   icEntry
	more []icEntry
	n    uint8
	mega bool
}

// EnsureICSites grows the per-execution site table to n entries; the
// compile pass sizes n at compile time and Compiled.Run calls this before
// the first thunk executes. DisableShapes leaves the table empty, which
// turns every IC entry point into its generic fallback. Entries past the
// table's length are zero (a reset clears what a run used), so growth
// within the capacity of a reset realm's kept table only reslices.
func (in *Interp) EnsureICSites(n int) {
	if in.DisableShapes || n <= len(in.ics) {
		return
	}
	if n <= cap(in.ics) {
		in.ics = in.ics[:n]
		return
	}
	ics := make([]icSite, n)
	copy(ics, in.ics)
	in.ics = ics
}

// ICStats reports the hit / miss / megamorphic counters accumulated by
// this execution's inline caches.
func (in *Interp) ICStats() (hit, miss, mega uint64) {
	return in.icHit, in.icMiss, in.icMega
}

// icObjectHit probes the site's entries for an object receiver and
// returns the cached value on a validated hit.
func (s *icSite) icObjectHit(o *Object) (Value, bool) {
	sh := o.shape
	if e := &s.e0; e.shape == sh && sh != nil {
		if v, ok := e.read(o); ok {
			return v, true
		}
	}
	for i := range s.more {
		if e := &s.more[i]; e.shape == sh && sh != nil {
			if v, ok := e.read(o); ok {
				return v, true
			}
		}
	}
	return Value{}, false
}

// icPrimHit probes the site's entries for a primitive receiver.
func (s *icSite) icPrimHit(k Kind) (Value, bool) {
	if e := &s.e0; e.shape == nil && e.prim == k && e.holder != nil {
		if v, ok := e.read(nil); ok {
			return v, true
		}
	}
	for i := range s.more {
		if e := &s.more[i]; e.shape == nil && e.prim == k && e.holder != nil {
			if v, ok := e.read(nil); ok {
				return v, true
			}
		}
	}
	return Value{}, false
}

// read validates the entry's chain guards against the current heap state
// and returns the cached slot's value. o is the receiver (nil for
// primitive receivers, whose chains start at h1 directly).
func (e *icEntry) read(o *Object) (Value, bool) {
	holder := o
	if e.holder != nil {
		if o != nil && o.Proto != e.h1 {
			return Value{}, false
		}
		if e.h1 == nil || e.h1.epoch != e.e1 {
			return Value{}, false
		}
		holder = e.h1
		if e.holder == e.h2 {
			if e.h1.Proto != e.h2 || e.h2.epoch != e.e2 {
				return Value{}, false
			}
			holder = e.h2
		}
		if holder.shape != e.hshape {
			return Value{}, false
		}
	}
	v := holder.slot(e.slot)
	if v.kind == kindPending {
		return Value{}, false
	}
	return v, true
}

// add installs a new entry at the site, flipping to megamorphic past the
// polymorphism bound.
func (s *icSite) add(e icEntry) {
	if s.n == 0 {
		s.e0 = e
		s.n = 1
		return
	}
	if int(s.n) >= icMaxEntries {
		s.mega = true
		return
	}
	s.more = append(s.more, e)
	s.n++
}

// GetPropICKey is GetPropKey with an inline cache at the given compiled
// site. Hits charge the same single step the generic path charges and
// return the cached data slot; everything else falls through to
// GetPropKey and refills the site from the resolved state.
func (in *Interp) GetPropICKey(site int, v Value, key string) (Value, error) {
	if site < 0 || site >= len(in.ics) {
		return in.GetPropKey(v, key)
	}
	s := &in.ics[site]
	if s.mega {
		in.icMega++
		return in.GetPropKey(v, key)
	}
	if v.kind == KindObject {
		if val, ok := s.icObjectHit((*Object)(v.ref)); ok {
			in.icHit++
			if err := in.charge(1); err != nil {
				return Undefined(), err
			}
			return val, nil
		}
	} else if v.kind == KindString || v.kind == KindNumber || v.kind == KindBool {
		if val, ok := s.icPrimHit(v.kind); ok {
			in.icHit++
			if err := in.charge(1); err != nil {
				return Undefined(), err
			}
			return val, nil
		}
	}
	in.icMiss++
	res, err := in.GetPropKey(v, key)
	if err == nil {
		in.icFillGet(s, v, key)
	}
	return res, err
}

// icFillGet records where the just-completed generic lookup found key, if
// the resolution is of a cacheable kind: data property, shaped holder,
// chain depth at most two, no virtual-slot candidates anywhere on the
// walked prefix.
func (in *Interp) icFillGet(s *icSite, v Value, key string) {
	var e icEntry
	var start *Object
	switch v.kind {
	case KindObject:
		o := (*Object)(v.ref)
		if o.shape == nil || !o.shapeFastKey(key) {
			return
		}
		e.shape = o.shape
		if sp := o.shape.find(key); sp != nil {
			if o.slot(sp.slot).kind == kindPending {
				return
			}
			e.slot = sp.slot
			s.add(e)
			return
		}
		start = o.Proto
	case KindString:
		if len(key) == 0 || (key[0] >= '0' && key[0] <= '9') || key == "length" {
			return
		}
		e.prim = KindString
		start = in.Protos["String"]
	case KindNumber:
		e.prim = KindNumber
		start = in.Protos["Number"]
	case KindBool:
		e.prim = KindBool
		start = in.Protos["Boolean"]
	default:
		return
	}
	cur := start
	for depth := 0; depth < 2 && cur != nil; depth++ {
		if !cur.shapeFastKey(key) {
			return
		}
		if depth == 0 {
			e.h1, e.e1 = cur, cur.epoch
		} else {
			e.h2, e.e2 = cur, cur.epoch
		}
		if cur.shape != nil {
			if sp := cur.shape.find(key); sp != nil {
				if cur.slot(sp.slot).kind == kindPending {
					return
				}
				e.holder, e.hshape, e.slot = cur, cur.shape, sp.slot
				s.add(e)
				return
			}
		} else if _, ok := cur.dictGet(key); ok {
			return // dictionary holder: uncacheable
		}
		cur = cur.Proto
	}
}

// SetPropICKey is SetProp with an inline cache at the given compiled
// site. Cacheable writes are plain data-property stores on shape-mode
// receivers with no defect hook installed; hits perform exactly the slot
// write (or shape transition) the generic path would, with the same
// single-step charge.
func (in *Interp) SetPropICKey(site int, target Value, key string, v Value, strict bool) error {
	if site < 0 || site >= len(in.ics) || in.Hook != nil {
		return in.SetProp(target, key, v, strict)
	}
	s := &in.ics[site]
	if s.mega {
		in.icMega++
		return in.SetProp(target, key, v, strict)
	}
	if target.kind == KindObject {
		o := (*Object)(target.ref)
		sh := o.shape
		if sh != nil {
			if e := s.setHit(sh); e != nil {
				if e.next == nil {
					in.icHit++
					if err := in.charge(1); err != nil {
						return err
					}
					// Cached slots are DefaultAttr, so never in the
					// pending tail: the index is allocated.
					o.slots[e.slot] = v
					return nil
				}
				if o.Extensible && e.chainValid(o) {
					in.icHit++
					if err := in.charge(1); err != nil {
						return err
					}
					o.appendSlot(v)
					o.shape = e.next
					o.epoch++
					o.noteKey(key)
					return nil
				}
			}
		}
	}
	in.icMiss++
	var pre *Shape
	var o *Object
	if target.kind == KindObject {
		o = (*Object)(target.ref)
		pre = o.shape
	}
	err := in.SetProp(target, key, v, strict)
	if err == nil && o != nil && pre != nil {
		in.icFillSet(s, o, pre, key)
	}
	return err
}

// setHit returns the site entry matching the receiver shape, if any.
func (s *icSite) setHit(sh *Shape) *icEntry {
	if e := &s.e0; e.shape == sh {
		return e
	}
	for i := range s.more {
		if e := &s.more[i]; e.shape == sh {
			return e
		}
	}
	return nil
}

// chainValid revalidates a transition entry's prototype-chain guards: the
// links are unchanged (pointer identity) and no link's layout has moved
// (epochs), so the chain still provably holds no accessor or conflicting
// virtual slot for the key.
func (e *icEntry) chainValid(o *Object) bool {
	if o.Proto != e.h1 {
		return false
	}
	if e.h1 == nil {
		return true
	}
	if e.h1.epoch != e.e1 || e.h1.Proto != e.h2 {
		return false
	}
	if e.h2 == nil {
		return true
	}
	return e.h2.epoch == e.e2 && e.h2.Proto == nil
}

// icFillSet records the just-completed generic write if it was a plain
// own-slot overwrite or a one-step shape transition on a chain short and
// clean enough to guard.
func (in *Interp) icFillSet(s *icSite, o *Object, pre *Shape, key string) {
	post := o.shape
	if post == nil || !o.shapeFastKey(key) {
		return
	}
	if preSp := pre.find(key); preSp != nil {
		// Overwrite: cache only the layout assignment preserves (SetProp's
		// terminal SetSlot writes DefaultAttr, so anything else would have
		// left shape mode).
		if post == pre && preSp.attr == DefaultAttr && o.slot(preSp.slot).kind != kindPending {
			s.add(icEntry{shape: pre, slot: preSp.slot})
		}
		return
	}
	if post.parent != pre || post.key != key || post.attr != DefaultAttr {
		return
	}
	e := icEntry{shape: pre, next: post, slot: post.slot}
	// Guard the prototype chain: at most two links, each free of virtual
	// slots for the key and free of a dictionary accessor, terminated by
	// nil. Epochs catch later accessor installs or shadowing changes.
	cur := o.Proto
	for depth := 0; cur != nil; depth++ {
		if depth >= 2 || !cur.shapeFastKey(key) {
			return
		}
		if cur.shape == nil {
			if p, ok := cur.dictGet(key); ok && p.Accessor {
				return
			}
		}
		if depth == 0 {
			e.h1, e.e1 = cur, cur.epoch
		} else {
			e.h2, e.e2 = cur, cur.epoch
		}
		cur = cur.Proto
	}
	s.add(e)
}
