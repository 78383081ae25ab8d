package builtins

import (
	"comfort/internal/js/interp"
)

func installObject(r *registry) {
	in := r.in
	objProto := in.Protos["Object"]

	objectCall := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if v.IsNullish() {
			return interp.ObjValue(in.NewObject(in.Protos["Object"])), nil
		}
		o, err := in.ToObject(v)
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.ObjValue(o), nil
	}
	ctor := r.ctor("Object", 1, objProto, objectCall, objectCall)

	r.method(ctor, "Object.keys", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		arr := in.NewArray(nil)
		for _, k := range o.EnumerableKeys() {
			arr.AppendElem(interp.String(k))
		}
		return interp.ObjValue(arr), nil
	})

	r.method(ctor, "Object.values", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		arr := in.NewArray(nil)
		for _, k := range o.EnumerableKeys() {
			v, err := in.GetPropKey(interp.ObjValue(o), k)
			if err != nil {
				return interp.Undefined(), err
			}
			arr.AppendElem(v)
		}
		return interp.ObjValue(arr), nil
	})

	r.method(ctor, "Object.entries", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		arr := in.NewArray(nil)
		for _, k := range o.EnumerableKeys() {
			v, err := in.GetPropKey(interp.ObjValue(o), k)
			if err != nil {
				return interp.Undefined(), err
			}
			pair := in.NewArray([]interp.Value{interp.String(k), v})
			arr.AppendElem(interp.ObjValue(pair))
		}
		return interp.ObjValue(arr), nil
	})

	r.method(ctor, "Object.assign", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		target, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		for _, src := range args[1:] {
			if src.IsNullish() {
				continue
			}
			so, err := in.ToObject(src)
			if err != nil {
				return interp.Undefined(), err
			}
			for _, k := range so.EnumerableKeys() {
				v, err := in.GetPropKey(src, k)
				if err != nil {
					return interp.Undefined(), err
				}
				if err := in.SetProp(interp.ObjValue(target), k, v, true); err != nil {
					return interp.Undefined(), err
				}
			}
		}
		return interp.ObjValue(target), nil
	})

	r.method(ctor, "Object.freeze", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if !v.IsObject() {
			return v, nil
		}
		v.Obj().SetIntegrityLevel(interp.Frozen)
		return v, nil
	})

	r.method(ctor, "Object.isFrozen", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if !v.IsObject() {
			return interp.Bool(true), nil
		}
		return interp.Bool(v.Obj().TestIntegrityLevel(interp.Frozen)), nil
	})

	r.method(ctor, "Object.seal", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if !v.IsObject() {
			return v, nil
		}
		v.Obj().SetIntegrityLevel(interp.Sealed)
		return v, nil
	})

	r.method(ctor, "Object.isSealed", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if !v.IsObject() {
			return interp.Bool(true), nil
		}
		return interp.Bool(v.Obj().TestIntegrityLevel(interp.Sealed)), nil
	})

	r.method(ctor, "Object.preventExtensions", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if v.IsObject() {
			v.Obj().Extensible = false
		}
		return v, nil
	})

	r.method(ctor, "Object.isExtensible", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		return interp.Bool(v.IsObject() && v.Obj().Extensible), nil
	})

	r.method(ctor, "Object.create", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		protoArg := arg(args, 0)
		var proto *interp.Object
		switch {
		case protoArg.IsNull():
			proto = nil
		case protoArg.IsObject():
			proto = protoArg.Obj()
		default:
			return interp.Undefined(), in.TypeErrorf("Object prototype may only be an Object or null")
		}
		o := in.NewObject(proto)
		if props := arg(args, 1); props.IsObject() {
			for _, k := range props.Obj().EnumerableKeys() {
				descV, err := in.GetPropKey(props, k)
				if err != nil {
					return interp.Undefined(), err
				}
				if err := defineFromDescriptor(in, o, k, descV); err != nil {
					return interp.Undefined(), err
				}
			}
		}
		return interp.ObjValue(o), nil
	})

	r.method(ctor, "Object.getPrototypeOf", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if o.Proto == nil {
			return interp.Null(), nil
		}
		return interp.ObjValue(o.Proto), nil
	})

	r.method(ctor, "Object.setPrototypeOf", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if err := requireObjectCoercible(in, v, "Object.setPrototypeOf"); err != nil {
			return interp.Undefined(), err
		}
		protoArg := arg(args, 1)
		if v.IsObject() {
			switch {
			case protoArg.IsNull():
				v.Obj().Proto = nil
			case protoArg.IsObject():
				v.Obj().Proto = protoArg.Obj()
			default:
				return interp.Undefined(), in.TypeErrorf("Object prototype may only be an Object or null")
			}
		}
		return v, nil
	})

	r.method(ctor, "Object.getOwnPropertyNames", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		arr := in.NewArray(nil)
		for _, k := range o.OwnKeys() {
			arr.AppendElem(interp.String(k))
		}
		if o.IsArray() || (o.Class == "String" && o.HasPrim) {
			arr.AppendElem(interp.String("length"))
		}
		return interp.ObjValue(arr), nil
	})

	r.method(ctor, "Object.defineProperty", 3, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		target := arg(args, 0)
		if !target.IsObject() {
			return interp.Undefined(), in.TypeErrorf("Object.defineProperty called on non-object")
		}
		key, err := in.ToPropertyKey(arg(args, 1))
		if err != nil {
			return interp.Undefined(), err
		}
		if err := defineFromDescriptor(in, target.Obj(), key, arg(args, 2)); err != nil {
			return interp.Undefined(), err
		}
		return target, nil
	})

	r.method(ctor, "Object.defineProperties", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		target := arg(args, 0)
		if !target.IsObject() {
			return interp.Undefined(), in.TypeErrorf("Object.defineProperties called on non-object")
		}
		props := arg(args, 1)
		if props.IsObject() {
			for _, k := range props.Obj().EnumerableKeys() {
				descV, err := in.GetPropKey(props, k)
				if err != nil {
					return interp.Undefined(), err
				}
				if err := defineFromDescriptor(in, target.Obj(), k, descV); err != nil {
					return interp.Undefined(), err
				}
			}
		}
		return target, nil
	})

	r.method(ctor, "Object.getOwnPropertyDescriptor", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		key, err := in.ToPropertyKey(arg(args, 1))
		if err != nil {
			return interp.Undefined(), err
		}
		p, ok := o.GetOwnProperty(key)
		if !ok {
			return interp.Undefined(), nil
		}
		desc := in.NewObject(in.Protos["Object"])
		if p.Accessor {
			desc.SetSlot("get", interp.ObjValue(p.Get), interp.DefaultAttr)
			desc.SetSlot("set", interp.ObjValue(p.Set), interp.DefaultAttr)
		} else {
			desc.SetSlot("value", p.Value, interp.DefaultAttr)
			desc.SetSlot("writable", interp.Bool(p.Attr&interp.Writable != 0), interp.DefaultAttr)
		}
		desc.SetSlot("enumerable", interp.Bool(p.Attr&interp.Enumerable != 0), interp.DefaultAttr)
		desc.SetSlot("configurable", interp.Bool(p.Attr&interp.Configurable != 0), interp.DefaultAttr)
		return interp.ObjValue(desc), nil
	})

	// Object.prototype methods.
	r.method(objProto, "Object.prototype.hasOwnProperty", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if err := requireObjectCoercible(in, this, "Object.prototype.hasOwnProperty"); err != nil {
			return interp.Undefined(), err
		}
		key, err := in.ToPropertyKey(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		o, err := in.ToObject(this)
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.Bool(o.HasOwn(key)), nil
	})

	r.method(objProto, "Object.prototype.isPrototypeOf", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := arg(args, 0)
		if !v.IsObject() || !this.IsObject() {
			return interp.Bool(false), nil
		}
		for cur := v.Obj().Proto; cur != nil; cur = cur.Proto {
			if cur == this.Obj() {
				return interp.Bool(true), nil
			}
		}
		return interp.Bool(false), nil
	})

	r.method(objProto, "Object.prototype.propertyIsEnumerable", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		key, err := in.ToPropertyKey(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		o, err := in.ToObject(this)
		if err != nil {
			return interp.Undefined(), err
		}
		p, ok := o.GetOwnProperty(key)
		return interp.Bool(ok && p.Attr&interp.Enumerable != 0), nil
	})

	r.method(objProto, "Object.prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		switch this.Kind() {
		case interp.KindUndefined:
			return interp.String("[object Undefined]"), nil
		case interp.KindNull:
			return interp.String("[object Null]"), nil
		}
		o, err := in.ToObject(this)
		if err != nil {
			return interp.Undefined(), err
		}
		tag := o.Class
		switch tag {
		case "Arguments", "Array", "Function", "Error", "Boolean", "Number",
			"String", "Date", "RegExp":
		default:
			tag = "Object"
		}
		return interp.String("[object " + tag + "]"), nil
	})

	r.method(objProto, "Object.prototype.toLocaleString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		s, err := in.ToString(this)
		return interp.String(s), err
	})

	r.method(objProto, "Object.prototype.valueOf", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := in.ToObject(this)
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.ObjValue(o), nil
	})
}

// defineFromDescriptor implements ToPropertyDescriptor + DefineOwnProperty,
// the machinery behind Object.defineProperty. This is the site of the V8
// Listing-1 defect (failing to throw on a non-configurable redefinition).
func defineFromDescriptor(in *interp.Interp, o *interp.Object, key string, descV interp.Value) error {
	if !descV.IsObject() {
		return in.TypeErrorf("Property description must be an object")
	}
	desc := descV.Obj()
	p := &interp.Property{}
	get := func(name string) (interp.Value, bool, error) {
		if !desc.HasOwn(name) {
			return interp.Undefined(), false, nil
		}
		v, err := in.GetPropKey(descV, name)
		return v, true, err
	}
	if v, ok, err := get("value"); err != nil {
		return err
	} else if ok {
		p.Value = v
	}
	if v, ok, err := get("get"); err != nil {
		return err
	} else if ok && v.IsObject() {
		p.Accessor = true
		p.Get = v.Obj()
	}
	if v, ok, err := get("set"); err != nil {
		return err
	} else if ok && v.IsObject() {
		p.Accessor = true
		p.Set = v.Obj()
	}
	if v, ok, err := get("writable"); err != nil {
		return err
	} else if ok && interp.ToBoolean(v) {
		p.Attr |= interp.Writable
	}
	if v, ok, err := get("enumerable"); err != nil {
		return err
	} else if ok && interp.ToBoolean(v) {
		p.Attr |= interp.Enumerable
	}
	if v, ok, err := get("configurable"); err != nil {
		return err
	} else if ok && interp.ToBoolean(v) {
		p.Attr |= interp.Configurable
	}
	// One-way writable→false transition: a non-configurable data property
	// may still be made non-writable (ECMA-262 ValidateAndApplyPropertyDescriptor
	// step 4c). Needed for the RegExp.prototype.compile lastIndex rule.
	if existing, ok := o.GetOwnProperty(key); ok && !existing.Accessor && !p.Accessor &&
		existing.Attr&interp.Configurable == 0 && existing.Attr&interp.Writable != 0 &&
		desc.HasOwn("writable") && p.Attr&interp.Writable == 0 &&
		!(o.IsArray() && key == "length") {
		if desc.HasOwn("value") {
			existing.Value = p.Value
		}
		existing.Attr &^= interp.Writable
		return nil
	}
	// Array length special case: defineProperty(arr, "length", {value}) must
	// respect the non-configurability of length.
	if o.IsArray() && key == "length" {
		n, err := in.ToNumber(p.Value)
		if err != nil {
			return err
		}
		if p.Attr&interp.Configurable != 0 {
			// length is non-configurable; attempting to make it configurable
			// must throw (the Listing-1 conformance rule).
			return in.TypeErrorf("Cannot redefine property: length")
		}
		o.SetArrayLength(uint32(n))
		elems := o.ArrayElems()
		if int(uint32(n)) < len(elems) {
			o.SetArrayElems(elems[:uint32(n)])
		}
		return nil
	}
	if !o.DefineOwn(key, p) {
		return in.TypeErrorf("Cannot redefine property: %s", key)
	}
	return nil
}
