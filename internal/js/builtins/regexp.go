package builtins

import (
	"comfort/internal/js/interp"
)

func installRegExp(r *registry) {
	in := r.in
	proto := in.NewObject(in.Protos["Object"])
	proto.Class = "Object" // RegExp.prototype is an ordinary object in ES6+

	construct := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		patV := arg(args, 0)
		flagsV := arg(args, 1)
		pattern, flags := "", ""
		if patV.IsObject() && patV.Obj().Class == "RegExp" {
			pattern = patV.Obj().Regex().Source
			flags = patV.Obj().Regex().Flags
		} else if !patV.IsUndefined() {
			var err error
			pattern, err = in.ToString(patV)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		if !flagsV.IsUndefined() {
			var err error
			flags, err = in.ToString(flagsV)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		return in.NewRegExp(pattern, flags)
	}
	r.ctor("RegExp", 2, proto, construct, construct)
	// NewRegExp allocates with Protos["RegExp"]; re-point it at our proto.
	in.Protos["RegExp"] = proto

	thisRegex := func(in *interp.Interp, this interp.Value, method string) (*interp.Object, error) {
		if this.IsObject() && this.Obj().Class == "RegExp" {
			return this.Obj(), nil
		}
		return nil, in.TypeErrorf("%s called on incompatible receiver", method)
	}

	r.method(proto, "RegExp.prototype.exec", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisRegex(in, this, "RegExp.prototype.exec")
		if err != nil {
			return interp.Undefined(), err
		}
		input, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		re := o.Regex()
		start := 0
		if re.Global || re.Sticky {
			liV, err := in.GetPropKey(this, "lastIndex")
			if err != nil {
				return interp.Undefined(), err
			}
			li, err := in.ToInteger(liV)
			if err != nil {
				return interp.Undefined(), err
			}
			start = int(li)
		}
		m, err := runRegex(in, re, input, start, "RegExp.prototype.exec")
		if err != nil {
			return interp.Undefined(), err
		}
		if m == nil {
			if re.Global || re.Sticky {
				if err := in.SetProp(this, "lastIndex", interp.Number(0), false); err != nil {
					return interp.Undefined(), err
				}
			}
			return interp.Null(), nil
		}
		if re.Global || re.Sticky {
			if err := in.SetProp(this, "lastIndex", interp.Number(float64(m.Groups[0][1])), false); err != nil {
				return interp.Undefined(), err
			}
		}
		return matchToArray(in, m), nil
	})

	r.method(proto, "RegExp.prototype.test", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisRegex(in, this, "RegExp.prototype.test")
		if err != nil {
			return interp.Undefined(), err
		}
		input, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		re := o.Regex()
		start := 0
		if re.Global || re.Sticky {
			liV, err := in.GetPropKey(this, "lastIndex")
			if err != nil {
				return interp.Undefined(), err
			}
			li, err := in.ToInteger(liV)
			if err != nil {
				return interp.Undefined(), err
			}
			start = int(li)
		}
		m, err := runRegex(in, re, input, start, "RegExp.prototype.test")
		if err != nil {
			return interp.Undefined(), err
		}
		if re.Global || re.Sticky {
			end := 0.0
			if m != nil {
				end = float64(m.Groups[0][1])
			}
			if err := in.SetProp(this, "lastIndex", interp.Number(end), false); err != nil {
				return interp.Undefined(), err
			}
		}
		return interp.Bool(m != nil), nil
	})

	r.method(proto, "RegExp.prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisRegex(in, this, "RegExp.prototype.toString")
		if err != nil {
			return interp.Undefined(), err
		}
		src := o.Regex().Source
		if src == "" {
			src = "(?:)"
		}
		return interp.String("/" + src + "/" + o.Regex().Flags), nil
	})

	// Annex B: RegExp.prototype.compile re-initialises the regex in place.
	// Per ES2015+, lastIndex must be writable or compile throws a TypeError
	// — the DIE Listing-12 conformance rule.
	r.method(proto, "RegExp.prototype.compile", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o, err := thisRegex(in, this, "RegExp.prototype.compile")
		if err != nil {
			return interp.Undefined(), err
		}
		if p, ok := o.GetOwnProperty("lastIndex"); ok && p.Attr&interp.Writable == 0 {
			return interp.Undefined(), in.TypeErrorf("Cannot assign to read only property 'lastIndex' of object")
		}
		nv, err := installRegexCompile(in, o, args)
		if err != nil {
			return interp.Undefined(), err
		}
		return nv, nil
	})
}

func installRegexCompile(in *interp.Interp, o *interp.Object, args []interp.Value) (interp.Value, error) {
	pattern, flags := "", ""
	patV := arg(args, 0)
	if patV.IsObject() && patV.Obj().Class == "RegExp" {
		pattern = patV.Obj().Regex().Source
		flags = patV.Obj().Regex().Flags
	} else if !patV.IsUndefined() {
		var err error
		pattern, err = in.ToString(patV)
		if err != nil {
			return interp.Undefined(), err
		}
	}
	if fv := arg(args, 1); !fv.IsUndefined() {
		var err error
		flags, err = in.ToString(fv)
		if err != nil {
			return interp.Undefined(), err
		}
	}
	nv, err := in.NewRegExp(pattern, flags)
	if err != nil {
		return interp.Undefined(), err
	}
	no := nv.Obj()
	o.SetRegex(no.Regex())
	o.SetSlot("source", interp.String(pattern), 0)
	o.SetSlot("flags", interp.String(flags), 0)
	if err := in.SetProp(interp.ObjValue(o), "lastIndex", interp.Number(0), true); err != nil {
		return interp.Undefined(), err
	}
	return interp.ObjValue(o), nil
}
