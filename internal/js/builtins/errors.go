package builtins

import "comfort/internal/js/interp"

// errorKinds lists the standard native error constructors.
var errorKinds = []string{
	"Error", "TypeError", "RangeError", "SyntaxError", "ReferenceError",
	"EvalError", "URIError", "InternalError",
}

// installErrorsLazy defers the hierarchy per constructor: touching a
// global error name, or throwing (through the interpreter's prototype-miss
// hook), installs the shared Error base plus just that one kind, each a
// lazy section (see materialize). Most generated programs raise a single
// error kind — usually TypeError — so a throwing realm pays for two
// constructors instead of eight. The capture pass installs the whole
// hierarchy at once.
func installErrorsLazy(r *registry) {
	if r.capturing != nil {
		for id := sectionErrors; id < numSections; id++ {
			installSection(r, id)
		}
		return
	}
	for _, name := range []string{
		"Error", "EvalError", "RangeError", "ReferenceError",
		"SyntaxError", "TypeError", "URIError", "InternalError",
	} {
		kind := name
		r.in.Global.SetLazy(r.in, kind, func(in *interp.Interp) { forceError(in, kind) })
	}
	r.in.ProtoMiss = forceError
}

// forceError is the prototype-miss hook: it installs the Error base once
// per realm (its presence in Protos is the flag) and then the requested
// kind, if it is an error kind not installed yet.
func forceError(in *interp.Interp, kind string) {
	if in.Protos["Error"] == nil {
		materialize(in, sectionErrors)
	}
	if kind == "Error" || in.Protos[kind] != nil {
		return
	}
	for i, k := range errorKinds[1:] {
		if k == kind {
			materialize(in, sectionErrors+1+i)
			return
		}
	}
}

// installErrorBase builds Error.prototype, its toString, and the Error
// constructor — the shared parent every subclass chains to.
func installErrorBase(r *registry) {
	in := r.in
	base := in.NewObject(in.Protos["Object"])
	base.Class = "Error"
	base.SetSlot("name", interp.String("Error"), interp.Writable|interp.Configurable)
	base.SetSlot("message", interp.String(""), interp.Writable|interp.Configurable)

	r.method(base, "Error.prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if !this.IsObject() {
			return interp.Undefined(), in.TypeErrorf("Error.prototype.toString called on non-object")
		}
		nameV, err := in.GetPropKey(this, "name")
		if err != nil {
			return interp.Undefined(), err
		}
		name := "Error"
		if !nameV.IsUndefined() {
			name, err = in.ToString(nameV)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		msgV, err := in.GetPropKey(this, "message")
		if err != nil {
			return interp.Undefined(), err
		}
		msg := ""
		if !msgV.IsUndefined() {
			msg, err = in.ToString(msgV)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		switch {
		case msg == "":
			return interp.String(name), nil
		case name == "":
			return interp.String(msg), nil
		default:
			return interp.String(name + ": " + msg), nil
		}
	})

	makeErrorCtor(r, "Error", base)
}

// installErrorKind builds one subclass prototype and constructor chained
// to the shared base, which the realm must hold.
func installErrorKind(r *registry, kind string) {
	in := r.in
	proto := in.NewObject(in.Protos["Error"])
	proto.Class = "Error"
	proto.SetSlot("name", interp.String(kind), interp.Writable|interp.Configurable)
	proto.SetSlot("message", interp.String(""), interp.Writable|interp.Configurable)
	makeErrorCtor(r, kind, proto)
}

// makeErrorCtor binds the kind's constructor. Its body reads the
// prototype from the realm it runs in, never the installer's: a template
// clone's constructor is the template's function object.
func makeErrorCtor(r *registry, kind string, proto *interp.Object) {
	body := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o := in.NewObject(in.Protos[kind])
		o.Class = "Error"
		if msg := arg(args, 0); !msg.IsUndefined() {
			s, err := in.ToString(msg)
			if err != nil {
				return interp.Undefined(), err
			}
			o.SetSlot("message", interp.String(s), interp.Writable|interp.Configurable)
		}
		return interp.ObjValue(o), nil
	}
	r.ctor(kind, 1, proto, body, body)
}
