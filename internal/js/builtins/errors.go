package builtins

import "comfort/internal/js/interp"

// errorKinds lists the standard native error constructors.
var errorKinds = []string{
	"Error", "TypeError", "RangeError", "SyntaxError", "ReferenceError",
	"EvalError", "URIError", "InternalError",
}

// installErrors wires the full hierarchy at once — used by the capture
// pass, whose realm must register every method table up front.
func installErrors(r *registry) {
	base := installErrorBase(r)
	for _, kind := range errorKinds[1:] {
		installErrorKind(r, base, kind)
	}
}

// installErrorsLazy defers the hierarchy per constructor: touching a
// global error name, or throwing (through the interpreter's prototype-miss
// hook), installs the shared Error base plus just that one kind. Most
// generated programs raise a single error kind — usually TypeError — so
// a throwing realm pays for two constructors instead of eight. The capture
// pass installs the whole hierarchy at once.
func installErrorsLazy(r *registry) {
	if r.capturing != nil {
		installErrors(r)
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
	r := &registry{in: in}
	base := in.Protos["Error"]
	if base == nil {
		base = installErrorBase(r)
	}
	if kind == "Error" || in.Protos[kind] != nil {
		return
	}
	for _, k := range errorKinds[1:] {
		if k == kind {
			installErrorKind(r, base, kind)
			return
		}
	}
}

// installErrorBase builds Error.prototype, its toString, and the Error
// constructor — the shared parent every subclass chains to.
func installErrorBase(r *registry) *interp.Object {
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
	return base
}

// installErrorKind builds one subclass prototype and constructor chained
// to the shared base.
func installErrorKind(r *registry, base *interp.Object, kind string) {
	in := r.in
	proto := in.NewObject(base)
	proto.Class = "Error"
	proto.SetSlot("name", interp.String(kind), interp.Writable|interp.Configurable)
	proto.SetSlot("message", interp.String(""), interp.Writable|interp.Configurable)
	makeErrorCtor(r, kind, proto)
}

func makeErrorCtor(r *registry, kind string, proto *interp.Object) {
	body := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		o := in.NewObject(proto)
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
