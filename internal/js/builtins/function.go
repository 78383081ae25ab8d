package builtins

import (
	"comfort/internal/js/interp"
)

func installFunction(r *registry) {
	in := r.in
	fnProto := in.Protos["Function"]

	// Function.prototype is itself callable (returns undefined).
	fnProto.Native = func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined(), nil
	}
	fnProto.NativeName = "Function.prototype"

	ctorBody := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		// new Function(...) — dynamic code construction is routed through
		// the same path as eval but is rarely produced by the generators;
		// an empty function keeps behaviour deterministic.
		return interp.Undefined(), in.TypeErrorf("Function constructor is not supported by this engine family")
	}
	r.ctor("Function", 1, fnProto, ctorBody, ctorBody)

	r.method(fnProto, "Function.prototype.call", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if !this.IsObject() || !this.Obj().IsCallable() {
			return interp.Undefined(), in.TypeErrorf("Function.prototype.call called on non-callable")
		}
		var rest []interp.Value
		if len(args) > 1 {
			rest = args[1:]
		}
		return in.Call(this.Obj(), arg(args, 0), rest)
	})

	r.method(fnProto, "Function.prototype.apply", 2, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if !this.IsObject() || !this.Obj().IsCallable() {
			return interp.Undefined(), in.TypeErrorf("Function.prototype.apply called on non-callable")
		}
		var list []interp.Value
		av := arg(args, 1)
		if !av.IsNullish() {
			if !av.IsObject() {
				return interp.Undefined(), in.TypeErrorf("CreateListFromArrayLike called on non-object")
			}
			lenV, err := in.GetPropKey(av, "length")
			if err != nil {
				return interp.Undefined(), err
			}
			n, err := in.ToInteger(lenV)
			if err != nil {
				return interp.Undefined(), err
			}
			for i := 0; i < int(n); i++ {
				v, err := in.GetPropKey(av, interp.FormatNumber(float64(i)))
				if err != nil {
					return interp.Undefined(), err
				}
				list = append(list, v)
			}
		}
		return in.Call(this.Obj(), arg(args, 0), list)
	})

	r.method(fnProto, "Function.prototype.bind", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if !this.IsObject() || !this.Obj().IsCallable() {
			return interp.Undefined(), in.TypeErrorf("Function.prototype.bind called on non-callable")
		}
		bound := in.NewExoticObject(in.Protos["Function"])
		bound.Class = "Function"
		var boundArgs []interp.Value
		if len(args) > 1 {
			boundArgs = append([]interp.Value(nil), args[1:]...)
		}
		bound.SetBound(this.Obj(), arg(args, 0), boundArgs)
		nameV, _ := in.GetPropKey(this, "name")
		name, _ := in.ToString(nameV)
		bound.SetSlot("name", interp.String("bound "+name), interp.Configurable)
		return interp.ObjValue(bound), nil
	})

	r.method(fnProto, "Function.prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if !this.IsObject() || !this.Obj().IsCallable() {
			return interp.Undefined(), in.TypeErrorf("Function.prototype.toString called on non-callable")
		}
		o := this.Obj()
		nameV, _ := in.GetPropKey(this, "name")
		name, _ := in.ToString(nameV)
		if o.Native != nil {
			return interp.String("function " + name + "() { [native code] }"), nil
		}
		return interp.String("function " + name + "() { [source code] }"), nil
	})
}
