package interp

// HookSite identifies the interception point of an engine defect.
type HookSite int

// Hook sites. These correspond to the places where real engines diverge:
// builtin dispatch, property stores, (eval) parsing, array growth, regex
// execution, tier-up recompilation, and two identifier writes the
// reference refuses: to a function expression's own name, and a strict
// write to an undeclared identifier.
const (
	HookBuiltin HookSite = iota
	HookPropSet
	HookEvalParse
	HookArrayGrow
	HookRegexExec
	HookFuncTier
	HookSelfNameAssign
	HookUndeclaredAssign
)

func (s HookSite) String() string {
	switch s {
	case HookBuiltin:
		return "builtin"
	case HookPropSet:
		return "propset"
	case HookEvalParse:
		return "evalparse"
	case HookArrayGrow:
		return "arraygrow"
	case HookRegexExec:
		return "regexexec"
	case HookFuncTier:
		return "functier"
	case HookSelfNameAssign:
		return "selfnameassign"
	case HookUndeclaredAssign:
		return "undeclaredassign"
	default:
		return "unknown"
	}
}

// HookCtx carries the interception context to a Hook.
type HookCtx struct {
	Site HookSite
	In   *Interp

	// HookBuiltin and HookRegexExec.
	Name string // canonical builtin key, e.g. "String.prototype.substr"
	This Value
	Args []Value

	// HookPropSet. Key is the key as the program wrote it: a number at a
	// dense array element store, otherwise the property-key string.
	Obj *Object
	Key Value
	Val Value

	// HookEvalParse.
	Src string

	// HookRegexExec.
	Pattern string
	Flags   string

	// HookArrayGrow: the array being written and the index.
	Index uint32

	// HookFuncTier: the invocation count of the function being entered.
	Tier int

	// Probe asks the hook whether its trigger matches this site instead of
	// intervening: a probed hook returns a non-nil Override iff it would
	// have fired, and runs no effect. The interpreter never sets it; a
	// recording hook sets it around the hooks it asks, records their
	// answers and returns nil itself.
	Probe bool
}

// Override tells the interpreter how a hook altered behaviour. At
// HookSelfNameAssign and HookUndeclaredAssign any non-nil Override lets
// the refused write through (the self-name binding takes the value, or
// the undeclared identifier becomes a global); its fields are unused.
type Override struct {
	// Replace short-circuits the operation with Return/Err.
	Replace bool
	Return  Value
	Err     error

	// Post transforms the operation's natural result (builtin sites only).
	// It runs after Ask has cleared the ctx, so it captures the values it
	// reads, never the ctx (TestEveryDefectWitnessDiverges catches that).
	Post func(res Value, err error) (Value, error)

	// Handled suppresses the default property store (HookPropSet only).
	Handled bool

	// CostExtra burns additional fuel, simulating performance defects.
	CostExtra int64
}

// Hook is the defect interception function installed by engine variants.
// A nil return means "no interference".
type Hook func(*HookCtx) *Override

// Ask asks the installed hook about ctx and charges the override's
// CostExtra; the caller acts on the rest of the override. The hook gets
// ctx in the per-interpreter scratch struct, since a HookCtx handed to
// the dynamic Hook call escapes; a hook that re-enters the interpreter
// and reaches another site while the scratch is lent out gets a heap
// copy there. The scratch is cleared when the hook returns, so nothing
// may read the ctx after that. Callers check in.Hook first.
func (in *Interp) Ask(ctx HookCtx) (*Override, error) {
	p := &in.hookScratch
	if in.hookScratchBusy {
		p = new(HookCtx)
	} else {
		in.hookScratchBusy = true
	}
	*p = ctx
	ov := in.Hook(p)
	if p == &in.hookScratch {
		*p = HookCtx{}
		in.hookScratchBusy = false
	}
	if ov != nil && ov.CostExtra > 0 {
		if err := in.charge(ov.CostExtra); err != nil {
			return nil, err
		}
	}
	return ov, nil
}

// allowWrite asks the hook, if any, whether a write the reference
// refuses at site goes through.
func (in *Interp) allowWrite(site HookSite) (bool, error) {
	if in.Hook == nil {
		return false, nil
	}
	ov, err := in.Ask(HookCtx{Site: site, In: in})
	return ov != nil, err
}

// callNative runs a native function, constructor calls (ctor) included,
// under the installed hook: the hook may replace the call or transform
// its result. An unhooked run calls native directly.
func (in *Interp) callNative(native NativeFunc, name string, ctor bool, this Value, args []Value) (Value, error) {
	if in.Hook == nil {
		return native(in, this, args)
	}
	if ctor {
		name = "new " + name
	}
	ov, err := in.Ask(HookCtx{Site: HookBuiltin, In: in, Name: name, This: this, Args: args})
	if err != nil {
		return Undefined(), err
	}
	if ov != nil && ov.Replace {
		return ov.Return, ov.Err
	}
	res, err := native(in, this, args)
	if ov != nil && ov.Post != nil {
		res, err = ov.Post(res, err)
	}
	return res, err
}

// askPropSet asks the hook about the store of v at o[key]; done reports
// that the hook replaced or handled it, so the store must not happen.
func (in *Interp) askPropSet(o *Object, key, v Value) (done bool, err error) {
	ov, err := in.Ask(HookCtx{Site: HookPropSet, In: in, Obj: o, Key: key, Val: v})
	if ov != nil && ov.Replace {
		return true, ov.Err
	}
	return ov != nil && ov.Handled, err
}

// askArrayGrow asks the hook about the write of v at index idx of the
// array o.
func (in *Interp) askArrayGrow(o *Object, idx uint32, v Value) error {
	_, err := in.Ask(HookCtx{Site: HookArrayGrow, In: in, Obj: o, Index: idx, Val: v})
	return err
}
