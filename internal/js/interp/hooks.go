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

	// HookPropSet.
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
	Fn   *Object

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
	Post func(res Value, err error) (Value, error)

	// Handled suppresses the default property store (HookPropSet only).
	Handled bool

	// CostExtra burns additional fuel, simulating performance defects.
	CostExtra int64
}

// Hook is the defect interception function installed by engine variants.
// A nil return means "no interference".
type Hook func(*HookCtx) *Override

// hookCtx returns a HookCtx for a hook site that consumes the hook's
// Override synchronously and never touches the ctx after the hook call
// returns (propset, arraygrow, functier — the per-operation hot sites —
// and the identifier-write sites).
// Such sites reuse one per-interpreter scratch struct instead of
// allocating: a &HookCtx literal passed to the dynamic Hook call always
// escapes, and on defect-laden testbeds property stores dominated the
// evaluator's allocation profile. Builtin sites keep allocating — their
// Override.Post closures may capture the ctx past the call. If a hook
// re-enters the interpreter and reaches another scratch site while the
// outer ctx is still live, the busy flag falls back to allocation, so
// reuse is safe even for re-entrant hooks. Callers must overwrite every
// field (assign a whole HookCtx value) and pass it to Ask, which
// releases it.
func (in *Interp) hookCtx() *HookCtx {
	if in.hookScratchBusy {
		return &HookCtx{}
	}
	in.hookScratchBusy = true
	return &in.hookScratch
}

// Ask asks the installed hook about ctx and charges the override's
// CostExtra; the caller acts on the rest of the override. A scratch ctx
// is released, dropping the value references it holds; heap-allocated
// ones are left to the collector. Callers check in.Hook first.
func (in *Interp) Ask(ctx *HookCtx) (*Override, error) {
	ov := in.Hook(ctx)
	if ctx == &in.hookScratch {
		*ctx = HookCtx{}
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
	ctx := in.hookCtx()
	*ctx = HookCtx{Site: site, In: in}
	ov, err := in.Ask(ctx)
	return ov != nil, err
}

// applyHook runs the installed hook for a builtin-like site and merges the
// result with the default behaviour produced by run().
func (in *Interp) applyHook(ctx *HookCtx, run func() (Value, error)) (Value, error) {
	if in.Hook == nil {
		return run()
	}
	ov, err := in.Ask(ctx)
	if err != nil {
		return Undefined(), err
	}
	if ov == nil {
		return run()
	}
	if ov.Replace {
		return ov.Return, ov.Err
	}
	res, err := run()
	if ov.Post != nil {
		res, err = ov.Post(res, err)
	}
	return res, err
}
