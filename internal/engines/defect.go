package engines

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/regex"
)

// Component labels the engine subsystem a defect lives in (Figure 7).
type Component int

// Compiler components.
const (
	CodeGen Component = iota
	Implementation
	ParserComp
	RegexEngine
	StrictModeComp
	Optimizer
)

func (c Component) String() string {
	switch c {
	case CodeGen:
		return "CodeGen"
	case Implementation:
		return "Implementation"
	case ParserComp:
		return "Parser"
	case RegexEngine:
		return "Regex Engine"
	case StrictModeComp:
		return "Strict Mode"
	case Optimizer:
		return "Optimizer"
	default:
		return "?"
	}
}

// Components lists all component labels in Figure 7 order.
func Components() []Component {
	return []Component{CodeGen, Implementation, ParserComp, RegexEngine, StrictModeComp, Optimizer}
}

// Channel labels which part of the COMFORT pipeline exposes a defect
// (Table 4): plain generated programs, or ECMA-262-guided test data.
type Channel int

// Discovery channels.
const (
	ChannelGen Channel = iota
	ChannelSpecData
)

func (c Channel) String() string {
	if c == ChannelSpecData {
		return "ECMA-262 guided mutation"
	}
	return "Test program generation"
}

// Defect is one seeded conformance bug: where it lives, which versions have
// it, how its discovery was triaged in the paper's ground truth, and the
// behavioural interception that realises it.
type Defect struct {
	ID          string
	Engine      string
	AttrVersion string // earliest bug-exposing version (Table 3 attribution)
	FixedIn     string // first version without the bug ("" = never, in our set)

	Component Component
	APIType   string // Table 5 object-type grouping ("other" = non-API)
	API       string // canonical spec key of the defective operation
	Channel   Channel

	Verified bool // developer confirmed (Table 2 "#Verified")
	DevFixed bool // developer fixed (Table 2 "#Fixed")
	Test262  bool // witness accepted into Test262 (Table 2 last column)
	New      bool // newly discovered by COMFORT (Table 3 "#New")

	Note    string
	Witness string // JS program that provably triggers the defect

	// WitnessStrict runs the witness on the strict testbed.
	WitnessStrict bool
	// StrictOnly restricts the hook to strict-mode runs (Figure 7's
	// "Strict Mode" component defects).
	StrictOnly bool

	// Hook intercepts the defect's operations at its key (see Hook): the
	// dispatch table asks Hook.Fn only at sites of that key. Fn must
	// honour the probe contract (interp.HookCtx.Probe): probed, it returns
	// non-nil iff its trigger matches the site, runs no effect, and is
	// pure — its answer depends only on the ctx and the interpreter state,
	// which it must not change. The trigger over-approximates firing: a
	// hook whose trigger never matched during a run would have returned
	// nil at every site of that run. The builders below (onAPI, onRegex,
	// onPropSet, onTier, onRefusedWrite) implement the contract; a
	// hand-written Fn checks ctx.Probe once its trigger matched and
	// returns probeMatch.
	Hook       *Hook
	ParserOpts func(*parser.Options)
	// PreParse lets over-restrictive parser defects reject a valid program;
	// a non-empty return is the SyntaxError message.
	PreParse func(src string) string
}

// ActiveIn reports whether the defect is present in version v.
func (d *Defect) ActiveIn(v Version) bool {
	if v.Engine != d.Engine {
		return false
	}
	e, ok := ByName(d.Engine)
	if !ok {
		return false
	}
	intro, ok := rankOf(e, d.AttrVersion)
	if !ok || v.rank < intro {
		return false
	}
	if d.FixedIn != "" {
		if fixed, ok := rankOf(e, d.FixedIn); ok && v.rank >= fixed {
			return false
		}
	}
	return true
}

// rankOf resolves a version name to its rank (first match wins, since
// JerryScript reuses version names across builds).
func rankOf(e *Engine, name string) (int, bool) {
	for _, v := range e.Versions {
		if v.Name == name || v.Build == name {
			return v.rank, true
		}
	}
	return 0, false
}

// ---------- hook builders ----------

// probeMatch is a probed hook's answer when its trigger matched (see
// Defect.Hook); it is never applied.
var probeMatch = &interp.Override{}

// onAPI intercepts one builtin by its canonical spec key.
func onAPI(api string, when func(*interp.HookCtx) bool, eff func(*interp.HookCtx) *interp.Override) *Hook {
	return &Hook{Site: interp.HookBuiltin, Name: api, Fn: trigger(when, eff)}
}

// onRegex intercepts a regex execution entry point (split/match/exec/...)
// conditioned on the pattern source.
func onRegex(api string, patWhen func(pattern, flags string) bool, eff func(ctx *interp.HookCtx) *interp.Override) *Hook {
	var when func(*interp.HookCtx) bool
	if patWhen != nil {
		when = func(ctx *interp.HookCtx) bool { return patWhen(ctx.Pattern, ctx.Flags) }
	}
	return &Hook{Site: interp.HookRegexExec, Name: api, Fn: trigger(when, eff)}
}

// onPropSet intercepts property stores.
func onPropSet(when func(ctx *interp.HookCtx) bool, eff func(ctx *interp.HookCtx) *interp.Override) *Hook {
	return &Hook{Site: interp.HookPropSet, Fn: trigger(when, eff)}
}

// onTier intercepts function entry after the given invocation count — the
// "optimizing tier kicks in" defect model.
func onTier(threshold int, eff func(ctx *interp.HookCtx) *interp.Override) *Hook {
	return &Hook{Site: interp.HookFuncTier, Fn: trigger(func(ctx *interp.HookCtx) bool {
		return ctx.Tier == threshold
	}, eff)}
}

// onRefusedWrite lets through every write the reference refuses at one of
// the identifier-write sites (interp.HookSelfNameAssign,
// interp.HookUndeclaredAssign).
func onRefusedWrite(site interp.HookSite) *Hook {
	return &Hook{Site: site, Fn: trigger(nil, func(*interp.HookCtx) *interp.Override { return allowWrite })}
}

// trigger is a keyed hook's Fn: a nil when always matches; probed, a
// match answers probeMatch instead of running eff.
func trigger(when func(*interp.HookCtx) bool, eff func(*interp.HookCtx) *interp.Override) interp.Hook {
	return func(ctx *interp.HookCtx) *interp.Override {
		if when != nil && !when(ctx) {
			return nil
		}
		if ctx.Probe {
			return probeMatch
		}
		return eff(ctx)
	}
}

// allowWrite is the Override that lets a refused identifier write through.
var allowWrite = &interp.Override{}

// ---------- effect builders ----------

func ret(v interp.Value) func(*interp.HookCtx) *interp.Override {
	return func(*interp.HookCtx) *interp.Override {
		return &interp.Override{Replace: true, Return: v}
	}
}

func retFn(f func(ctx *interp.HookCtx) interp.Value) func(*interp.HookCtx) *interp.Override {
	return func(ctx *interp.HookCtx) *interp.Override {
		return &interp.Override{Replace: true, Return: f(ctx)}
	}
}

func throwE(kind, msg string) func(*interp.HookCtx) *interp.Override {
	return func(ctx *interp.HookCtx) *interp.Override {
		return &interp.Override{Replace: true, Err: &interp.Throw{Val: ctx.In.NewError(kind, msg)}}
	}
}

// noThrow swallows the exception the operation should raise, yielding v.
func noThrow(v interp.Value) func(*interp.HookCtx) *interp.Override {
	return func(*interp.HookCtx) *interp.Override {
		return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
			if _, isThrow := interp.IsThrow(err); isThrow {
				return v, nil
			}
			return res, err
		}}
	}
}

// mapResult transforms a successful result. f reads a copy of the ctx:
// Post runs after the ctx is released.
func mapResult(f func(ctx *interp.HookCtx, res interp.Value) interp.Value) func(*interp.HookCtx) *interp.Override {
	return func(ctx *interp.HookCtx) *interp.Override {
		c := *ctx
		return &interp.Override{Post: func(res interp.Value, err error) (interp.Value, error) {
			if err != nil {
				return res, err
			}
			return f(&c, res), nil
		}}
	}
}

func crash(msg string) func(*interp.HookCtx) *interp.Override {
	return func(*interp.HookCtx) *interp.Override {
		return &interp.Override{Replace: true, Err: &interp.Abort{Kind: interp.AbortCrash, Msg: msg}}
	}
}

// ---------- trigger predicates ----------

func argUndef(i int) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i < len(ctx.Args) && ctx.Args[i].IsUndefined()
	}
}

func argMissingOrUndef(i int) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i >= len(ctx.Args) || ctx.Args[i].IsUndefined()
	}
}

func argNull(i int) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i < len(ctx.Args) && ctx.Args[i].IsNull()
	}
}

func argBool(i int) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i < len(ctx.Args) && ctx.Args[i].Kind() == interp.KindBool
	}
}

func argString(i int) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i < len(ctx.Args) && ctx.Args[i].Kind() == interp.KindString
	}
}

func argNumber(i int, pred func(float64) bool) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return i < len(ctx.Args) && ctx.Args[i].Kind() == interp.KindNumber && pred(ctx.Args[i].Num())
	}
}

func argNeg(i int) func(*interp.HookCtx) bool {
	return argNumber(i, func(f float64) bool { return f < 0 })
}

func argNaN(i int) func(*interp.HookCtx) bool {
	return argNumber(i, math.IsNaN)
}

func argInf(i int) func(*interp.HookCtx) bool {
	return argNumber(i, func(f float64) bool { return math.IsInf(f, 0) })
}

func argFrac(i int) func(*interp.HookCtx) bool {
	return argNumber(i, func(f float64) bool {
		return !math.IsNaN(f) && !math.IsInf(f, 0) && f != math.Trunc(f)
	})
}

func argZero(i int) func(*interp.HookCtx) bool {
	return argNumber(i, func(f float64) bool { return f == 0 })
}

func argBigNum(i int, min float64) func(*interp.HookCtx) bool {
	return argNumber(i, func(f float64) bool { return f >= min })
}

func noArgs() func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool { return len(ctx.Args) == 0 }
}

func thisEmptyString() func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		return ctx.This.Kind() == interp.KindString && ctx.This.Str() == ""
	}
}

func and(preds ...func(*interp.HookCtx) bool) func(*interp.HookCtx) bool {
	return func(ctx *interp.HookCtx) bool {
		for _, p := range preds {
			if !p(ctx) {
				return false
			}
		}
		return true
	}
}

// anchorAnywhere implements the "^ anchor honoured mid-string" regex defect
// family: it re-runs the pattern without its leading anchor and fakes a
// match wherever it lands.
func anchorAnywhere(api string) *Hook {
	return onRegex(api, func(pattern, flags string) bool {
		return strings.HasPrefix(pattern, "^") && len(pattern) > 1
	}, func(ctx *interp.HookCtx) *interp.Override {
		re, err := regex.Compile(strings.TrimPrefix(ctx.Pattern, "^"), ctx.Flags)
		if err != nil {
			return nil
		}
		input := ""
		start := 0
		if len(ctx.Args) > 0 {
			input = ctx.Args[0].Str()
		}
		if len(ctx.Args) > 1 {
			start = int(ctx.Args[1].Num())
		}
		m, err := re.Exec(input, start)
		if err != nil || m == nil {
			return nil
		}
		if m.Groups[0][0] == 0 {
			return nil // the correct matcher would find this anyway
		}
		return &interp.Override{Replace: true, Return: interp.ObjValue(
			fakeMatchObject(m.Groups[0][0], m.Groups[0][1]))}
	})
}

// fakeMatchObject encodes a fake [start,end) range for runRegex overrides.
func fakeMatchObject(start, end int) *interp.Object {
	o := interp.NewObject(nil)
	o.Class = "FakeMatch"
	o.SetSlot("start", interp.Number(float64(start)), interp.DefaultAttr)
	o.SetSlot("end", interp.Number(float64(end)), interp.DefaultAttr)
	return o
}
