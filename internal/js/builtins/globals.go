package builtins

import (
	"math"
	"strings"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

func installGlobals(r *registry) {
	in := r.in

	in.Global.SetSlot("NaN", interp.Number(math.NaN()), 0)
	in.Global.SetSlot("Infinity", interp.Number(math.Inf(1)), 0)
	in.Global.SetSlot("undefined", interp.Undefined(), 0)
	in.Global.SetSlot("globalThis", interp.ObjValue(in.Global), interp.Writable|interp.Configurable)

	// print and console are one lazy section so console.log stays an alias
	// of print however the pair is first reached.
	lazySection(r, sectionPrint, "print", "console")

	r.globalFn("eval", 1, evalImpl)
	r.globalFn("parseInt", 2, parseIntImpl)
	r.globalFn("parseFloat", 1, parseFloatImpl)

	r.globalFn("isNaN", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		n, err := in.ToNumber(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.Bool(math.IsNaN(n)), nil
	})

	r.globalFn("isFinite", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		n, err := in.ToNumber(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.Bool(!math.IsNaN(n) && !math.IsInf(n, 0)), nil
	})
}

// installPrint binds print and the console object whose log, error and
// warn alias it (corpus programs use both).
func installPrint(r *registry) {
	print := r.fn("print", 1, printImpl)
	r.global("print", interp.ObjValue(print))
	console := r.in.NewObject(r.in.Protos["Object"])
	console.SetSlot("log", interp.ObjValue(print), interp.DefaultAttr)
	console.SetSlot("error", interp.ObjValue(print), interp.DefaultAttr)
	console.SetSlot("warn", interp.ObjValue(print), interp.DefaultAttr)
	r.global("console", interp.ObjValue(console))
}

// printImpl implements the print builtin (and console.log/error/warn).
func printImpl(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
	var parts []string
	for _, a := range args {
		s, err := in.ToString(a)
		if err != nil {
			return interp.Undefined(), err
		}
		parts = append(parts, s)
	}
	in.Print(strings.Join(parts, " "))
	return interp.Undefined(), nil
}

// evalImpl implements the global eval function, including the
// HookEvalParse defect site (lenient parse acceptance, Listing 7).
func evalImpl(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
	src := arg(args, 0)
	if src.Kind() != interp.KindString {
		return src, nil
	}
	code := src.Str()
	opts := parser.Options{Strict: in.Strict}
	if in.Hook != nil {
		ov, err := in.Ask(&interp.HookCtx{Site: interp.HookEvalParse, In: in, Src: code})
		if err != nil {
			return interp.Undefined(), err
		}
		if ov != nil {
			if ov.Replace {
				return ov.Return, ov.Err
			}
			if ov.Handled {
				// Defect: the engine's eval parser is lenient.
				opts.AllowEmptyForBody = true
				opts.AllowDuplicateParams = true
				opts.AllowLegacyOctal = true
			}
		}
	}
	if err := in.Burn(int64(len(code))); err != nil {
		return interp.Undefined(), err
	}
	prog, err := parser.ParseWith(code, opts)
	if err != nil {
		se := err.(*parser.SyntaxError) // ParseWith's only error type
		return interp.Undefined(), in.SyntaxErrorf("%s (at %s)", se.Msg, se.Pos)
	}
	// Resolve the freshly parsed tree: eval always executes in the global
	// environment, whose top level is the resolver's dynamic root, so the
	// annotations are sound here and functions the eval'd code defines run
	// on the slot-indexed path. The walk also applies the early rules; a
	// violation is a SyntaxError, like a parse error.
	resolve.Program(prog)
	if len(prog.EarlyErrors) > 0 {
		e := prog.EarlyErrors[0]
		return interp.Undefined(), in.SyntaxErrorf("%s (at %s)", e.Msg, e.Pos)
	}
	return in.RunGlobal(prog)
}

func parseIntImpl(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
	s, err := in.ToString(arg(args, 0))
	if err != nil {
		return interp.Undefined(), err
	}
	radixV, err := in.ToInteger(arg(args, 1))
	if err != nil {
		return interp.Undefined(), err
	}
	radix := int(radixV)
	s = strings.TrimSpace(s)
	sign := 1.0
	if strings.HasPrefix(s, "-") {
		sign = -1
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if radix == 0 {
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			radix = 16
			s = s[2:]
		} else {
			radix = 10
		}
	} else if radix == 16 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s = s[2:]
	}
	if radix < 2 || radix > 36 {
		return interp.Number(math.NaN()), nil
	}
	val := 0.0
	digits := 0
	for _, c := range s {
		d := digitVal(c)
		if d < 0 || d >= radix {
			break
		}
		val = val*float64(radix) + float64(d)
		digits++
	}
	if digits == 0 {
		return interp.Number(math.NaN()), nil
	}
	return interp.Number(sign * val), nil
}

func digitVal(c rune) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

func parseFloatImpl(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
	s, err := in.ToString(arg(args, 0))
	if err != nil {
		return interp.Undefined(), err
	}
	s = strings.TrimSpace(s)
	// Longest prefix that parses as a decimal literal.
	end := 0
	seenDigit, seenDot, seenExp := false, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			seenDigit = true
			end = i + 1
		case (c == '+' || c == '-') && i == 0:
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && seenDigit && !seenExp:
			seenExp = true
			// Require a digit (optionally signed) after the exponent.
			j := i + 1
			if j < len(s) && (s[j] == '+' || s[j] == '-') {
				j++
			}
			if j >= len(s) || s[j] < '0' || s[j] > '9' {
				i = len(s)
			}
		default:
			i = len(s)
		}
	}
	if strings.HasPrefix(s, "Infinity") || strings.HasPrefix(s, "+Infinity") {
		return interp.Number(math.Inf(1)), nil
	}
	if strings.HasPrefix(s, "-Infinity") {
		return interp.Number(math.Inf(-1)), nil
	}
	if !seenDigit {
		return interp.Number(math.NaN()), nil
	}
	return interp.Number(jsnum.Parse(s[:end])), nil
}
