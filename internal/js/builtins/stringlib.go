package builtins

import (
	"math"
	"strings"
	"unicode/utf8"

	"comfort/internal/js/interp"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/regex"
)

func installString(r *registry) {
	in := r.in
	proto := in.NewObject(in.Protos["Object"])
	proto.Class = "String"
	proto.Prim, proto.HasPrim = interp.String(""), true

	call := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.String(""), nil
		}
		s, err := in.ToString(args[0])
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.String(s), nil
	}
	construct := func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v, err := call(in, this, args)
		if err != nil {
			return interp.Undefined(), err
		}
		o := in.NewObject(in.Protos["String"])
		o.Class = "String"
		o.Prim, o.HasPrim = v, true
		return interp.ObjValue(o), nil
	}
	ctor := r.ctor("String", 1, proto, call, construct)

	r.method(ctor, "String.fromCharCode", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		var b strings.Builder
		for _, a := range args {
			n, err := in.ToNumber(a)
			if err != nil {
				return interp.Undefined(), err
			}
			b.WriteRune(rune(uint16(int64(n))))
		}
		return interp.String(b.String()), nil
	})

	r.method(ctor, "String.fromCodePoint", 1, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		var b strings.Builder
		for _, a := range args {
			n, err := in.ToNumber(a)
			if err != nil {
				return interp.Undefined(), err
			}
			if n != math.Trunc(n) || n < 0 || n > 0x10FFFF {
				return interp.Undefined(), in.RangeErrorf("Invalid code point %v", n)
			}
			b.WriteRune(rune(int64(n)))
		}
		return interp.String(b.String()), nil
	})

	// thisStr coerces the receiver per CheckObjectCoercible + ToString.
	thisStr := func(in *interp.Interp, this interp.Value, method string) (string, error) {
		if err := requireObjectCoercible(in, this, method); err != nil {
			return "", err
		}
		return in.ToString(this)
	}

	str := func(name string, arity int,
		f func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error)) {
		r.method(proto, name, arity, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
			s, err := thisStr(in, this, name)
			if err != nil {
				return interp.Undefined(), err
			}
			return f(in, []rune(s), this, args)
		})
	}

	// strRaw passes the receiver without materialising a rune slice — the
	// adapter for the position-indexed accessors, which campaign profiles
	// show dominated by the []rune conversion ([]rune(s) allocates and
	// copies the whole string per call; charCodeAt in a scan loop paid it
	// quadratically).
	strRaw := func(name string, arity int,
		f func(in *interp.Interp, s string, this interp.Value, args []interp.Value) (interp.Value, error)) {
		r.method(proto, name, arity, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
			s, err := thisStr(in, this, name)
			if err != nil {
				return interp.Undefined(), err
			}
			return f(in, s, this, args)
		})
	}

	r.method(proto, "String.prototype.toString", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return stringThisValue(in, this)
	})
	r.method(proto, "String.prototype.valueOf", 0, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return stringThisValue(in, this)
	})

	strRaw("String.prototype.charAt", 1, func(in *interp.Interp, s string, this interp.Value, args []interp.Value) (interp.Value, error) {
		pos, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if r, ok := in.RuneAt(s, pos); ok {
			return interp.String(string(r)), nil
		}
		return interp.String(""), nil
	})

	strRaw("String.prototype.charCodeAt", 1, func(in *interp.Interp, s string, this interp.Value, args []interp.Value) (interp.Value, error) {
		pos, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if r, ok := in.RuneAt(s, pos); ok {
			return interp.Number(float64(r)), nil
		}
		return interp.Number(math.NaN()), nil
	})

	strRaw("String.prototype.codePointAt", 1, func(in *interp.Interp, s string, this interp.Value, args []interp.Value) (interp.Value, error) {
		pos, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if r, ok := in.RuneAt(s, pos); ok {
			return interp.Number(float64(r)), nil
		}
		return interp.Undefined(), nil
	})

	strRaw("String.prototype.at", 1, func(in *interp.Interp, s string, this interp.Value, args []interp.Value) (interp.Value, error) {
		pos, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if pos < 0 {
			pos += float64(in.RuneLen(s))
		}
		if r, ok := in.RuneAt(s, pos); ok {
			return interp.String(string(r)), nil
		}
		return interp.Undefined(), nil
	})

	str("String.prototype.concat", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		var b strings.Builder
		b.WriteString(string(s))
		for _, a := range args {
			as, err := in.ToString(a)
			if err != nil {
				return interp.Undefined(), err
			}
			b.WriteString(as)
		}
		return interp.String(b.String()), nil
	})

	str("String.prototype.indexOf", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		needle, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		posF, err := in.ToInteger(arg(args, 1))
		if err != nil {
			return interp.Undefined(), err
		}
		start := clampIndex(posF, len(s))
		idx := runeIndex(s, []rune(needle), start)
		return interp.Number(float64(idx)), nil
	})

	str("String.prototype.lastIndexOf", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		needle, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		nr := []rune(needle)
		best := -1
		for i := 0; i+len(nr) <= len(s); i++ {
			if string(s[i:i+len(nr)]) == needle {
				best = i
			}
		}
		return interp.Number(float64(best)), nil
	})

	str("String.prototype.includes", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		if isRegExpArg(arg(args, 0)) {
			return interp.Undefined(), in.TypeErrorf("First argument to String.prototype.includes must not be a regular expression")
		}
		needle, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.Bool(strings.Contains(string(s), needle)), nil
	})

	str("String.prototype.startsWith", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		if isRegExpArg(arg(args, 0)) {
			return interp.Undefined(), in.TypeErrorf("First argument to String.prototype.startsWith must not be a regular expression")
		}
		needle, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		posF, err := in.ToInteger(arg(args, 1))
		if err != nil {
			return interp.Undefined(), err
		}
		start := clampIndex(posF, len(s))
		return interp.Bool(strings.HasPrefix(string(s[start:]), needle)), nil
	})

	str("String.prototype.endsWith", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		if isRegExpArg(arg(args, 0)) {
			return interp.Undefined(), in.TypeErrorf("First argument to String.prototype.endsWith must not be a regular expression")
		}
		needle, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		end := len(s)
		if e := arg(args, 1); !e.IsUndefined() {
			f, err := in.ToInteger(e)
			if err != nil {
				return interp.Undefined(), err
			}
			end = clampIndex(f, len(s))
		}
		return interp.Bool(strings.HasSuffix(string(s[:end]), needle)), nil
	})

	str("String.prototype.slice", 2, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		start, end, err := sliceRange(in, args, len(s))
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.String(string(s[start:end])), nil
	})

	str("String.prototype.substring", 2, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		n := len(s)
		a, b := 0, n
		if v := arg(args, 0); !v.IsUndefined() {
			f, err := in.ToInteger(v)
			if err != nil {
				return interp.Undefined(), err
			}
			a = clampAbs(f, n)
		}
		if v := arg(args, 1); !v.IsUndefined() {
			f, err := in.ToInteger(v)
			if err != nil {
				return interp.Undefined(), err
			}
			b = clampAbs(f, n)
		}
		if a > b {
			a, b = b, a
		}
		return interp.String(string(s[a:b])), nil
	})

	// String.prototype.substr — the paper's Figure 1/2 walkthrough API.
	str("String.prototype.substr", 2, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		size := len(s)
		intStart, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		end := math.Inf(1)
		if lv := arg(args, 1); !lv.IsUndefined() {
			end, err = in.ToInteger(lv)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		if intStart < 0 {
			intStart = math.Max(float64(size)+intStart, 0)
		}
		resultLength := math.Min(math.Max(end, 0), float64(size)-intStart)
		if resultLength <= 0 {
			return interp.String(""), nil
		}
		start := int(intStart)
		return interp.String(string(s[start : start+int(resultLength)])), nil
	})

	str("String.prototype.toUpperCase", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.ToUpper(string(s))), nil
	})
	str("String.prototype.toLowerCase", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.ToLower(string(s))), nil
	})
	str("String.prototype.toLocaleUpperCase", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.ToUpper(string(s))), nil
	})
	str("String.prototype.toLocaleLowerCase", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.ToLower(string(s))), nil
	})

	str("String.prototype.trim", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.TrimFunc(string(s), isTrimmable)), nil
	})
	str("String.prototype.trimStart", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.TrimLeftFunc(string(s), isTrimmable)), nil
	})
	str("String.prototype.trimEnd", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.String(strings.TrimRightFunc(string(s), isTrimmable)), nil
	})

	pad := func(name string, start bool) {
		str(name, 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
			targetF, err := in.ToInteger(arg(args, 0))
			if err != nil {
				return interp.Undefined(), err
			}
			target := jsnum.SafeInt(targetF)
			filler := " "
			if f := arg(args, 1); !f.IsUndefined() {
				filler, err = in.ToString(f)
				if err != nil {
					return interp.Undefined(), err
				}
			}
			if target <= len(s) || filler == "" {
				return interp.String(string(s)), nil
			}
			if err := in.Burn(int64(target) / 16); err != nil {
				return interp.Undefined(), err
			}
			// Build the result in one pre-sized buffer, filling with bulk
			// copies: the whole filler repetitions are one strings.Repeat
			// (doubling memmove) and only the trailing partial repetition
			// walks runes. The previous rune-by-rune WriteRune loop was the
			// single hottest site of whole campaigns — generated programs
			// pad inside loops — at ~29% of campaign CPU.
			need := target - len(s) // pad length in runes
			var b strings.Builder
			b.Grow(target) // exact for ASCII; the builder grows otherwise
			fillerRunes := utf8.RuneCountInString(filler)
			writePad := func() {
				if whole := need / fillerRunes; whole > 0 {
					b.WriteString(strings.Repeat(filler, whole))
				}
				rem := need % fillerRunes
				for _, fr := range filler {
					if rem == 0 {
						break
					}
					b.WriteRune(fr)
					rem--
				}
			}
			if start {
				writePad()
				b.WriteString(string(s))
				return interp.String(b.String()), nil
			}
			b.WriteString(string(s))
			writePad()
			return interp.String(b.String()), nil
		})
	}
	pad("String.prototype.padStart", true)
	pad("String.prototype.padEnd", false)

	str("String.prototype.repeat", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		nF, err := in.ToInteger(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		if nF < 0 || math.IsInf(nF, 0) {
			return interp.Undefined(), in.RangeErrorf("Invalid count value: %v", nF)
		}
		n := int(nF)
		if err := in.Burn(int64(n * (len(s) + 1))); err != nil {
			return interp.Undefined(), err
		}
		return interp.String(strings.Repeat(string(s), n)), nil
	})

	str("String.prototype.normalize", 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		form := "NFC"
		if f := arg(args, 0); !f.IsUndefined() {
			var err error
			form, err = in.ToString(f)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		switch form {
		case "NFC", "NFD", "NFKC", "NFKD":
			// Our corpus is ASCII-dominated; identity is a faithful NFC for
			// it. (Real engines differ here only on combining sequences.)
			return interp.String(string(s)), nil
		default:
			return interp.Undefined(), in.RangeErrorf("The normalization form should be one of NFC, NFD, NFKC, NFKD.")
		}
	})

	str("String.prototype.localeCompare", 1, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
		other, err := in.ToString(arg(args, 0))
		if err != nil {
			return interp.Undefined(), err
		}
		switch {
		case string(s) < other:
			return interp.Number(-1), nil
		case string(s) > other:
			return interp.Number(1), nil
		default:
			return interp.Number(0), nil
		}
	})

	// Annex B legacy HTML methods (String.prototype.big et al) — kept
	// because real engines ship them and fuzzers find bugs in them.
	htmlWrap := func(name, tag string) {
		str(name, 0, func(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
			return interp.String("<" + tag + ">" + string(s) + "</" + tag + ">"), nil
		})
	}
	htmlWrap("String.prototype.big", "big")
	htmlWrap("String.prototype.blink", "blink")
	htmlWrap("String.prototype.bold", "b")
	htmlWrap("String.prototype.italics", "i")
	htmlWrap("String.prototype.small", "small")
	htmlWrap("String.prototype.strike", "strike")
	htmlWrap("String.prototype.sub", "sub")
	htmlWrap("String.prototype.sup", "sup")

	str("String.prototype.split", 2, stringSplit)
	str("String.prototype.replace", 2, stringReplace)
	str("String.prototype.match", 1, stringMatch)
	str("String.prototype.search", 1, stringSearch)
}

// stringThisValue implements the toString/valueOf receiver check shared by
// String wrapper objects.
func stringThisValue(in *interp.Interp, this interp.Value) (interp.Value, error) {
	if this.Kind() == interp.KindString {
		return this, nil
	}
	if this.IsObject() && this.Obj().Class == "String" && this.Obj().HasPrim {
		return this.Obj().Prim, nil
	}
	return interp.Undefined(), in.TypeErrorf("String.prototype.toString requires that 'this' be a String")
}

func isRegExpArg(v interp.Value) bool {
	return v.IsObject() && v.Obj().Class == "RegExp"
}

func isTrimmable(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\r', '\v', '\f', 0x00a0, 0x2028, 0x2029, 0xfeff:
		return true
	}
	return false
}

func clampAbs(f float64, n int) int {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > float64(n) {
		return n
	}
	return int(f)
}

func runeIndex(s, needle []rune, start int) int {
	if len(needle) == 0 {
		if start > len(s) {
			return len(s)
		}
		return start
	}
	for i := start; i+len(needle) <= len(s); i++ {
		match := true
		for j := range needle {
			if s[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// argRegex resolves a pattern argument to a compiled regex, per the
// RegExpCreate coercion used by split/match/search/replace. The regex-engine
// hook fires on every execution through these entry points.
func argRegex(in *interp.Interp, v interp.Value) (*regex.Regexp, bool, error) {
	if v.IsObject() && v.Obj().Class == "RegExp" {
		return v.Obj().Regex(), true, nil
	}
	return nil, false, nil
}

// runRegex executes a regex with the HookRegexExec defect site applied.
func runRegex(in *interp.Interp, re *regex.Regexp, input string, start int, api string) (*regex.Match, error) {
	if err := in.Burn(int64(len(input))/4 + 2); err != nil {
		return nil, err
	}
	if in.Hook != nil {
		ov, err := in.Ask(interp.HookCtx{
			Site: interp.HookRegexExec, In: in, Name: api,
			Pattern: re.Source, Flags: re.Flags,
			Args: []interp.Value{interp.String(input), interp.Number(float64(start))},
		})
		if err != nil {
			return nil, err
		}
		if ov != nil && ov.Replace {
			if ov.Err != nil {
				return nil, ov.Err
			}
			// A FakeMatch object injects a bogus match range (the
			// anchor-mishandling regex defect family); anything else
			// replaces the result with "no match".
			if fm := ov.Return; fm.IsObject() && fm.Obj().Class == "FakeMatch" {
				s, _ := in.GetPropKey(fm, "start")
				e, _ := in.GetPropKey(fm, "end")
				return &regex.Match{
					Groups: [][2]int{{int(s.Num()), int(e.Num())}},
					Input:  []rune(input),
				}, nil
			}
			return nil, nil
		}
	}
	m, err := re.Exec(input, start)
	if err == regex.ErrBudget {
		return nil, in.Burn(interp.DefaultFuel) // surface as timeout
	}
	return m, err
}

func stringSplit(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
	sepV := arg(args, 0)
	limit := math.Inf(1)
	if lv := arg(args, 1); !lv.IsUndefined() {
		f, err := in.ToNumber(lv)
		if err != nil {
			return interp.Undefined(), err
		}
		limit = float64(uint32(int64(f)))
	}
	out := in.NewArray(nil)
	push := func(v interp.Value) bool {
		if float64(out.ArrayLength()) >= limit {
			return false
		}
		out.AppendElem(v)
		return true
	}
	if sepV.IsUndefined() {
		push(interp.String(string(s)))
		return interp.ObjValue(out), nil
	}
	if re, ok, err := argRegex(in, sepV); err != nil {
		return interp.Undefined(), err
	} else if ok {
		input := string(s)
		at := 0
		last := 0
		for at <= len(s) {
			m, err := runRegex(in, re, input, at, "String.prototype.split")
			if err != nil {
				return interp.Undefined(), err
			}
			if m == nil {
				break
			}
			start, end := m.Groups[0][0], m.Groups[0][1]
			if end == 0 && start == 0 && len(s) > 0 {
				// Zero-width match at start: skip forward.
				at = 1
				continue
			}
			if start == end && start == last {
				at = start + 1
				continue
			}
			if !push(interp.String(string(s[last:start]))) {
				return interp.ObjValue(out), nil
			}
			for g := 1; g < len(m.Groups); g++ {
				if m.GroupMatched(g) {
					if !push(interp.String(m.GroupString(g))) {
						return interp.ObjValue(out), nil
					}
				} else if !push(interp.Undefined()) {
					return interp.ObjValue(out), nil
				}
			}
			last = end
			if end == start {
				at = end + 1
			} else {
				at = end
			}
		}
		push(interp.String(string(s[last:])))
		return interp.ObjValue(out), nil
	}
	sep, err := in.ToString(sepV)
	if err != nil {
		return interp.Undefined(), err
	}
	if sep == "" {
		for _, c := range s {
			if !push(interp.String(string(c))) {
				break
			}
		}
		return interp.ObjValue(out), nil
	}
	for _, part := range strings.Split(string(s), sep) {
		if !push(interp.String(part)) {
			break
		}
	}
	return interp.ObjValue(out), nil
}

func stringReplace(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
	pat := arg(args, 0)
	replV := arg(args, 1)
	input := string(s)

	callRepl := func(matched string, groups []interp.Value, pos int) (string, error) {
		callArgs := append([]interp.Value{interp.String(matched)}, groups...)
		callArgs = append(callArgs, interp.Number(float64(pos)), interp.String(input))
		res, err := in.Call(replV.Obj(), interp.Undefined(), callArgs)
		if err != nil {
			return "", err
		}
		return in.ToString(res)
	}
	isFunc := replV.IsObject() && replV.Obj().IsCallable()

	if re, ok, err := argRegex(in, pat); err != nil {
		return interp.Undefined(), err
	} else if ok {
		if !isFunc {
			repl, err := in.ToString(replV)
			if err != nil {
				return interp.Undefined(), err
			}
			// Route the match through the hook once for defect visibility.
			if _, err := runRegex(in, re, input, 0, "String.prototype.replace"); err != nil {
				return interp.Undefined(), err
			}
			res, err := re.ReplaceAll(input, repl, re.Global)
			if err != nil {
				return interp.Undefined(), err
			}
			return interp.String(res), nil
		}
		var b strings.Builder
		at := 0
		for at <= len(s) {
			m, err := runRegex(in, re, input, at, "String.prototype.replace")
			if err != nil {
				return interp.Undefined(), err
			}
			if m == nil {
				break
			}
			start, end := m.Groups[0][0], m.Groups[0][1]
			b.WriteString(string(s[at:start]))
			var groups []interp.Value
			for g := 1; g < len(m.Groups); g++ {
				if m.GroupMatched(g) {
					groups = append(groups, interp.String(m.GroupString(g)))
				} else {
					groups = append(groups, interp.Undefined())
				}
			}
			rs, err := callRepl(m.GroupString(0), groups, start)
			if err != nil {
				return interp.Undefined(), err
			}
			b.WriteString(rs)
			if end == start {
				if start < len(s) {
					b.WriteRune(s[start])
				}
				at = start + 1
			} else {
				at = end
			}
			if !re.Global {
				break
			}
		}
		if at <= len(s) {
			b.WriteString(string(s[at:]))
		}
		return interp.String(b.String()), nil
	}

	// String pattern: replace the first occurrence only.
	patStr, err := in.ToString(pat)
	if err != nil {
		return interp.Undefined(), err
	}
	idx := strings.Index(input, patStr)
	if idx < 0 {
		return interp.String(input), nil
	}
	pos := utf8.RuneCountInString(input[:idx])
	if isFunc {
		rs, err := callRepl(patStr, nil, pos)
		if err != nil {
			return interp.Undefined(), err
		}
		return interp.String(input[:idx] + rs + input[idx+len(patStr):]), nil
	}
	repl, err := in.ToString(replV)
	if err != nil {
		return interp.Undefined(), err
	}
	// GetSubstitution over a match with no captures, as for a RegExp.
	m := &regex.Match{Groups: [][2]int{{pos, pos + utf8.RuneCountInString(patStr)}}, Input: s}
	return interp.String(input[:idx] + regex.ExpandReplacement(repl, m) + input[idx+len(patStr):]), nil
}

func stringMatch(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
	pat := arg(args, 0)
	re, ok, err := argRegex(in, pat)
	if err != nil {
		return interp.Undefined(), err
	}
	if !ok {
		src := ""
		if !pat.IsUndefined() {
			src, err = in.ToString(pat)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		re, err = regex.Compile(regexQuote(src), "")
		if err != nil {
			return interp.Undefined(), in.SyntaxErrorf("%v", err)
		}
	}
	input := string(s)
	if !re.Global {
		m, err := runRegex(in, re, input, 0, "String.prototype.match")
		if err != nil {
			return interp.Undefined(), err
		}
		if m == nil {
			return interp.Null(), nil
		}
		return matchToArray(in, m), nil
	}
	out := in.NewArray(nil)
	at := 0
	for {
		m, err := runRegex(in, re, input, at, "String.prototype.match")
		if err != nil {
			return interp.Undefined(), err
		}
		if m == nil {
			break
		}
		out.AppendElem(interp.String(m.GroupString(0)))
		if m.Groups[0][1] == m.Groups[0][0] {
			at = m.Groups[0][0] + 1
		} else {
			at = m.Groups[0][1]
		}
		if at > len(s) {
			break
		}
	}
	if out.ArrayLength() == 0 {
		return interp.Null(), nil
	}
	return interp.ObjValue(out), nil
}

func stringSearch(in *interp.Interp, s []rune, this interp.Value, args []interp.Value) (interp.Value, error) {
	pat := arg(args, 0)
	re, ok, err := argRegex(in, pat)
	if err != nil {
		return interp.Undefined(), err
	}
	if !ok {
		src := ""
		if !pat.IsUndefined() {
			src, err = in.ToString(pat)
			if err != nil {
				return interp.Undefined(), err
			}
		}
		re, err = regex.Compile(regexQuote(src), "")
		if err != nil {
			return interp.Undefined(), in.SyntaxErrorf("%v", err)
		}
	}
	m, err := runRegex(in, re, string(s), 0, "String.prototype.search")
	if err != nil {
		return interp.Undefined(), err
	}
	if m == nil {
		return interp.Number(-1), nil
	}
	return interp.Number(float64(m.Groups[0][0])), nil
}

// matchToArray builds the exec-style result array for a match.
func matchToArray(in *interp.Interp, m *regex.Match) interp.Value {
	arr := in.NewArray(nil)
	for g := 0; g < len(m.Groups); g++ {
		if m.GroupMatched(g) {
			arr.AppendElem(interp.String(m.GroupString(g)))
		} else {
			arr.AppendElem(interp.Undefined())
		}
	}
	arr.SetSlot("index", interp.Number(float64(m.Groups[0][0])), interp.DefaultAttr)
	arr.SetSlot("input", interp.String(string(m.Input)), interp.DefaultAttr)
	return interp.ObjValue(arr)
}

// regexQuote escapes a literal string for use as a regex source.
func regexQuote(s string) string {
	var b strings.Builder
	for _, r := range s {
		if strings.ContainsRune(`\.+*?()|[]{}^$/`, r) {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	return b.String()
}
