package parser_test

import (
	"reflect"
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
)

// earlyErrorSamples are internal/campaign's early-error samples (its
// oracle_test.go): programs the resolver, not the parser, rejects.
var earlyErrorSamples = []string{
	"let a = 1; let a = 2; print(a);",
	"const c = 1; c = 2; print(c);",
	"x: { continue x; }",
	"x: x: while (true) { break; }",
	"try { print(1); } catch (e) { let e = 1; }",
	"for (let i = 0, i = 1; false; ) { }",
	"x: while (true) { break y; }",
	"function f(p) { let p = 1; } f(0);",
}

// strictOrderings place strict-only early errors against each other, hard
// syntax errors, lexer errors and "use strict" directives.
var strictOrderings = []string{
	// Each of the five strict-only sites alone.
	"var eval = 1;",
	"function eval() { return 1; }",
	"function f(arguments) { return 1; }",
	"try { f(); } catch (eval) { }",
	"function f(a, a) { return a; } print(f(1, 2));",
	"eval = 1;",
	"arguments += 1;",
	"var x = 1; delete x;",
	"print(010);",
	"print(09);",
	// A strict-only violation before and after a hard syntax error.
	"delete x; var = 1;",
	"var = 1; delete x;",
	"print(017); print(if);",
	"print(if); print(017);",
	// Inside and outside a "use strict" function.
	"function f() { 'use strict'; delete x; }",
	"function f() { 'use strict'; return 1; } delete x;",
	"delete x; function f() { 'use strict'; return 1; }",
	"function f() { 'use strict'; var g = () => { delete x; }; }",
	"function f() { 010; 'use strict'; } print(f());",
	"'use strict'; delete x;",
	"var o = { m() { 'use strict'; return 010; } };",
	"var f = () => delete x;",
	// Duplicate parameters after a body violation, and with the
	// function's own directive.
	"function f(a, a) { delete x; }",
	"function f(a, a) { 'use strict'; return a; }",
	"function f(a, a) { 'use strict'; delete x; }",
	"function f(a, a) { function g() { 'use strict'; } } print(010);",
	"print(010); function f(a, a) { 'use strict'; }",
	"function f(eval, a, a) { return a; }",
	// A lexer error after and before a violation.
	"delete x; var s = '\\xZZ';",
	"var s = '\\xZZ'; delete x;",
	"print(010); var s = 'open",
	"print(010); var s = `open",
	// Two violations: the first one wins.
	"print(010); delete x;",
	"delete x; print(010);",
	"eval = 1; var arguments;",
}

// TestParseModesMatchesStrict pins the derivation the scheduler's one
// front-end pass per program rests on: under every one of the 64 lenient
// option sets, ParseModes gives normal mode exactly ParseWith's result,
// and strict mode the same error as ParseWith under Strict — same
// message, position and LenientMayAccept — or a tree with the same node
// count that prints identically.
func TestParseModesMatchesStrict(t *testing.T) {
	srcs := append(lenientInputs(), lenientRejections...)
	srcs = append(srcs, earlyErrorSamples...)
	srcs = append(srcs, strictOrderings...)
	waived := 0
	for i, src := range srcs {
		for set := 0; set < 1<<len(lenientFlags); set++ {
			var opts parser.Options
			for f, flag := range lenientFlags {
				if set&(1<<f) != 0 {
					flag(&opts)
				}
			}
			m := parser.ParseModes(src, opts)
			wantNormal, errNormal := parser.ParseWith(src, opts)
			gotNormal, gotErr := m.Mode(false)
			if !reflect.DeepEqual(gotErr, errNormal) || !reflect.DeepEqual(gotNormal, wantNormal) {
				t.Fatalf("program %d under %+v: normal mode %v, ParseWith %v\n%s", i, opts, gotErr, errNormal, src)
			}
			strictOpts := opts
			strictOpts.Strict = true
			want, wantErr := parser.ParseWith(src, strictOpts)
			got, err := m.Mode(true)
			if set == 0 && err != nil && errNormal == nil {
				waived++
			}
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("program %d under %+v: strict mode %v, ParseWith %v\n%s", i, opts, err, wantErr, src)
			case err != nil:
				if err.Error() != wantErr.Error() || parser.LenientMayAccept(err) != parser.LenientMayAccept(wantErr) {
					t.Fatalf("program %d under %+v: strict mode %v (lenient %v), ParseWith %v (lenient %v)\n%s",
						i, opts, err, parser.LenientMayAccept(err), wantErr, parser.LenientMayAccept(wantErr), src)
				}
			case got.NodeCount != want.NodeCount || ast.Print(got) != ast.Print(want):
				t.Fatalf("program %d under %+v: strict mode's tree differs from ParseWith's\n%s", i, opts, src)
			}
		}
	}
	if waived < len(strictOrderings)/2 {
		t.Errorf("only %d programs parse in normal mode and fail in strict mode", waived)
	}
}
