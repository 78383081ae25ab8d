package parser_test

import (
	"math/rand"
	"reflect"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/parser"
)

// lenientFlags sets the i-th lenient option: every Options field except
// Strict. TestLenientOptionsOnlyAccept checks that the list is complete.
var lenientFlags = []func(*parser.Options){
	func(o *parser.Options) { o.AllowEmptyForBody = true },
	func(o *parser.Options) { o.AllowDuplicateParams = true },
	func(o *parser.Options) { o.AllowLegacyOctal = true },
	func(o *parser.Options) { o.AllowReservedIdent = true },
	func(o *parser.Options) { o.AllowSloppyDelete = true },
	func(o *parser.Options) { o.AllowEvalArgumentsAssign = true },
}

// lenientInputs is the corpus, every catalog witness and a fixed stream
// of 300 cases from each of the six fuzzers.
func lenientInputs() []string {
	srcs := append([]string(nil), corpus.Programs()...)
	for _, d := range engines.Catalog() {
		srcs = append(srcs, d.Witness)
	}
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(300 + fi)))
		n := 0
		for n < 300 {
			batch := f.Next(rng)
			if len(batch) == 0 {
				break
			}
			if len(batch) > 300-n {
				batch = batch[:300-n]
			}
			srcs = append(srcs, batch...)
			n += len(batch)
		}
	}
	return srcs
}

// TestLenientOptionsOnlyAccept pins the fact the scheduler's base parse
// rests on (engines.PreparedTestbed.TakesBaseParse): lenient
// parser options only accept more. A program that parses under a mode's
// base options, Options{Strict}, parses to a deeply equal tree — node IDs
// included — under every one of the 64 lenient option sets of that mode,
// and a program the base options reject at a site no lenient option
// decides (parser.LenientMayAccept false) fails with the same error under
// every one of them.
func TestLenientOptionsOnlyAccept(t *testing.T) {
	if n := reflect.TypeOf(parser.Options{}).NumField(); n != len(lenientFlags)+1 {
		t.Fatalf("parser.Options has %d fields, lenientFlags covers %d plus Strict — extend lenientFlags",
			n, len(lenientFlags))
	}
	srcs := append(lenientInputs(), lenientRejections...)
	for _, strict := range []bool{false, true} {
		parsed, waivable := 0, 0
		for i, src := range srcs {
			base, baseErr := parser.ParseWith(src, parser.Options{Strict: strict})
			switch {
			case baseErr == nil:
				parsed++
			case parser.LenientMayAccept(baseErr):
				waivable++
				continue
			}
			for set := 1; set < 1<<len(lenientFlags); set++ {
				opts := parser.Options{Strict: strict}
				for f, flag := range lenientFlags {
					if set&(1<<f) != 0 {
						flag(&opts)
					}
				}
				got, err := parser.ParseWith(src, opts)
				if !reflect.DeepEqual(err, baseErr) {
					t.Fatalf("strict=%v program %d: base parse error %v, under %+v %v\n%s",
						strict, i, baseErr, opts, err, src)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("strict=%v program %d: %+v changes the tree of a program the base options accept\n%s",
						strict, i, opts, src)
				}
			}
		}
		if parsed < len(srcs)/2 || waivable == 0 {
			t.Errorf("strict=%v: %d of %d programs parse under the base options, %d fail at a lenient site",
				strict, parsed, len(srcs), waivable)
		}
	}
}

// lenientRejections are programs the base options reject, some at a
// lenient site and some elsewhere.
var lenientRejections = []string{
	"var = broken(",
	"for (;;)",
	"var class = 1; print(class);",
	"print(if);",
	"function f(a, a) { 'use strict'; return a; } print(f(1, 2));",
	"'use strict'; var x = 1; delete x;",
	"'use strict'; eval = 1;",
	"'use strict'; print(017);",
	"'use strict'; print(017 +);",
	// Duplicate parameters no mode and no lenient option allows: arrow
	// and method parameters, and a list with a rest parameter; alone and
	// after a strict-only violation.
	"var f = (a, a) => a; print(f(1, 2));",
	"var o = { m(a, a) { return a; } };",
	"function f(a, ...a) { return a; }",
	"var f = (a, ...a) => a;",
	"delete x; var f = (b, c, b) => b;",
	// eval and arguments bound by a function whose own directive makes
	// its parameters and name strict code.
	"function f(eval) { 'use strict'; return eval; } print(f(3));",
	"function arguments() { 'use strict'; }",
	"var o = { m(a, eval) { 'use strict'; } };",
	"print(010); var f = (arguments) => { 'use strict'; };",
	// A "use strict" directive in a function whose parameter list is not
	// simple, in any form of function.
	"function f(...a) { 'use strict'; return a.length; } print(f(1, 2));",
	"var f = (...a) => { 'use strict'; };",
	"var o = { m(a, ...b) { 'x'; 'use strict'; } };",
	"print(010); (function (...a) { 'use strict'; });",
	// Accessors whose parameter lists the grammar does not allow.
	"var o = { set x(a, b) {} }; print(1);",
	"var o = { get x(a) { return 1; } }; print(o.x);",
	"var o = { set x(...a) {} };",
	"print(010); var o = { set x() {} };",
}
