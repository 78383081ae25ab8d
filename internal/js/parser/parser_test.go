package parser

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"comfort/internal/js/ast"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return prog
}

func TestParseStatements(t *testing.T) {
	valid := []string{
		`var x = 1;`,
		`let y = [1, 2, , 4];`,
		`const z = {a: 1, "b c": 2, 3: true, [k]: v};`,
		`function f(a, b, ...rest) { return a + b; }`,
		`var f = (x, y) => x * y;`,
		`var g = x => { return x; };`,
		`if (a) b(); else { c(); }`,
		`for (var i = 0; i < 10; i++) work(i);`,
		`for (var k in obj) print(k);`,
		`for (var v of list) print(v);`,
		`for (x of list) print(x);`,
		`while (cond) step();`,
		`do { step(); } while (cond);`,
		`switch (x) { case 1: a(); break; default: b(); }`,
		`try { risky(); } catch (e) { handle(e); } finally { done(); }`,
		`throw new Error("boom");`,
		`lbl: for (;;) { break lbl; }`,
		"var t = `a${x + 1}b`;",
		`var re = /ab+[c-f]/gi;`,
		`a.b.c[d](e, ...f);`,
		`new Foo(1)(2);`,
		`x = y = z;`,
		`a += 1, b -= 2;`,
		`var o = {get x() { return 1; }, set x(v) {}};`,
		`var m = {method() { return 1; }};`,
		`delete obj.prop;`,
		`void 0;`,
		`typeof undeclared;`,
		`x ?? y;`,
		`x ||= 5;`,
		`debugger;`,
		"x\n++y;", // ASI keeps these as two statements
	}
	for _, src := range valid {
		if _, err := Parse(src); err != nil {
			t.Errorf("should parse %q: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	invalid := []string{
		`var = 5;`,
		`function () {}`,
		`if (x {}`,
		`for (;false;)`,
		`return 1;`,
		`break;`,
		`continue;`,
		`switch (x) { default: a(); default: b(); }`,
		`try { x(); }`,
		`const c;`,
		`throw
5;`,
		`var x = ;`,
		`a b c`,
		`{`,
		`"unterminated`,
		`/unterminated`,
		`var class = 5;`,
	}
	for _, src := range invalid {
		if _, err := Parse(src); err == nil {
			t.Errorf("should reject %q", src)
		}
	}
}

func TestStrictModeEarlyErrors(t *testing.T) {
	strictInvalid := []string{
		`"use strict"; var x = 010;`,
		`"use strict"; function f(a, a) {}`,
		`"use strict"; var x = 1; delete x;`,
		`"use strict"; eval = 5;`,
		`"use strict"; arguments = 5;`,
	}
	for _, src := range strictInvalid {
		if _, err := Parse(src); err == nil {
			t.Errorf("strict mode should reject %q", src)
		}
		// The same programs parse under the matching leniency option.
		opts := Options{AllowLegacyOctal: true, AllowDuplicateParams: true,
			AllowSloppyDelete: true, AllowEvalArgumentsAssign: true}
		if _, err := ParseWith(src, opts); err != nil {
			t.Errorf("lenient options should accept %q: %v", src, err)
		}
	}
}

func TestEmptyForBodyOption(t *testing.T) {
	src := `for(;false;)`
	if _, err := Parse(src); err == nil {
		t.Fatal("bodyless for must be a SyntaxError by default")
	}
	if _, err := ParseWith(src, Options{AllowEmptyForBody: true}); err != nil {
		t.Fatalf("AllowEmptyForBody should accept it: %v", err)
	}
}

// TestPrintRoundTrip is the core printer property: parse → print → parse
// must converge (print of the reparse equals the first print).
func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		`function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
print(foo(s, 6, undefined));`,
		`var a = [1, [2, 3], {x: {y: -1}}];
for (var i = 0; i < a.length; i++) {
  if (i % 2 === 0) print(a[i]); else continue;
}`,
		`var f = function(a) { return a ? -a : +a; };
print(f(1), f(0), typeof f, 1 + 2 * 3 ** 2, (1 + 2) * 3);`,
		`try { throw {code: 1}; } catch (e) { print(e.code); } finally {}
switch (2) { case 1: case 2: print("two"); break; default: print("other"); }`,
		"var t = `x=${1 + 2} y=${\"s\"}`;\nprint(t, /a[b-d]+/im.source);",
		// A trailing hole keeps its own comma: the print of [3, ,] once
		// lost it and reparsed as [3], an array of length 1, not 2.
		`print([3, ,].length, [,].length, [1, , 2].length);`,
	}
	for _, src := range srcs {
		p1 := mustParse(t, src)
		out1 := ast.Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("printed output does not reparse: %v\n%s", err, out1)
		}
		out2 := ast.Print(p2)
		if out1 != out2 {
			t.Errorf("print not a fixpoint:\n-- first --\n%s\n-- second --\n%s", out1, out2)
		}
	}
}

func TestNodeIDsUniqueAndDense(t *testing.T) {
	prog := mustParse(t, `function f(x) { return x ? f(x - 1) : 0; } print(f(3));`)
	seen := map[int]bool{}
	ast.Walk(prog, func(n ast.Node) bool {
		if n.ID() == 0 {
			t.Errorf("node %T has no ID", n)
		}
		if seen[n.ID()] {
			t.Errorf("duplicate node ID %d on %T", n.ID(), n)
		}
		seen[n.ID()] = true
		return true
	})
	if len(seen) > prog.NodeCount {
		t.Errorf("NodeCount %d < walked nodes %d", prog.NodeCount, len(seen))
	}
}

// TestParserNeverPanics drives the parser with random byte soup and random
// mutations of valid programs: it must return (program, nil) or (nil, err),
// never panic.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seeds := []string{
		`var x = 1; function f(a) { return a + x; } print(f(2));`,
		`for (var i = 0; i < 3; i++) { print([1,2][i], "s".substr(i)); }`,
	}
	alphabet := `abcxyz01(){}[];,."'+-*/%=<>!&|?:` + "`\n \\$"
	for i := 0; i < 3000; i++ {
		var src string
		if i%2 == 0 {
			b := []byte(seeds[rng.Intn(len(seeds))])
			for j := 0; j < 4; j++ {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
			src = string(b)
		} else {
			n := rng.Intn(60)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			src = sb.String()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestNumericLiteralProperty checks the numeric-literal parser against the
// printer using testing/quick.
func TestNumericLiteralProperty(t *testing.T) {
	f := func(u uint32) bool {
		v := float64(u)
		prog, err := Parse("print(" + ast.Print(&ast.NumberLit{Value: v}) + ");")
		if err != nil {
			return false
		}
		var got float64
		found := false
		ast.Walk(prog, func(n ast.Node) bool {
			if lit, ok := n.(*ast.NumberLit); ok {
				got = lit.Value
				found = true
			}
			return true
		})
		return found && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
