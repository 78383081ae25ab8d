package analyze

import (
	"strings"
	"testing"

	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// mustAnalyze parses and resolves src, then analyzes it.
func mustAnalyze(t *testing.T, src string) *Report {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	resolve.Program(prog)
	return Analyze(prog)
}

// earlyErrorCases is TestEarlyErrors' table.
var earlyErrorCases = []struct {
	name string
	src  string
	kind string // "" = expect no early error
}{
	// Duplicate lexical declarations.
	{"dup let", `let a; let a;`, "dup-decl"},
	{"dup const", `const a = 1; const a = 2;`, "dup-decl"},
	{"let then var", `let a; var a;`, "dup-decl"},
	{"var then let", `var a; let a;`, "dup-decl"},
	{"let then block var", `let a; { var a; }`, "dup-decl"},
	{"block var then let", `{ var a; } let a;`, "dup-decl"},
	{"let vs function decl", `let f; function f() {}`, "dup-decl"},
	{"param vs body let", `function f(a) { let a; } f(1);`, "dup-decl"},
	{"catch param vs let", `try { } catch (e) { let e; }`, "dup-decl"},
	{"for head dup", `for (let i = 0, i = 1;;) break;`, "dup-decl"},
	{"switch shared scope", `switch (1) { case 1: let a; case 2: let a; }`, "dup-decl"},
	{"dup var ok", `var a; var a;`, ""},
	{"param vs body var ok", `function f(a) { var a; } f(1);`, ""},
	{"catch param vs var ok", `try { } catch (e) { var e; }`, ""},
	{"block shadow ok", `let a; { let a; }`, ""},
	{"fn var vs block let ok", `function f() { var a; { let a; } } f();`, ""},
	{"sibling blocks ok", `{ let a; } { let a; }`, ""},
	{"inner fn own scope ok", `let a; function f() { var a; } f();`, ""},

	// Labels.
	{"undefined break label", `lbl: { break lbl2; }`, "undefined-label"},
	{"undefined continue label", `for (var i = 0; i < 1; i++) { continue nope; }`, "undefined-label"},
	{"continue to non-loop", `lbl: { continue lbl; }`, "continue-not-loop"},
	{"dup nested label", `l: l: print(1);`, "dup-label"},
	{"label ok", `lbl: { break lbl; }`, ""},
	{"continue loop label ok", `lbl: for (var i = 0; i < 2; i++) { continue lbl; }`, ""},
	{"label chain continue ok", `a: b: while (false) { continue a; }`, ""},
	{"label out of scope", `l: print(1); for (;;) { break l; }`, "undefined-label"},
	{"label not across fn", `l: { (function () { break l; })(); }`, "undefined-label"},

	// Const writes.
	{"const assign", `const c = 1; c = 2;`, "const-assign"},
	{"const compound", `const c = 1; c += 1;`, "const-assign"},
	{"const update", `const c = 1; c++;`, "const-assign"},
	{"const in function", `function f() { const c = 1; c = 2; } f();`, "const-assign"},
	{"const for-in target", `const c = 1; for (c in {a: 1}) print(c);`, "const-assign"},
	{"outer const inner fn", `const c = 1; function f() { c = 2; } f();`, "const-assign"},
	{"shadowed const ok", `const c = 1; function f() { var c; c = 2; } f();`, ""},
	{"hoisted var shadow ok", `const c = 1; function f() { c = 2; var c; } f();`, ""},
	{"param shadow ok", `const c = 1; function f(c) { c = 2; } f(0);`, ""},
	{"write before const ok", `c = 2; const c = 1;`, ""},
	{"global write ok", `c = 2; print(c);`, ""},
	{"const read ok", `const c = 1; print(c + 1);`, ""},
	{"member write ok", `const c = {}; c.x = 1;`, ""},
	{"eval relaxes globals", `eval("1"); const c = 1; c = 2;`, ""},
	{"eval keeps locals", `eval("1"); function f() { const c = 1; c = 2; } f();`, "const-assign"},
}

func TestEarlyErrors(t *testing.T) {
	for _, tc := range earlyErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustAnalyze(t, tc.src)
			first := rep.FirstError()
			if tc.kind == "" {
				if first != nil {
					t.Fatalf("unexpected early error %v for %q", *first, tc.src)
				}
				return
			}
			if first == nil {
				t.Fatalf("expected %s early error for %q, got none", tc.kind, tc.src)
			}
			if first.Kind != tc.kind {
				t.Fatalf("expected %s, got %s (%s) for %q", tc.kind, first.Kind, first.Msg, tc.src)
			}
			if !strings.HasPrefix(first.Render(), "SyntaxError: ") {
				t.Fatalf("early error must render as a SyntaxError: %q", first.Render())
			}
		})
	}
}

// Rules the parser owns (and defect parser options can relax) must stay
// out of the analyzer, or enforcing them here would mask seeded parser
// defects like AllowDuplicateParams testbeds.
func TestParserOwnedRulesNotDuplicated(t *testing.T) {
	prog, err := parser.ParseWith(`function f(a, a) { print(a); } f(1, 2);`, parser.Options{})
	if err != nil {
		t.Fatalf("sloppy duplicate params must parse: %v", err)
	}
	resolve.Program(prog)
	if rep := Analyze(prog); rep.Invalid() {
		t.Fatalf("duplicate params are the parser's rule, analyzer reported %v", rep.EarlyErrors)
	}
}

func TestEarlyErrorOrderDeterministic(t *testing.T) {
	src := `let a; let a; const c = 1; c = 2;`
	rep := mustAnalyze(t, src)
	if len(rep.EarlyErrors) != 2 {
		t.Fatalf("expected 2 early errors, got %v", rep.EarlyErrors)
	}
	if rep.EarlyErrors[0].Kind != "dup-decl" || rep.EarlyErrors[1].Kind != "const-assign" {
		t.Fatalf("source order violated: %v", rep.EarlyErrors)
	}
}

func TestDivergenceFlags(t *testing.T) {
	cases := []struct {
		src  string
		want string // flag name, "" = none
	}{
		{`print(Math.random());`, "math-random"},
		{`print(Date.now());`, "date"},
		{`var d = new Date(); print(1);`, "date"},
		{`var d = new Date(0); print(1);`, ""},
		{`for (var k in {a: 1}) print(k);`, "for-in-order"},
		{`for (var v of [1, 2]) print(v);`, ""},
		{`function f(n) { return n <= 0 ? 0 : f(n - 1); } print(f(3));`, "recursion"},
		{`print(0.30000000000000004);`, "float-format"},
		{`print(0.5);`, ""},
		{`print(Math.floor(1.5));`, ""},
	}
	for _, tc := range cases {
		rep := mustAnalyze(t, tc.src)
		names := strings.Join(rep.Flags.Names(), ",")
		if tc.want == "" {
			if rep.Flags.Any() {
				t.Errorf("%q: unexpected flags %s", tc.src, names)
			}
			continue
		}
		if !strings.Contains(names, tc.want) {
			t.Errorf("%q: expected flag %s, got [%s]", tc.src, tc.want, names)
		}
	}
}

func TestFeatureFingerprint(t *testing.T) {
	rep := mustAnalyze(t, `
let a = [1, "two", true, null];
const o = {get x() { return 1; }};
function f(n) { return n; }
for (var i = 0; i < 2; i++) { if (i in o) continue; }
try { throw new Error("e"); } catch (e) { print(typeof e); }
print(f(a[0]) + o.x);`)
	for _, want := range []Features{
		FeatLet, FeatConst, FeatVar, FeatFunction, FeatReturn, FeatFor,
		FeatIf, FeatContinue, FeatTry, FeatCatch, FeatThrow, FeatNew,
		FeatTypeof, FeatIn, FeatAccessor, FeatMember, FeatCall, FeatObject,
		FeatArray, FeatString, FeatNumber, FeatBool, FeatNull, FeatUpdate,
	} {
		if !rep.Features.Has(want) {
			t.Errorf("missing feature %s in %v", Features(want).Names(), rep.Features.Names())
		}
	}
	for _, absent := range []Features{FeatArrow, FeatSwitch, FeatForIn, FeatStrict, FeatEval} {
		if rep.Features.Has(absent) {
			t.Errorf("unexpected feature %s", Features(absent).Names())
		}
	}
	if rep.Features.Count() != len(rep.Features.Names()) {
		t.Errorf("Count/Names disagree: %d vs %d", rep.Features.Count(), len(rep.Features.Names()))
	}
	if got := len(featureNames); got != FeatureCount {
		t.Fatalf("feature name table out of sync: %d names, %d bits", got, FeatureCount)
	}
	for i, n := range featureNames {
		if n == "" {
			t.Fatalf("feature bit %d has no name", i)
		}
	}
}

func TestShadowingFeature(t *testing.T) {
	if rep := mustAnalyze(t, `let a = 1; { let a = 2; print(a); }`); !rep.Features.Has(FeatShadowing) {
		t.Error("block shadowing not fingerprinted")
	}
	if rep := mustAnalyze(t, `let a = 1; print(a);`); rep.Features.Has(FeatShadowing) {
		t.Error("spurious shadowing bit")
	}
}

func TestAttachOnce(t *testing.T) {
	prog, err := parser.Parse(`let a; let a;`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if Of(prog) != nil {
		t.Fatal("fresh parse must carry no report")
	}
	rep := Program(prog)
	if rep == nil || !rep.Invalid() {
		t.Fatal("attach must compute the report")
	}
	if Of(prog) != rep || Program(prog) != rep {
		t.Fatal("attach must be idempotent and Of must return the cached report")
	}
}
