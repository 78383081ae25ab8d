package analyze_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/analyze"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// earlyErrorSamples are internal/campaign's early-error samples (its
// oracle_test.go), the programs that drive the early-error gate there.
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

// oracleCases is the number of cases drawn from each fuzzer.
const oracleCases = 20000

// TestEarlyErrorOracle compares the report Analyze builds from the
// resolver's verdict with the old early-error pass, which walks a scope
// model of its own: the early errors (kind, message, position and order)
// and the feature bits, shadowing included, must agree on every program
// of the corpus, the catalog witnesses, TestEarlyErrors' table, the
// early-error samples and each fuzzer's first 20,000 seed-1 cases, parsed
// in both modes.
func TestEarlyErrorOracle(t *testing.T) {
	var programs, rejected, shadowing int
	check := func(set string, i int, src string) {
		for _, strict := range []bool{false, true} {
			prog, err := parser.ParseWith(src, parser.Options{Strict: strict})
			if err != nil {
				continue
			}
			resolve.Program(prog)
			got := analyze.Analyze(prog)
			want := analyze.ReferenceAnalyze(prog)
			if g, w := fmt.Sprint(got.EarlyErrors), fmt.Sprint(want.EarlyErrors); g != w {
				t.Fatalf("%s case %d (strict %v): early errors differ\nresolver:  %s\nreference: %s\nprogram:\n%s",
					set, i, strict, g, w, src)
			}
			if got.Features != want.Features || got.Flags != want.Flags {
				t.Fatalf("%s case %d (strict %v): features differ\nresolver:  %v %v\nreference: %v %v\nprogram:\n%s",
					set, i, strict, got.Features.Names(), got.Flags.Names(), want.Features.Names(), want.Flags.Names(), src)
			}
			programs++
			if got.Invalid() {
				rejected++
			}
			if got.Features.Has(analyze.FeatShadowing) {
				shadowing++
			}
		}
	}
	for i, src := range corpus.Programs() {
		check("corpus", i, src)
	}
	for i, d := range engines.Catalog() {
		check("witness", i, d.Witness)
	}
	for i, src := range analyze.EarlyErrorCaseSources() {
		check("TestEarlyErrors", i, src)
	}
	for i, src := range earlyErrorSamples {
		check("early-error-samples", i, src)
	}
	for _, f := range fuzzers.All() {
		for i, src := range firstCases(f, 1, oracleCases) {
			check(f.Name(), i, src)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < oracleCases; i++ {
		check("scope programs", i, scopeProgram(rng))
	}
	t.Logf("%d programs compared: %d with early errors, %d with shadowing", programs, rejected, shadowing)
	if rejected < 1000 || shadowing < 1000 {
		t.Fatalf("only %d rejected and %d shadowing programs; the oracle lost its teeth", rejected, shadowing)
	}
}

// firstCases returns f's first n cases at campaign seed seed, drawn the
// way internal/campaign's generator draws them (TestCaseStreamsPinned
// hashes that stream): a forkable fuzzer seeds one RNG per batch, any
// other advances one RNG seeded with seed.
func firstCases(f fuzzers.Fuzzer, seed int64, n int) []string {
	var out []string
	next := func(rng *rand.Rand) bool {
		batch := f.Next(rng)
		out = append(out, batch...)
		return len(batch) > 0 && len(out) < n
	}
	if fk, ok := f.(fuzzers.Forkable); ok {
		f = fk.Fork(batchSeed(seed, -1))
		rng := rand.New(rand.NewSource(0))
		for j := 0; ; j++ {
			rng.Seed(batchSeed(seed, j))
			if !next(rng) {
				break
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for next(rng) {
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// batchSeed is internal/campaign's per-batch seed derivation.
func batchSeed(seed int64, j int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(j+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// scopeProgram draws a small random program over the constructs the early
// rules look at: declarations of every kind over a three-name pool, writes,
// nested blocks, brace-less bodies, loops with each kind of head, switch,
// try/catch, labels, hoisted and expression functions, and eval. The
// fuzzers rarely write such programs, so they give the oracle its teeth.
func scopeProgram(rng *rand.Rand) string {
	g := &scopeGen{rng: rng}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		g.stmt(3)
	}
	return g.b.String()
}

type scopeGen struct {
	rng *rand.Rand
	b   strings.Builder
}

func (g *scopeGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }
func (g *scopeGen) name() string               { return g.pick("a", "b", "c") }
func (g *scopeGen) w(parts ...string) {
	for _, p := range parts {
		g.b.WriteString(p)
	}
}

func (g *scopeGen) stmts(depth int) {
	for n := g.rng.Intn(3); n > 0; n-- {
		g.stmt(depth)
	}
}

func (g *scopeGen) stmt(depth int) {
	k := g.rng.Intn(20)
	if depth <= 0 {
		k %= 5
	}
	switch k {
	case 0, 1:
		g.w(g.pick("var ", "let ", "const "), g.name(), " = ")
		g.expr(depth)
		g.w("; ")
	case 2:
		g.w(g.name(), g.pick(" = ", " += "))
		g.expr(depth)
		g.w("; ")
	case 3:
		g.w(g.name(), g.pick("++; ", "--; "))
	case 4:
		g.w(g.pick("break; ", "continue; ", "break L; ", "continue M; ", "return; ", "eval(\"1\"); ", "print(a); "))
	case 5, 6:
		g.w("{ ")
		g.stmts(depth - 1)
		g.w("} ")
	case 7:
		g.w("if (a) ")
		g.stmt(depth - 1)
		if g.rng.Intn(2) == 0 {
			g.w("else ")
			g.stmt(depth - 1)
		}
	case 8:
		g.w("for (", g.pick("var ", "let ", "const ", ""), g.name(), " = 0; ", g.pick("a", ""), "; ", g.pick("b++", ""), ") ")
		g.stmt(depth - 1)
	case 9:
		g.w("for (", g.pick("var ", "let ", "const ", ""), g.name(), g.pick(" in ", " of "), "[1]) ")
		g.stmt(depth - 1)
	case 10:
		g.w("for (;;) ")
		g.stmt(depth - 1)
	case 11:
		g.w(g.pick("while (a) ", "do "))
		g.stmt(depth - 1)
		g.w(g.pick("", "while (b); "))
	case 12:
		g.w("switch (a) { case ")
		g.expr(depth - 1)
		g.w(": ")
		g.stmts(depth - 1)
		g.w("default: ")
		g.stmts(depth - 1)
		g.w("} ")
	case 13:
		g.w("try { ")
		g.stmts(depth - 1)
		g.w("} catch (", g.name(), ") { ")
		g.stmts(depth - 1)
		g.w("} ", g.pick("", "finally { b = 1; } "))
	case 14, 15:
		g.w(g.pick("L: ", "M: ", "L: M: "))
		g.stmt(depth - 1)
	case 16, 17:
		g.w("function ", g.name(), "(", g.pick("", "a", "b, c"), ") { ")
		g.stmts(depth - 1)
		g.w("} ")
	default:
		g.expr(depth)
		g.w("; ")
	}
}

func (g *scopeGen) expr(depth int) {
	k := g.rng.Intn(6)
	if depth <= 0 {
		k %= 2
	}
	switch k {
	case 0:
		g.w(g.name())
	case 1:
		g.w("1")
	case 2:
		g.w("function (", g.pick("", "a", "b"), ") { ")
		g.stmts(depth - 1)
		g.w("}")
	case 3:
		g.w("(", g.pick("", "a", "c"), ") => ")
		g.expr(depth - 1)
	case 4:
		g.w("(", g.name(), " = ")
		g.expr(depth - 1)
		g.w(")")
	default:
		g.w(g.pick("eval", "f"), "(")
		g.expr(depth - 1)
		g.w(")")
	}
}
