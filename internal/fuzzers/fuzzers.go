// Package fuzzers implements COMFORT plus faithful-in-kind reimplementations
// of the five baseline fuzzers the paper compares against (Figure 8/9):
// DeepSmith (short-context neural generation), Fuzzilli (typed-IL mutation
// with lifting), CodeAlchemist (constraint-respecting code-brick assembly),
// DIE (aspect-preserving seed mutation) and Montage (neural AST-subtree
// replacement).
package fuzzers

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"unicode/utf8"

	"comfort/internal/corpus"
	"comfort/internal/gen"
	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
	"comfort/internal/lm"
	"comfort/internal/spec"
	"comfort/internal/testgen"
)

// Fuzzer produces test-case sources.
type Fuzzer interface {
	Name() string
	// Next returns the next batch of test cases (a generated program plus
	// any derived data-mutated variants).
	Next(rng *rand.Rand) []string
}

// Forkable marks fuzzers whose Next is a pure function of the rng passed
// in — no internal state evolves across calls — so a campaign may run
// several generator shards concurrently, each shard deriving its batches'
// RNGs from (campaign seed, batch index). Fork returns an independent
// handle for one shard; forks share the expensive immutable state (trained
// models, mined bricks, seed pools) and must be safe to drive from
// different goroutines. shardSeed is entropy for any shard-local scratch a
// future implementation needs; the current pure fuzzers ignore it.
//
// Fuzzers whose strategy is inherently sequential — DIE's class grows a
// mutation corpus from its own output and Montage's subtree inventory
// evolves with the seeds it has consumed — do not implement Forkable and
// automatically stay on the campaign's serial generation path.
type Forkable interface {
	Fuzzer
	Fork(shardSeed int64) Fuzzer
}

// constructors lists the six fuzzers of the paper's comparison under
// their Name(), in All's order. ByName builds only the fuzzer it returns:
// the LM-backed ones train a model on construction.
var constructors = []struct {
	name string
	new  func() Fuzzer
}{
	{"COMFORT", func() Fuzzer { return NewComfort() }},
	{"DIE", func() Fuzzer { return NewDIE() }},
	{"Fuzzilli", func() Fuzzer { return NewFuzzilli() }},
	{"Montage", func() Fuzzer { return NewMontage() }},
	{"DeepSmith", func() Fuzzer { return NewDeepSmith() }},
	{"CodeAlchemist", func() Fuzzer { return NewCodeAlchemist() }},
}

// All instantiates the six fuzzers of the paper's comparison.
func All() []Fuzzer {
	out := make([]Fuzzer, len(constructors))
	for i, c := range constructors {
		out[i] = c.new()
	}
	return out
}

// ByName resolves a fuzzer name case-insensitively to a fresh instance.
func ByName(name string) (Fuzzer, bool) {
	for _, c := range constructors {
		if strings.EqualFold(c.name, name) {
			return c.new(), true
		}
	}
	return nil, false
}

// ---------- COMFORT ----------

// Comfort couples the GPT-2-substitute generator with ECMA-262-guided data
// generation (the full pipeline of the paper's Figure 3).
type Comfort struct {
	pipeline *gen.Pipeline
	db       *spec.DB
}

// comfortLM holds the process-wide generator. The embedded corpus is
// immutable and a trained Generator is read-only after construction (Fork
// already shares it across campaign shards), so every Comfort in the
// process can share one training run — repeated campaign construction
// (CLI re-runs in one process, the throughput benchmarks, test suites)
// stops paying BPE + n-gram training per instance.
var comfortLM struct {
	once sync.Once
	g    *lm.Generator
}

// NewComfort trains the generator on the embedded corpus (once per
// process).
func NewComfort() *Comfort {
	comfortLM.once.Do(func() {
		comfortLM.g = lm.Train(corpus.Programs(), corpus.Headers(),
			lm.Config{Arch: lm.ArchGPT2})
	})
	return &Comfort{pipeline: gen.New(comfortLM.g), db: spec.Default()}
}

// Name implements Fuzzer.
func (c *Comfort) Name() string { return "COMFORT" }

// Fork implements Forkable: Next reads only the trained pipeline and the
// spec database, both immutable after construction, so shards share them.
func (c *Comfort) Fork(shardSeed int64) Fuzzer {
	return &Comfort{pipeline: c.pipeline.Fork(), db: c.db}
}

// Next generates a program and its spec-guided data variants.
func (c *Comfort) Next(rng *rand.Rand) []string {
	p := c.pipeline.Next(rng)
	out := []string{p.Source}
	if p.Valid {
		for _, v := range testgen.Mutate(p.Source, c.db, rng, testgen.Options{MaxVariants: 8, RandomExtra: 3}) {
			out = append(out, v.Source)
		}
	}
	return out
}

// GenerateOnly returns just the LM output (used by the quality metrics,
// which evaluate program generation in isolation).
func (c *Comfort) GenerateOnly(rng *rand.Rand) string { return c.pipeline.Gen.Generate(rng) }

// ---------- DeepSmith ----------

// DeepSmith is the LSTM-based generative baseline: same corpus, short
// context, no specification guidance.
type DeepSmith struct {
	gen *lm.Generator
}

// NewDeepSmith trains the short-context model.
func NewDeepSmith() *DeepSmith {
	return &DeepSmith{gen: lm.Train(corpus.Programs(), corpus.Headers(),
		lm.Config{Arch: lm.ArchLSTM})}
}

// Name implements Fuzzer.
func (d *DeepSmith) Name() string { return "DeepSmith" }

// Fork implements Forkable: the trained generator is immutable and
// sampling is read-only, so shards share it.
func (d *DeepSmith) Fork(shardSeed int64) Fuzzer { return &DeepSmith{gen: d.gen} }

// Next implements Fuzzer.
func (d *DeepSmith) Next(rng *rand.Rand) []string {
	return []string{d.gen.Generate(rng)}
}

// ---------- DIE ----------

// DIE mutates corpus seeds while preserving their "aspects": the structure
// and the types of literals are kept, only the values change.
type DIE struct {
	seeds      []string
	numberPool []float64
	stringPool []string
}

// NewDIE uses the embedded corpus as its seed pool (the paper feeds the
// baselines their publication seed sets; ours share the corpus so the
// comparison isolates strategy, not data). Replacement values are harvested
// from the corpus itself — DIE's aspect-preserving mutation reuses values
// observed in other seeds rather than inventing boundary probes.
func NewDIE() *DIE {
	d := &DIE{seeds: corpus.Programs()}
	seenN := map[float64]bool{}
	seenS := map[string]bool{}
	for _, p := range d.seeds {
		prog, err := parser.Parse(p)
		if err != nil {
			continue
		}
		ast.Walk(prog, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.NumberLit:
				if !seenN[v.Value] {
					seenN[v.Value] = true
					d.numberPool = append(d.numberPool, v.Value)
				}
			case *ast.StringLit:
				if !seenS[v.Value] && len(v.Value) < 24 {
					seenS[v.Value] = true
					d.stringPool = append(d.stringPool, v.Value)
				}
			}
			return true
		})
	}
	return d
}

// Name implements Fuzzer.
func (d *DIE) Name() string { return "DIE" }

// Next implements Fuzzer.
func (d *DIE) Next(rng *rand.Rand) []string {
	seed := d.seeds[rng.Intn(len(d.seeds))]
	prog, err := parser.Parse(seed)
	if err != nil {
		return []string{seed}
	}
	d.mutateLiterals(prog, rng)
	return []string{textCorrupt(ast.Print(prog), rng, 0.45)}
}

// mutateLiterals performs the aspect-preserving value mutation using the
// corpus-harvested value pools.
func (d *DIE) mutateLiterals(prog *ast.Program, rng *rand.Rand) {
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.NumberLit:
			if rng.Intn(3) == 0 && len(d.numberPool) > 0 {
				v.Value = d.numberPool[rng.Intn(len(d.numberPool))]
				v.Raw = ""
			}
		case *ast.StringLit:
			if rng.Intn(3) == 0 && len(d.stringPool) > 0 {
				v.Value = d.stringPool[rng.Intn(len(d.stringPool))]
			}
		case *ast.BoolLit:
			if rng.Intn(3) == 0 {
				v.Value = !v.Value
			}
		}
		return true
	})
}

// ---------- CodeAlchemist ----------

// CodeAlchemist assembles test cases from corpus code bricks under def-use
// constraints: a brick is only placed when the variables it uses are
// already defined.
type CodeAlchemist struct {
	bricks []brick
}

type brick struct {
	src     string
	defines []string
	uses    []string
}

// NewCodeAlchemist mines bricks from the corpus.
func NewCodeAlchemist() *CodeAlchemist {
	var bricks []brick
	for _, frag := range corpus.Fragments() {
		b, ok := mineBrick(frag)
		if ok {
			bricks = append(bricks, b)
		}
	}
	return &CodeAlchemist{bricks: bricks}
}

// mineBrick parses a fragment as a statement and extracts its def/use
// sets with proper scoping: defines are the names the brick hoists into
// the scope it is placed in (top-level var/function declarations, all of
// them hoisted regardless of pre-order position), and uses are the free
// identifiers — names bound only inside a nested function do NOT leak
// into the brick-wide environment. A flat walk-order analysis treats such
// inner bindings as brick-wide defines, so assembled programs "use"
// variables that were never defined, inflating invalid output beyond the
// modeled textCorrupt rate.
func mineBrick(frag string) (brick, bool) {
	prog, err := parser.Parse(frag)
	if err != nil || len(prog.Body) != 1 {
		return brick{}, false
	}
	b := brick{src: frag}
	top := &scope{bound: map[string]bool{}}
	b.defines = hoistedBindings(prog, top.bound)
	seenUse := map[string]bool{}
	freeIdents(prog, top, func(name string) {
		if !seenUse[name] {
			seenUse[name] = true
			b.uses = append(b.uses, name)
		}
	})
	return b, true
}

// scope is one function (or catch) scope in a brick's binding chain.
type scope struct {
	bound  map[string]bool
	parent *scope
}

func (s *scope) has(name string) bool {
	for c := s; c != nil; c = c.parent {
		if c.bound[name] {
			return true
		}
	}
	return false
}

// hoistedBindings collects the names bound in the function scope rooted at
// n — var/let/const declarators, for-in declarations and function
// declarations — without descending into nested function bodies. It fills
// bound and returns the names in first-appearance order.
func hoistedBindings(n ast.Node, bound map[string]bool) []string {
	var names []string
	add := func(name string) {
		if name != "" && !bound[name] {
			bound[name] = true
			names = append(names, name)
		}
	}
	ast.Walk(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.VarDecl:
			for _, d := range v.Decls {
				add(d.Name)
			}
		case *ast.ForInStmt:
			if v.Decl >= 0 {
				add(v.Name)
			}
		case *ast.FuncDecl:
			if v.Fn != nil {
				add(v.Fn.Name)
			}
			return false // the body is a nested scope
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return names
}

// freeIdents reports every identifier not bound by any enclosing scope
// within the brick (and not a well-known global). Function literals open a
// child scope holding their params, own name and hoisted body bindings;
// catch clauses scope their parameter over the catch block only.
func freeIdents(n ast.Node, sc *scope, report func(string)) {
	switch v := n.(type) {
	case *ast.FuncLit:
		inner := map[string]bool{}
		for _, p := range v.Params {
			inner[p] = true
		}
		if v.Rest != "" {
			inner[v.Rest] = true
		}
		if v.Name != "" {
			inner[v.Name] = true
		}
		if v.Body != nil {
			hoistedBindings(v.Body, inner)
		}
		child := &scope{bound: inner, parent: sc}
		for _, c := range ast.Children(v) {
			freeIdents(c, child, report)
		}
		return
	case *ast.TryStmt:
		freeIdents(v.Block, sc, report)
		if v.Catch != nil {
			cs := sc
			if v.CatchParam != "" {
				cs = &scope{bound: map[string]bool{v.CatchParam: true}, parent: sc}
			}
			freeIdents(v.Catch, cs, report)
		}
		if v.Finally != nil {
			freeIdents(v.Finally, sc, report)
		}
		return
	case *ast.ForInStmt:
		if v.Decl < 0 && !sc.has(v.Name) && !isGlobalName(v.Name) {
			report(v.Name)
		}
	case *ast.Ident:
		if !sc.has(v.Name) && !isGlobalName(v.Name) {
			report(v.Name)
		}
		return
	}
	for _, c := range ast.Children(n) {
		freeIdents(c, sc, report)
	}
}

// runeStart snaps a byte index back to the start of the rune containing
// it, so corruption cuts never split a UTF-8 sequence. Byte-index cuts
// that produce invalid UTF-8 model encoding corruption, a different
// failure class than the intended mis-bracketing/truncation.
func runeStart(src string, i int) int {
	for i > 0 && !utf8.RuneStart(src[i]) {
		i--
	}
	return i
}

// textCorrupt models the syntactically invalid share of the baselines'
// output. The paper's Figure 9 measures every baseline below a 60% syntax
// passing rate: mutational pipelines splice fragments across incompatible
// contexts and emit truncated or mis-bracketed programs at these rates.
// With probability p the source suffers one such splice error. All cut
// points are rune-aligned: the corrupted output is valid UTF-8 whenever
// the input is.
func textCorrupt(src string, rng *rand.Rand, p float64) string {
	if rng.Float64() >= p || len(src) < 8 {
		return src
	}
	switch rng.Intn(4) {
	case 0: // truncate mid-program
		return src[:runeStart(src, 4+rng.Intn(len(src)-6))]
	case 1: // drop a random brace/paren (ASCII, so always a whole rune)
		for attempt := 0; attempt < 20; attempt++ {
			i := rng.Intn(len(src))
			if strings.ContainsRune("{}()", rune(src[i])) {
				return src[:i] + src[i+1:]
			}
		}
		return src[:runeStart(src, len(src)-1)]
	case 2: // duplicate a random operator
		ops := []string{"+", "=", ")", "{", ","}
		op := ops[rng.Intn(len(ops))]
		i := runeStart(src, rng.Intn(len(src)))
		return src[:i] + op + op + src[i:]
	default: // splice an incompatible fragment
		frag := []string{"} else {", "case 1:", ") => {", "var = ", "..."}[rng.Intn(5)]
		i := runeStart(src, rng.Intn(len(src)))
		return src[:i] + frag + src[i:]
	}
}

var globalNames = map[string]bool{
	"print": true, "Math": true, "JSON": true, "Object": true, "Array": true,
	"String": true, "Number": true, "Boolean": true, "Date": true,
	"RegExp": true, "parseInt": true, "parseFloat": true, "isNaN": true,
	"isFinite": true, "undefined": true, "NaN": true, "Infinity": true,
	"eval": true, "Error": true, "TypeError": true, "RangeError": true,
	"SyntaxError": true, "ReferenceError": true, "Uint8Array": true,
	"Int8Array": true, "Uint16Array": true, "Int16Array": true,
	"Uint32Array": true, "Int32Array": true, "Float32Array": true,
	"Float64Array": true, "ArrayBuffer": true, "DataView": true,
	"globalThis": true, "console": true, "arguments": true, "this": true,
	"Uint8ClampedArray": true, "Function": true, "EvalError": true,
}

func isGlobalName(n string) bool { return globalNames[n] }

// Name implements Fuzzer.
func (c *CodeAlchemist) Name() string { return "CodeAlchemist" }

// Fork implements Forkable: brick assembly reads the mined brick set and
// nothing else, so shards share it.
func (c *CodeAlchemist) Fork(shardSeed int64) Fuzzer {
	return &CodeAlchemist{bricks: c.bricks}
}

// Next implements Fuzzer.
func (c *CodeAlchemist) Next(rng *rand.Rand) []string {
	defined := map[string]bool{}
	var lines []string
	want := 3 + rng.Intn(6)
	attempts := 0
	for len(lines) < want && attempts < 200 {
		attempts++
		b := c.bricks[rng.Intn(len(c.bricks))]
		ok := true
		for _, u := range b.uses {
			if !defined[u] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		lines = append(lines, b.src)
		for _, d := range b.defines {
			defined[d] = true
		}
	}
	body := strings.Join(lines, "\n")
	out := fmt.Sprintf("var v0 = (function() {\n%s\n});\nv0();\n", body)
	return []string{textCorrupt(out, rng, 0.42)}
}

// ---------- Montage ----------

// Montage replaces a random expression subtree of a corpus seed with a
// fragment produced by the short-context neural model (the paper's
// LSTM-guided AST mutation).
type Montage struct {
	seeds []string
	gen   *lm.Generator
}

// NewMontage trains the subtree model. Montage stays off the Forkable
// sharded path by design: the strategy class it models maintains an
// evolving AST-subtree inventory, so the campaign keeps it serial.
func NewMontage() *Montage {
	return &Montage{
		seeds: corpus.Programs(),
		gen: lm.Train(corpus.Programs(), corpus.Headers(),
			lm.Config{Arch: lm.ArchLSTM}),
	}
}

// Name implements Fuzzer.
func (m *Montage) Name() string { return "Montage" }

// exprPool is the neutral fragment inventory Montage splices in when the
// neural sample fails to parse as an expression.
var exprPool = []string{
	"v1", "20", "typeof v1", "x + 1", "arr.length",
	"Math.random()", "[1, 2, 5]", "obj[key]",
	"(function v1() { return typeof v1; }())",
}

// Next implements Fuzzer.
func (m *Montage) Next(rng *rand.Rand) []string {
	seed := m.seeds[rng.Intn(len(m.seeds))]
	prog, err := parser.Parse(seed)
	if err != nil {
		return []string{seed}
	}
	// Collect replaceable expression slots: call arguments and declaration
	// initialisers.
	type slot struct {
		set func(ast.Expr)
	}
	var slots []slot
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			for i := range v.Args {
				i := i
				c := v
				slots = append(slots, slot{set: func(e ast.Expr) { c.Args[i] = e }})
			}
		case *ast.VarDecl:
			for i := range v.Decls {
				if v.Decls[i].Init != nil {
					i := i
					d := v
					slots = append(slots, slot{set: func(e ast.Expr) { d.Decls[i].Init = e }})
				}
			}
		}
		return true
	})
	if len(slots) == 0 {
		return []string{seed}
	}
	repl := m.sampleExpr(rng)
	slots[rng.Intn(len(slots))].set(repl)
	out := ast.Print(prog)
	if _, err := parser.Parse(out); err != nil {
		return []string{seed}
	}
	return []string{textCorrupt(out, rng, 0.40)}
}

// firstExprLine truncates a neural sample at the first statement
// terminator. A sample starting with ';' or a newline must yield the empty
// fragment (which then fails to parse and falls back to the pool) — with
// the old `i > 0` test such samples kept the entire multi-line raw string
// as the candidate expression.
func firstExprLine(raw string) string {
	if i := strings.IndexAny(raw, ";\n"); i >= 0 {
		raw = raw[:i]
	}
	return raw
}

// sampleExpr asks the neural model for a fragment and falls back to the
// curated pool when the sample does not parse.
func (m *Montage) sampleExpr(rng *rand.Rand) ast.Expr {
	raw := m.gen.GenerateFrom("var x = ", rng)
	raw = firstExprLine(strings.TrimPrefix(raw, "var x = "))
	if e, err := parser.ParseExprString(raw); err == nil {
		return e
	}
	e, err := parser.ParseExprString(exprPool[rng.Intn(len(exprPool))])
	if err != nil {
		e, _ = parser.ParseExprString("0")
	}
	return e
}
