package fuzzers

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"comfort/internal/js/lint"
)

func TestAllFuzzersProduceCases(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			total, valid := 0, 0
			for i := 0; i < 25; i++ {
				for _, src := range f.Next(rng) {
					if src == "" {
						t.Fatal("empty test case")
					}
					total++
					if lint.Valid(src) {
						valid++
					}
				}
			}
			if total == 0 {
				t.Fatal("no cases produced")
			}
			// Every strategy must produce a usable share of parseable code
			// (DeepSmith's short-context model sits lowest, near the
			// paper's ~31% LSTM rate).
			if float64(valid)/float64(total) < 0.1 {
				t.Errorf("validity too low: %d/%d", valid, total)
			}
			t.Logf("%s: %d cases, %d valid", f.Name(), total, valid)
		})
	}
}

func TestFuzzerDeterminism(t *testing.T) {
	for _, mk := range []func() Fuzzer{
		func() Fuzzer { return NewDIE() },
		func() Fuzzer { return NewFuzzilli() },
		func() Fuzzer { return NewCodeAlchemist() },
	} {
		a := mk()
		b := mk()
		ra, rb := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for i := 0; i < 10; i++ {
			ca, cb := a.Next(ra), b.Next(rb)
			if len(ca) != len(cb) {
				t.Fatalf("%s: nondeterministic batch size", a.Name())
			}
			for j := range ca {
				if ca[j] != cb[j] {
					t.Fatalf("%s: nondeterministic output", a.Name())
				}
			}
		}
	}
}

// TestForkableSet pins which fuzzers opt into sharded generation: the
// pure-per-batch strategies fork, the corpus-evolving strategy classes
// (DIE, Montage) stay on the campaign's serial path.
func TestForkableSet(t *testing.T) {
	want := map[string]bool{
		"COMFORT": true, "DeepSmith": true, "Fuzzilli": true,
		"CodeAlchemist": true, "DIE": false, "Montage": false,
	}
	for _, f := range All() {
		_, forkable := f.(Forkable)
		if forkable != want[f.Name()] {
			t.Errorf("%s: Forkable=%v, want %v", f.Name(), forkable, want[f.Name()])
		}
	}
}

// TestForkPurity is the contract behind shard-count-independent campaign
// streams: for every Forkable fuzzer, any fork fed a fresh RNG seeded for
// batch j must emit exactly the batch the parent emits for that seed —
// regardless of which fork runs which batch, and regardless of how many
// batches the fork has produced before.
func TestForkPurity(t *testing.T) {
	for _, f := range All() {
		forkable, ok := f.(Forkable)
		if !ok {
			continue
		}
		t.Run(f.Name(), func(t *testing.T) {
			want := make([][]string, 12)
			for j := range want {
				want[j] = f.Next(rand.New(rand.NewSource(int64(100 + j))))
			}
			a, b := forkable.Fork(1), forkable.Fork(2)
			// Interleave the batches across the two forks out of order.
			order := []int{7, 0, 11, 3, 1, 10, 2, 9, 4, 8, 5, 6}
			for i, j := range order {
				fz := a
				if i%2 == 1 {
					fz = b
				}
				got := fz.Next(rand.New(rand.NewSource(int64(100 + j))))
				if len(got) != len(want[j]) {
					t.Fatalf("batch %d: fork emitted %d cases, parent %d", j, len(got), len(want[j]))
				}
				for k := range got {
					if got[k] != want[j][k] {
						t.Fatalf("batch %d case %d: fork output differs from parent", j, k)
					}
				}
			}
		})
	}
}

// TestForkConcurrent drives four forks of each Forkable fuzzer from four
// goroutines at once (the campaign's shard shape) — the race detector
// guards the shared trained state, and the merged per-batch outputs must
// match a serial replay.
func TestForkConcurrent(t *testing.T) {
	for _, f := range All() {
		forkable, ok := f.(Forkable)
		if !ok {
			continue
		}
		t.Run(f.Name(), func(t *testing.T) {
			const shards, batches = 4, 16
			got := make([][]string, batches)
			done := make(chan struct{})
			for s := 0; s < shards; s++ {
				go func(s int, fz Fuzzer) {
					defer func() { done <- struct{}{} }()
					for j := s; j < batches; j += shards {
						got[j] = fz.Next(rand.New(rand.NewSource(int64(j))))
					}
				}(s, forkable.Fork(int64(s)))
			}
			for s := 0; s < shards; s++ {
				<-done
			}
			for j := 0; j < batches; j++ {
				want := f.Next(rand.New(rand.NewSource(int64(j))))
				if len(got[j]) != len(want) {
					t.Fatalf("batch %d: concurrent shard emitted %d cases, serial %d",
						j, len(got[j]), len(want))
				}
				for k := range want {
					if got[j][k] != want[k] {
						t.Fatalf("batch %d case %d: concurrent output differs from serial", j, k)
					}
				}
			}
		})
	}
}

// The baselines deliberately emit a share of syntactically invalid output
// (the paper's Figure 9 measures all of them below a 60% passing rate), so
// their validity is checked as a band, not a guarantee.
func TestBaselineValidityBands(t *testing.T) {
	for _, mk := range []func() Fuzzer{
		func() Fuzzer { return NewFuzzilli() },
		func() Fuzzer { return NewCodeAlchemist() },
		func() Fuzzer { return NewDIE() },
	} {
		f := mk()
		rng := rand.New(rand.NewSource(2))
		valid, total := 0, 0
		for i := 0; i < 300; i++ {
			for _, src := range f.Next(rng) {
				total++
				if lint.Valid(src) {
					valid++
				}
			}
		}
		rate := float64(valid) / float64(total)
		if rate < 0.35 || rate > 0.75 {
			t.Errorf("%s validity %.2f outside the Figure-9 band [0.35, 0.75]", f.Name(), rate)
		}
	}
}

// TestFirstExprLine is the regression test for the Montage sampleExpr
// off-by-one: a neural sample starting with ';' or a newline must yield an
// empty candidate (→ pool fallback), not the entire multi-line raw string.
func TestFirstExprLine(t *testing.T) {
	cases := map[string]string{
		";var y = 2\nprint(y)":  "",
		"\nvar y = 2\nprint(y)": "",
		"a + b;rest":            "a + b",
		"a + b\nrest":           "a + b",
		"plain":                 "plain",
		"":                      "",
	}
	for in, want := range cases {
		if got := firstExprLine(in); got != want {
			t.Errorf("firstExprLine(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMineBrickScoping is the regression test for the CodeAlchemist def/use
// unsoundness: names bound only inside nested functions must not count as
// brick-wide defines, hoisted declarations must, and nested-scope vars must
// not leak into defines.
func TestMineBrickScoping(t *testing.T) {
	has := func(xs []string, n string) bool {
		for _, x := range xs {
			if x == n {
				return true
			}
		}
		return false
	}

	// z is a param of the nested function; the trailing z is free in the
	// brick. The walk-order analysis treated the outer z as defined.
	b, ok := mineBrick(`var r = [function(z) { return z; }, z];`)
	if !ok {
		t.Fatal("brick not mined")
	}
	if !has(b.uses, "z") {
		t.Errorf("outer z must be a use (param z is function-local): uses=%v", b.uses)
	}
	if !has(b.defines, "r") {
		t.Errorf("r must be a define: defines=%v", b.defines)
	}

	// inner is declared inside the nested function body: neither a define
	// of the brick nor a use.
	b, ok = mineBrick(`var g = function() { var inner = 1; return inner; };`)
	if !ok {
		t.Fatal("brick not mined")
	}
	if has(b.defines, "inner") {
		t.Errorf("nested var must not be a brick define: defines=%v", b.defines)
	}
	if has(b.uses, "inner") {
		t.Errorf("nested var is bound locally, not a use: uses=%v", b.uses)
	}

	// w is used before its var in pre-order; hoisting makes it a define,
	// not a free use.
	b, ok = mineBrick(`if (w) { print(w); } else { var w = 1; }`)
	if !ok {
		t.Fatal("brick not mined")
	}
	if has(b.uses, "w") {
		t.Errorf("hoisted w must not be a use: uses=%v", b.uses)
	}
	if !has(b.defines, "w") {
		t.Errorf("hoisted w must be a define: defines=%v", b.defines)
	}

	// Function declarations define their name; params stay local.
	b, ok = mineBrick(`function f(p) { return p + q; }`)
	if !ok {
		t.Fatal("brick not mined")
	}
	if !has(b.defines, "f") || has(b.defines, "p") {
		t.Errorf("f defines, p does not: defines=%v", b.defines)
	}
	if !has(b.uses, "q") || has(b.uses, "p") {
		t.Errorf("q is free, p is not: uses=%v", b.uses)
	}
}

// TestCodeAlchemistBricksSound checks the assembled-program property behind
// the fix: every mined brick's uses are exactly the free identifiers, so a
// program assembled under the def-use constraint never references an
// undefined name at the point of placement.
func TestCodeAlchemistBricksSound(t *testing.T) {
	c := NewCodeAlchemist()
	if len(c.bricks) == 0 {
		t.Fatal("no bricks mined")
	}
	for _, b := range c.bricks {
		seen := map[string]bool{}
		for _, u := range b.uses {
			if isGlobalName(u) {
				t.Errorf("brick %q uses global %q (should be filtered)", b.src, u)
			}
			if seen[u] {
				t.Errorf("brick %q duplicates use %q", b.src, u)
			}
			seen[u] = true
		}
	}
}

// TestTextCorruptRuneSafe is the regression test for mid-rune slicing:
// corrupted output must remain valid UTF-8 whenever the input is.
func TestTextCorruptRuneSafe(t *testing.T) {
	src := `var s = "héllo wörld — ünïcode ΩΩΩ 日本語"; print(s + "…");`
	if !utf8.ValidString(src) {
		t.Fatal("test input must be valid UTF-8")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		out := textCorrupt(src, rng, 1.0)
		if !utf8.ValidString(out) {
			t.Fatalf("iteration %d produced invalid UTF-8: %q", i, out)
		}
	}
}

// TestByName pins the lookup table against the fuzzers themselves: each
// of the six names resolves, in any letter case, to a fresh fuzzer whose
// Name() is that name, and an unknown name fails.
func TestByName(t *testing.T) {
	for _, name := range []string{"COMFORT", "DIE", "Fuzzilli", "Montage", "DeepSmith", "CodeAlchemist"} {
		var prev Fuzzer
		for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			f, ok := ByName(spelling)
			if !ok {
				t.Fatalf("ByName(%q) failed", spelling)
			}
			if f.Name() != name {
				t.Errorf("ByName(%q) built %q", spelling, f.Name())
			}
			if f == prev {
				t.Errorf("ByName(%q) returned the previous lookup's instance", spelling)
			}
			prev = f
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown fuzzer resolved")
	}
}
