package testgen

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
	"comfort/internal/spec"
)

const substrProgram = `function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
var len = 6;
print(foo(s, 6, len));`

func TestFindMutationPoints(t *testing.T) {
	prog, err := parser.Parse(substrProgram)
	if err != nil {
		t.Fatal(err)
	}
	points := FindMutationPoints(prog, spec.Default())
	if len(points) != 2 {
		t.Fatalf("points: %d want 2 (start, length)", len(points))
	}
	if points[0].API != "String.prototype.substr" {
		t.Errorf("API: %s", points[0].API)
	}
	// The len argument is an identifier declared by a var statement: the
	// data-flow association must find it.
	if points[1].DeclName != "len" {
		t.Errorf("data-flow association failed: %+v", points[1])
	}
}

func TestMutateProducesBoundaryVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	variants := Mutate(substrProgram, spec.Default(), rng, Options{MaxVariants: 40})
	if len(variants) < 10 {
		t.Fatalf("too few variants: %d", len(variants))
	}
	sawUndefined, sawDeclRewrite := false, false
	for _, v := range variants {
		if _, err := parser.Parse(v.Source); err != nil {
			t.Errorf("invalid variant:\n%s", v.Source)
		}
		if strings.Contains(v.Source, "substr(6, undefined)") ||
			strings.Contains(v.Source, "var len = undefined") {
			sawUndefined = true
		}
		if strings.Contains(v.Source, "var len = NaN") ||
			strings.Contains(v.Source, "var len = Infinity") {
			sawDeclRewrite = true
		}
	}
	if !sawUndefined {
		t.Error("the undefined boundary probe (the Figure-2 trigger) was never generated")
	}
	if !sawDeclRewrite {
		t.Error("declaration-initialiser rewriting never happened")
	}
}

func TestMutateHandlesGlobalAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	variants := Mutate(`print(parseInt("42", 10));`, spec.Default(), rng, Options{MaxVariants: 10})
	if len(variants) == 0 {
		t.Fatal("global APIs (parseInt) must be mutated too")
	}
}

func TestMutateNoAPINoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if vs := Mutate(`var x = 1 + 2;`, spec.Default(), rng, Options{}); len(vs) != 0 {
		t.Errorf("no API calls, expected no variants, got %d", len(vs))
	}
	if vs := Mutate(`var broken = (;`, spec.Default(), rng, Options{}); len(vs) != 0 {
		t.Errorf("unparseable input, expected no variants, got %d", len(vs))
	}
}

func TestMutateRespectsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := Mutate(substrProgram, spec.Default(), rng, Options{MaxVariants: 3})
	if len(vs) > 3 {
		t.Errorf("cap violated: %d", len(vs))
	}
}

// TestApplyMutationRestoresTree pins the edit-and-undo contract Mutate's
// single parse relies on: after every applyMutation the shared tree
// prints exactly as before, on every mutation point of the corpus and on
// an argument index past the call's arity (the padding path).
func TestApplyMutationRestoresTree(t *testing.T) {
	db := spec.Default()
	padded := false
	for _, src := range append([]string{substrProgram}, corpus.Programs()...) {
		prog, err := parser.Parse(src)
		if err != nil {
			continue
		}
		points := FindMutationPoints(prog, db)
		if src == substrProgram {
			// str.substr(start, len) has no third argument: pad past it.
			p := points[0]
			p.ArgIndex, p.DeclName = 3, ""
			points = append(points, p)
		}
		for _, p := range points {
			before := ast.Print(prog)
			mutated, ok := applyMutation(prog, p, p.Values[0])
			if after := ast.Print(prog); after != before {
				t.Fatalf("%s arg %d = %s left the tree edited:\n%s\nwas\n%s", p.API, p.ArgIndex, p.Values[0], after, before)
			}
			if src == substrProgram && p.ArgIndex == 3 {
				if !ok || !strings.Contains(mutated, "substr(start, len, undefined, ") {
					t.Fatalf("padding path not taken:\n%s", mutated)
				}
				padded = true
			}
		}
	}
	if !padded {
		t.Fatal("the padding path was never exercised")
	}
}

// TestSpliceRoundTrip checks every value Algorithm 1 can splice — each
// distinct value in the spec database and in randomLiterals — in each of
// applyMutation's three edit sites: a call argument, a padded argument
// past the call's arity, and a declarator initialiser. Mutate keeps a
// variant without parsing it again, so each print must parse back to a
// program that prints to the same text. The one value that does not parse
// as an expression is listed: applyMutation drops it at every draw.
func TestSpliceRoundTrip(t *testing.T) {
	const host = "var n = 1;\nprint(\"abcdef\".substr(n, 2));"
	prog, err := parser.Parse(host)
	if err != nil {
		t.Fatal(err)
	}
	db := spec.Default()
	points := FindMutationPoints(prog, db)
	if len(points) == 0 || points[0].DeclName != "n" {
		t.Fatalf("host program lost its data-flow point: %+v", points)
	}
	arg, padded := points[0], points[0]
	arg.ArgIndex, arg.DeclName = 1, ""
	padded.ArgIndex, padded.DeclName = 3, ""
	sites := []struct {
		name string
		p    MutationPoint
	}{{"argument", arg}, {"padded argument", padded}, {"initialiser", points[0]}}

	seen := map[string]bool{}
	values := append([]string(nil), randomLiterals...)
	for _, name := range db.Names() {
		rules, _ := db.Lookup(name)
		for _, r := range rules {
			values = append(values, r.Values...)
		}
	}
	var unparsed []string
	for _, v := range values {
		if seen[v] {
			continue
		}
		seen[v] = true
		if parseLiteral(v) == nil {
			unparsed = append(unparsed, v)
			continue
		}
		for _, site := range sites {
			mutated, ok := applyMutation(prog, site.p, v)
			if !ok {
				t.Errorf("%s = %s: not applied", site.name, v)
				continue
			}
			re, err := parser.Parse(mutated)
			if err != nil {
				t.Errorf("%s = %s: the print does not parse: %v\n%s", site.name, v, err, mutated)
				continue
			}
			if again := ast.Print(re); again != mutated {
				t.Errorf("%s = %s: the print is not a fixpoint:\n%s\nprints as\n%s", site.name, v, mutated, again)
			}
		}
	}
	if want := []string{"{}"}; !slices.Equal(unparsed, want) {
		t.Errorf("values that do not parse as an expression: %q, want %q", unparsed, want)
	}
	t.Logf("%d distinct values spliced at 3 sites", len(seen))
}
