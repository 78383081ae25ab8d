package campaign

import (
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/ast"
)

// precedenceSamples nest each expression kind the printer parenthesises
// where dropping the parentheses changes the parse. The other sources
// never need them: over those alone, a printer that stops wrapping any
// one of these kinds as an operand still prints fixpoints that run alike.
var precedenceSamples = []string{
	"var a = 1, b = 2, x = 0;\nprint((a + b) * 3, a - (b - 3), 2 ** (1 + 1), (a || b) && 0, (a ? b : 0) + 1);\nprint((x = 1) + 1, x, (1, 2) + 1, -(-a), a, -(--b), b);",
	"(function() { print(1); }) || 0;\n({k: 1}) || 0;\n({k: 2}).k;\nprint((1).toString(), (a => a + 1)(1));",
	"var o = {k: 1};\nprint((new Object()).constructor === Object, typeof (o.k + 1), !(o.k && 0), (o.k ? 2 : 3) * 2);",
}

// roundTripSources gathers the programs the printer must round-trip,
// labelled by origin: every corpus program, every catalog witness, the
// first 3,000 seed-1 cases of each fuzzer, the reduced witnesses of one
// reducing campaign over the catalog witnesses, and the precedence
// samples.
func roundTripSources(t *testing.T) (names []string, srcs []string) {
	add := func(name string, ss ...string) {
		for _, s := range ss {
			names = append(names, name)
			srcs = append(srcs, s)
		}
	}
	add("precedence", precedenceSamples...)
	add("corpus", corpus.Programs()...)
	var witnesses []string
	for _, d := range engines.Catalog() {
		witnesses = append(witnesses, d.Witness)
	}
	add("witness", witnesses...)
	for _, f := range fuzzers.All() {
		add(f.Name(), firstCases(f, 1, 3000)...)
	}
	res := Run(Config{
		Fuzzer:          &fixedFuzzer{srcs: witnesses},
		Testbeds:        engines.Testbeds(),
		Cases:           len(witnesses),
		Seed:            1,
		ReduceWitnesses: true,
	})
	if len(res.Found) == 0 {
		t.Fatal("the witness campaign found nothing to reduce")
	}
	for _, d := range res.FoundDefects() {
		add("reduced "+d.ID, res.Found[d.ID].Reduced)
	}
	return names, srcs
}

// TestPrintRoundTripOracle checks the printer at corpus scale, after
// Fuzzilli's compiler tests: run a program, print it back, run the print,
// compare. The mutator and the reducer emit ast.Print output without
// parsing it again, so for every source that parses, in each mode, the
// print must parse, print to itself (a fixpoint), and run on the
// reference testbed to an identical ExecResult — output, outcome, error
// rendering and fuel, inline-cache counters included.
func TestPrintRoundTripOracle(t *testing.T) {
	names, srcs := roundTripSources(t)
	refs := []*engines.PreparedTestbed{
		engines.ReferenceTestbed(false).Prepare(),
		engines.ReferenceTestbed(true).Prepare(),
	}
	opts := engines.RunOptions{Fuel: 150000, Seed: 9}
	parsed := 0
	for i, src := range srcs {
		for _, ref := range refs {
			prog, err := ref.Parse(src)
			if err != nil {
				continue
			}
			parsed++
			printed := ast.Print(prog)
			re, err := ref.Parse(printed)
			if err != nil {
				t.Fatalf("%s source %d on %s: the print does not parse: %v\nsource:\n%s\nprint:\n%s",
					names[i], i, ref.Testbed.ID(), err, src, printed)
			}
			if again := ast.Print(re); again != printed {
				t.Fatalf("%s source %d on %s: the print is not a fixpoint\nprint:\n%s\nprints as:\n%s",
					names[i], i, ref.Testbed.ID(), printed, again)
			}
			want, got := ref.ExecParsed(prog, nil, opts), ref.ExecParsed(re, nil, opts)
			if got != want {
				t.Fatalf("%s source %d on %s: the print runs differently\nsource: %+v\nprint:  %+v\nsource:\n%s\nprint:\n%s",
					names[i], i, ref.Testbed.ID(), want, got, src, printed)
			}
		}
	}
	t.Logf("%d sources, %d (source, mode) round trips", len(srcs), parsed)
}
