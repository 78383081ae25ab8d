// Package testgen implements Algorithm 1 of the paper: ECMA-262-guided
// test data generation. For every API call in a test program it looks up
// the specification database, associates arguments with their defining
// variable declarations by traversing the program's data flow, and emits
// mutated programs whose inputs probe the mined boundary conditions.
package testgen

import (
	"math/rand"
	"sync"

	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
	"comfort/internal/spec"
)

// MutationPoint is one (API, argument) site eligible for data mutation.
type MutationPoint struct {
	API      string // canonical spec key
	CallID   int    // node ID of the call expression
	ArgIndex int
	// DeclName is set when the argument is an identifier defined by a
	// variable declaration — the data-flow association of Algorithm 1
	// line 8; mutation then rewrites the declaration initialiser.
	DeclName string
	Values   []string
}

// FindMutationPoints locates every API call in prog covered by the
// database: one point per argument position whose spec rule has values,
// in tree walk order.
func FindMutationPoints(prog *ast.Program, db *spec.DB) []MutationPoint {
	// Data-flow map: variable name → declared-by-var-decl.
	declared := map[string]bool{}
	ast.Walk(prog, func(n ast.Node) bool {
		if vd, ok := n.(*ast.VarDecl); ok {
			for _, d := range vd.Decls {
				declared[d.Name] = true
			}
		}
		return true
	})
	var points []MutationPoint
	ast.Walk(prog, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var key string
		var rules []spec.ParamRule
		switch callee := call.Callee.(type) {
		case *ast.MemberExpr:
			if callee.Computed {
				return true
			}
			key, rules, ok = db.LookupMethod(callee.Name)
		case *ast.Ident:
			rules, ok = db.Lookup(callee.Name)
			key = callee.Name
		default:
			return true
		}
		if !ok {
			return true
		}
		for i, rule := range rules {
			if len(rule.Values) == 0 {
				continue
			}
			mp := MutationPoint{API: key, CallID: call.ID(), ArgIndex: i, Values: rule.Values}
			if i < len(call.Args) {
				if id, isIdent := call.Args[i].(*ast.Ident); isIdent && declared[id.Name] {
					mp.DeclName = id.Name
				}
			}
			points = append(points, mp)
		}
		return true
	})
	return points
}

// Variant is one mutated test case.
type Variant struct {
	Source string
	API    string
	Value  string
}

// Options bounds the mutation fan-out.
type Options struct {
	// MaxVariants caps the number of emitted test cases per program;
	// zero or a negative value means the default, 12.
	MaxVariants int
	// RandomExtra adds this many random-value mutations per point on top of
	// the boundary values ("normal conditions" in Algorithm 1).
	RandomExtra int
}

// randomLiterals are the "normal condition" values of Algorithm 1.
var randomLiterals = []string{
	"42", "-7", "0.5", "1e6", `"fuzz"`, `"0"`, "true", "false", "[]", "{}",
	"null", `" "`, "255", "-0.0",
}

// Mutate implements Algorithm 1: it returns test-case variants of src with
// boundary-condition and random argument data, or none when src does not
// parse. It parses src once and hands the tree to MutateProgram.
func Mutate(src string, db *spec.DB, rng *rand.Rand, opts Options) []Variant {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil
	}
	return MutateProgram(prog, src, db, rng, opts)
}

// MutateProgram is Mutate over prog, the parse of src, for a caller that
// already holds the tree. Each mutation edits prog, prints it and undoes
// the edit, so prog is left as it was found.
func MutateProgram(prog *ast.Program, src string, db *spec.DB, rng *rand.Rand, opts Options) []Variant {
	if opts.MaxVariants <= 0 {
		opts.MaxVariants = 12
	}
	// Driver synthesis first: uncalled functions get Figure-2-style
	// harnesses whose parameter values carry the boundary probes.
	drivers := synthesizeDrivers(prog, src, db, rng, opts.MaxVariants)
	points := FindMutationPoints(prog, db)
	// Build the candidate set. Each argument's top-priority probe — the
	// condition-derived value that leads its Figure-4 list — is emitted
	// unconditionally; the remaining boundary and random values are sampled
	// without replacement under the variant budget.
	type cand struct {
		p   MutationPoint
		val string
	}
	var priority, rest []cand
	for _, p := range points {
		for i, val := range p.Values {
			if i == 0 {
				priority = append(priority, cand{p, val})
			} else {
				rest = append(rest, cand{p, val})
			}
		}
		for i := 0; i < opts.RandomExtra; i++ {
			rest = append(rest, cand{p, randomLiterals[rng.Intn(len(randomLiterals))]})
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	// Drivers and in-place mutations share the budget, drivers first: they
	// both exercise the API and make the function's result observable.
	out := drivers
	if len(out) > opts.MaxVariants/2+1 {
		out = out[:opts.MaxVariants/2+1]
	}
	for _, c := range append(priority, rest...) {
		if len(out) >= opts.MaxVariants {
			break
		}
		mutated, ok := applyMutation(prog, c.p, c.val)
		if ok && mutated != src {
			out = append(out, Variant{Source: mutated, API: c.p.API, Value: c.val})
		}
	}
	return out
}

// literals memoises parseLiteral per mutation value (nil for a value that
// does not parse). The values come from the spec database's fixed lists
// and randomLiterals, so the memo stays small.
var literals sync.Map

// parseLiteral parses a mutation value once per process. The node is
// shared: applyMutation splices it into a tree, prints the tree and
// undoes the edit, and nothing writes to it, so concurrent generator
// shards may splice one node at once.
func parseLiteral(value string) ast.Expr {
	if e, ok := literals.Load(value); ok {
		lit, _ := e.(ast.Expr)
		return lit
	}
	lit, _ := parser.ParseExprString(value) // nil on error
	e, _ := literals.LoadOrStore(value, lit)
	lit, _ = e.(ast.Expr)
	return lit
}

// applyMutation rewrites one argument (or its defining declaration) of
// prog to the literal value and prints the program back to source. It
// restores the one field it rewrote before returning, so prog is left
// exactly as it was found. The print is not parsed again: the printer
// round trip (campaign.TestPrintRoundTripOracle) and the literal splice
// test (TestSpliceRoundTrip) check that such a print parses back to the
// same program.
func applyMutation(prog *ast.Program, p MutationPoint, value string) (string, bool) {
	lit := parseLiteral(value)
	if lit == nil {
		return "", false
	}
	var undo func()
	if p.DeclName != "" {
		// Rewrite the variable declaration initialiser (data-flow path).
		ast.Walk(prog, func(n ast.Node) bool {
			vd, ok := n.(*ast.VarDecl)
			if !ok || undo != nil {
				return undo == nil
			}
			for i := range vd.Decls {
				if d := &vd.Decls[i]; d.Name == p.DeclName {
					old := d.Init
					d.Init = lit
					undo = func() { d.Init = old }
					return false
				}
			}
			return true
		})
	}
	if undo == nil {
		// Rewrite the call argument, padding missing ones with undefined.
		// The edited list is a fresh copy, so padding never writes into
		// the original backing array.
		ast.Walk(prog, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || undo != nil {
				return undo == nil
			}
			if call.ID() != p.CallID {
				return true
			}
			old := call.Args
			args := make([]ast.Expr, max(len(old), p.ArgIndex+1))
			copy(args, old)
			for i := len(old); i < p.ArgIndex; i++ {
				args[i] = &ast.Ident{Name: "undefined"}
			}
			args[p.ArgIndex] = lit
			call.Args = args
			undo = func() { call.Args = old }
			return false
		})
	}
	if undo == nil {
		return "", false
	}
	printed := ast.Print(prog)
	undo()
	return printed, true
}
