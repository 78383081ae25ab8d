package testgen

import (
	"fmt"
	"math/rand"
	"strings"

	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
	"comfort/internal/spec"
)

// Section 3.3: "In addition to generating variables, we also generate code
// to call functions with supplied parameters and print out the results."
// The generated programs often define a function that is never invoked
// (generation stops when the header's braces balance); driver synthesis
// builds the Figure-2-style harness around it: one `var parameter = ...`
// per argument, a call, and a print of the result.

// driverTarget is a top-level function eligible for driver synthesis.
type driverTarget struct {
	name   string
	params []string
	// paramRules maps parameter index → the spec rule of the API argument
	// position the parameter flows into (Algorithm 1's data-flow step).
	paramRules map[int]spec.ParamRule
	// receiverTypes maps parameter index → the API prefix when the
	// parameter is used as a method receiver (e.g. str.substr → String).
	receiverTypes map[int]string
}

// findDriverTargets locates top-level functions that are declared but never
// called, together with the specification knowledge about their parameters.
func findDriverTargets(prog *ast.Program, db *spec.DB) []driverTarget {
	type fn struct {
		lit  *ast.FuncLit
		name string
	}
	var fns []fn
	called := map[string]bool{}
	for _, s := range prog.Body {
		switch st := s.(type) {
		case *ast.FuncDecl:
			fns = append(fns, fn{st.Fn, st.Fn.Name})
		case *ast.VarDecl:
			for _, d := range st.Decls {
				if lit, ok := d.Init.(*ast.FuncLit); ok {
					fns = append(fns, fn{lit, d.Name})
				}
			}
		}
	}
	// A function counts as called only when some call site supplies all of
	// its parameters; the generator's bare trailer (`foo();`) leaves every
	// parameter undefined and is replaced by a synthesised driver.
	arity := map[string]int{}
	for _, f := range fns {
		arity[f.name] = len(f.lit.Params)
	}
	ast.Walk(prog, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Callee.(*ast.Ident); ok {
				if len(call.Args) >= arity[id.Name] {
					called[id.Name] = true
				}
			}
		}
		return true
	})
	var out []driverTarget
	for _, f := range fns {
		if f.name == "" || called[f.name] || len(f.lit.Params) == 0 || f.lit.Body == nil {
			continue
		}
		t := driverTarget{
			name: f.name, params: f.lit.Params,
			paramRules:    map[int]spec.ParamRule{},
			receiverTypes: map[int]string{},
		}
		paramIdx := map[string]int{}
		for i, p := range f.lit.Params {
			paramIdx[p] = i
		}
		associate := func(args []ast.Expr, rules []spec.ParamRule) {
			for j, a := range args {
				if j >= len(rules) {
					break
				}
				if id, isIdent := a.(*ast.Ident); isIdent {
					if i, isParam := paramIdx[id.Name]; isParam {
						if _, seen := t.paramRules[i]; !seen {
							t.paramRules[i] = rules[j]
						}
					}
				}
			}
		}
		ast.Walk(f.lit.Body, func(n ast.Node) bool {
			switch call := n.(type) {
			case *ast.CallExpr:
				member, ok := call.Callee.(*ast.MemberExpr)
				if !ok || member.Computed {
					return true
				}
				key, rules, ok := db.LookupMethod(member.Name)
				if !ok {
					return true
				}
				// Receiver association: str.substr → str is a String.
				if recv, isIdent := member.Obj.(*ast.Ident); isIdent {
					if i, isParam := paramIdx[recv.Name]; isParam {
						t.receiverTypes[i] = apiPrefix(key)
					}
				}
				associate(call.Args, rules)
			case *ast.NewExpr:
				// Constructor sites: new Uint32Array(length) etc.
				if ctor, ok := call.Callee.(*ast.Ident); ok {
					if rules, ok := db.Lookup(ctor.Name); ok {
						associate(call.Args, rules)
					}
				}
			}
			return true
		})
		if len(t.paramRules) > 0 || len(t.receiverTypes) > 0 {
			out = append(out, t)
		}
	}
	return out
}

func apiPrefix(key string) string {
	if i := strings.Index(key, ".prototype."); i > 0 {
		return key[:i]
	}
	return ""
}

// typeDefault supplies the "normal condition" value for a parameter.
func typeDefault(typ string) string {
	switch typ {
	case "integer", "number":
		return "2"
	case "string":
		return `"Name: Albert"`
	case "boolean":
		return "true"
	case "object":
		return "[0, 1]"
	default:
		return "1"
	}
}

// receiverDefault supplies a receiver value for a method's API family.
func receiverDefault(prefix string) string {
	switch prefix {
	case "String":
		return `"Name: Albert"`
	case "Array":
		return "[1, 2, 5]"
	case "Number":
		return "-634619"
	case "RegExp":
		return "/abc/"
	default:
		return `"Name: Albert"`
	}
}

// synthesizeDrivers builds Figure-2-style driver variants for src, whose
// tree is prog: for each uncalled function and each boundary value of a
// spec-covered parameter, append `var parameter = <value>;
// print(fn(...));`. Each driver is kept only if it parses.
func synthesizeDrivers(prog *ast.Program, src string, db *spec.DB, rng *rand.Rand, budget int) []Variant {
	targets := findDriverTargets(prog, db)
	if len(targets) == 0 {
		return nil
	}
	var priority, rest []Variant
	for _, t := range targets {
		// Defaults for every parameter.
		defaults := make([]string, len(t.params))
		for i := range t.params {
			if prefix, ok := t.receiverTypes[i]; ok {
				defaults[i] = receiverDefault(prefix)
			} else if rule, ok := t.paramRules[i]; ok {
				defaults[i] = typeDefault(rule.Type)
			} else {
				defaults[i] = "1"
			}
		}
		// One variant per boundary value per spec-covered parameter.
		for i := range t.params {
			rule, ok := t.paramRules[i]
			if !ok {
				continue
			}
			api := "driver"
			body := stripBareCalls(src, t.name)
			for vi, v := range rule.Values {
				args := append([]string(nil), defaults...)
				args[i] = "parameter"
				driver := fmt.Sprintf("%s\nvar parameter = %s;\nvar result = %s(%s);\nprint(result);\n",
					strings.TrimRight(body, "\n"), v, t.name, strings.Join(args, ", "))
				if _, err := parser.Parse(driver); err != nil {
					continue
				}
				variant := Variant{Source: driver, API: api, Value: v}
				// Each parameter's leading (condition-derived) probe is
				// emitted ahead of the shuffled remainder, as in Mutate.
				if vi == 0 {
					priority = append(priority, variant)
				} else {
					rest = append(rest, variant)
				}
			}
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := append(priority, rest...)
	if len(out) > budget {
		out = out[:budget]
	}
	return out
}

// stripBareCalls drops zero-argument invocations of name (the generator's
// trailer), which would otherwise run the function with every parameter
// undefined before the synthesised driver executes.
func stripBareCalls(src, name string) string {
	var kept []string
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) == name+"();" {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}
