package analyze

import (
	"math"
	"strings"

	"comfort/internal/js/ast"
	"comfort/internal/js/token"
)

// Features is a bitset over the feature inventory below — one bit per
// language feature a program exercises. The compact form is what lets
// the campaign aggregate fingerprints over tens of thousands of cases
// (a union and a popcount, no per-case allocation).
type Features uint64

// Feature bits. Order is the public fingerprint layout; append only.
const (
	FeatVar Features = 1 << iota
	FeatLet
	FeatConst
	FeatFunction
	FeatArrow
	FeatReturn
	FeatIf
	FeatFor
	FeatForIn
	FeatForOf
	FeatWhile
	FeatDoWhile
	FeatSwitch
	FeatBreak
	FeatContinue
	FeatLabel
	FeatTry
	FeatCatch
	FeatFinally
	FeatThrow
	FeatNew
	FeatDelete
	FeatTypeof
	FeatVoid
	FeatIn
	FeatInstanceof
	FeatThis
	FeatEval
	FeatArguments
	FeatRegex
	FeatTemplate
	FeatSpread
	FeatRest
	FeatAccessor
	FeatComputedMember
	FeatMember
	FeatCall
	FeatObject
	FeatArray
	FeatString
	FeatNumber
	FeatBool
	FeatNull
	FeatUpdate
	FeatLogical
	FeatCond
	FeatSeq
	FeatStrict
	FeatRecursion
	FeatNestedFunction
	FeatShadowing

	featCount = iota // number of defined feature bits
)

// featureNames indexes feature bit position → stable name.
var featureNames = [featCount]string{
	"var", "let", "const", "function", "arrow", "return", "if", "for",
	"for-in", "for-of", "while", "do-while", "switch", "break", "continue",
	"label", "try", "catch", "finally", "throw", "new", "delete", "typeof",
	"void", "in", "instanceof", "this", "eval", "arguments", "regex",
	"template", "spread", "rest", "accessor", "computed-member", "member",
	"call", "object", "array", "string", "number", "bool", "null", "update",
	"logical", "cond", "seq", "strict", "recursion", "nested-function",
	"shadowing",
}

// FeatureCount is the size of the feature inventory.
const FeatureCount = featCount

// Names expands the bitset to feature names in inventory order.
func (f Features) Names() []string {
	var out []string
	for i := 0; i < featCount; i++ {
		if f&(1<<uint(i)) != 0 {
			out = append(out, featureNames[i])
		}
	}
	return out
}

// Count is the number of distinct features set.
func (f Features) Count() int {
	n := 0
	for v := uint64(f); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Has reports whether every bit of mask is set.
func (f Features) Has(mask Features) bool { return f&mask == mask }

// Flags is a bitset of divergence-risk rules: constructs whose behaviour
// is implementation-defined or nondeterministic across real engines, so
// a divergence in a program carrying one is a suppressible false
// positive rather than conformance evidence.
type Flags uint8

// Divergence-risk rules.
const (
	// FlagMathRandom — Math.random() calls.
	FlagMathRandom Flags = 1 << iota
	// FlagDate — Date.now() or argument-less new Date(): wall-clock reads.
	FlagDate
	// FlagForInOrder — for-in loops (enumeration order is
	// implementation-defined for the general object graph).
	FlagForInOrder
	// FlagRecursion — directly self-recursive functions (stack-limit and
	// overflow-error shape differ across engines).
	FlagRecursion
	// FlagFloatFormat — float literals beyond 15 significant digits
	// (shortest-round-trip formatting differs at the precision edge).
	FlagFloatFormat

	flagCount = iota
)

var flagNames = [flagCount]string{
	"math-random", "date", "for-in-order", "recursion", "float-format",
}

// Names expands the flag set to stable rule names in rule order.
func (f Flags) Names() []string {
	var out []string
	for i := 0; i < flagCount; i++ {
		if f&(1<<uint(i)) != 0 {
			out = append(out, flagNames[i])
		}
	}
	return out
}

// Any reports whether any divergence-risk rule fired.
func (f Flags) Any() bool { return f != 0 }

// scanProgram runs the single fingerprint walk: feature bits and
// divergence flags. (FeatShadowing comes from the resolver, which owns
// the scope model.)
func scanProgram(prog *ast.Program, r *Report) {
	if prog.Strict {
		r.Features |= FeatStrict
	}
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.VarDecl:
			switch v.Kind {
			case ast.Let:
				r.Features |= FeatLet
			case ast.Const:
				r.Features |= FeatConst
			default:
				r.Features |= FeatVar
			}
		case *ast.FuncDecl:
			r.Features |= FeatFunction
			scanFunc(v.Fn, r)
		case *ast.FuncLit:
			if v.Arrow {
				r.Features |= FeatArrow
			} else {
				r.Features |= FeatFunction
			}
			scanFunc(v, r)
		case *ast.ReturnStmt:
			r.Features |= FeatReturn
		case *ast.IfStmt:
			r.Features |= FeatIf
		case *ast.ForStmt:
			r.Features |= FeatFor
		case *ast.ForInStmt:
			if v.Of {
				r.Features |= FeatForOf
			} else {
				r.Features |= FeatForIn
				r.Flags |= FlagForInOrder
			}
		case *ast.WhileStmt:
			r.Features |= FeatWhile
		case *ast.DoWhileStmt:
			r.Features |= FeatDoWhile
		case *ast.SwitchStmt:
			r.Features |= FeatSwitch
		case *ast.BreakStmt:
			r.Features |= FeatBreak
		case *ast.ContinueStmt:
			r.Features |= FeatContinue
		case *ast.LabeledStmt:
			r.Features |= FeatLabel
		case *ast.TryStmt:
			r.Features |= FeatTry
			if v.Catch != nil {
				r.Features |= FeatCatch
			}
			if v.Finally != nil {
				r.Features |= FeatFinally
			}
		case *ast.ThrowStmt:
			r.Features |= FeatThrow
		case *ast.NewExpr:
			r.Features |= FeatNew
			if id, ok := v.Callee.(*ast.Ident); ok && id.Name == "Date" && len(v.Args) == 0 {
				r.Flags |= FlagDate
			}
		case *ast.UnaryExpr:
			switch v.Op {
			case token.DELETE:
				r.Features |= FeatDelete
			case token.TYPEOF:
				r.Features |= FeatTypeof
			case token.VOID:
				r.Features |= FeatVoid
			}
		case *ast.BinaryExpr:
			switch v.Op {
			case token.IN:
				r.Features |= FeatIn
			case token.INSTANCEOF:
				r.Features |= FeatInstanceof
			}
		case *ast.ThisExpr:
			r.Features |= FeatThis
		case *ast.Ident:
			switch v.Name {
			case "eval":
				r.Features |= FeatEval
			case "arguments":
				r.Features |= FeatArguments
			}
		case *ast.RegexLit:
			r.Features |= FeatRegex
		case *ast.TemplateLit:
			r.Features |= FeatTemplate
		case *ast.SpreadExpr:
			r.Features |= FeatSpread
		case *ast.MemberExpr:
			r.Features |= FeatMember
			if v.Computed {
				r.Features |= FeatComputedMember
			}
		case *ast.CallExpr:
			r.Features |= FeatCall
			if name, ok := calleePath(v.Callee); ok {
				switch name {
				case "Math.random":
					r.Flags |= FlagMathRandom
				case "Date.now":
					r.Flags |= FlagDate
				}
			}
		case *ast.ObjectLit:
			r.Features |= FeatObject
			for _, p := range v.Props {
				if p.Kind != ast.PropInit {
					r.Features |= FeatAccessor
				}
			}
		case *ast.ArrayLit:
			r.Features |= FeatArray
		case *ast.StringLit:
			r.Features |= FeatString
		case *ast.NumberLit:
			r.Features |= FeatNumber
			if floatFormatEdge(v) {
				r.Flags |= FlagFloatFormat
			}
		case *ast.BoolLit:
			r.Features |= FeatBool
		case *ast.NullLit:
			r.Features |= FeatNull
		case *ast.UpdateExpr:
			r.Features |= FeatUpdate
		case *ast.LogicalExpr:
			r.Features |= FeatLogical
		case *ast.CondExpr:
			r.Features |= FeatCond
		case *ast.SeqExpr:
			r.Features |= FeatSeq
		}
		return true
	})
}

// scanFunc records the per-function feature and flag bits: rest
// parameters, nested functions, strict bodies and direct recursion.
func scanFunc(fn *ast.FuncLit, r *Report) {
	if fn.Rest != "" {
		r.Features |= FeatRest
	}
	if fn.Strict {
		r.Features |= FeatStrict
	}
	name := fn.Name
	var body ast.Node
	if fn.Body != nil {
		body = fn.Body
	} else if fn.ExprBody != nil {
		body = fn.ExprBody
	}
	ast.Walk(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			r.Features |= FeatNestedFunction
		case *ast.CallExpr:
			if id, ok := v.Callee.(*ast.Ident); ok && name != "" && id.Name == name {
				r.Features |= FeatRecursion
				r.Flags |= FlagRecursion
			}
		}
		return true
	})
}

// calleePath renders a callee like Math.random as "Math.random" when it
// is a non-computed member of a plain identifier.
func calleePath(callee ast.Expr) (string, bool) {
	m, ok := callee.(*ast.MemberExpr)
	if !ok {
		return "", false
	}
	return memberPath(m)
}

func memberPath(m *ast.MemberExpr) (string, bool) {
	if m.Computed {
		return "", false
	}
	base, ok := m.Obj.(*ast.Ident)
	if !ok {
		return "", false
	}
	return base.Name + "." + m.Name, true
}

// floatFormatEdge reports whether a numeric literal sits at the
// float64 precision edge: a fractional or exponent form carrying more
// than 15 significant decimal digits, where shortest-round-trip
// formatting legitimately differs between engines.
func floatFormatEdge(lit *ast.NumberLit) bool {
	raw := lit.Raw
	if raw == "" || lit.Value != lit.Value { // no raw text, or NaN
		return false
	}
	if !strings.ContainsAny(raw, ".eE") || strings.HasPrefix(raw, "0x") || strings.HasPrefix(raw, "0X") {
		return false
	}
	if math.Trunc(lit.Value) == lit.Value && math.Abs(lit.Value) < 1e15 {
		// Small integers render identically everywhere regardless of how
		// many digits spelled them.
		return false
	}
	digits := 0
	sawNonZero := false
	for _, c := range raw {
		if c == 'e' || c == 'E' {
			break
		}
		if c < '0' || c > '9' {
			continue
		}
		if c == '0' && !sawNonZero {
			continue
		}
		sawNonZero = true
		digits++
	}
	return digits > 15
}
