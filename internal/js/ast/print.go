package ast

import (
	"fmt"
	"strings"

	"comfort/internal/js/jsnum"
	"comfort/internal/js/token"
)

// Print renders the tree rooted at n back to JavaScript source. The output
// re-parses to an equivalent tree; sub-expressions are parenthesised
// conservatively rather than minimally.
func Print(n Node) string {
	var p printer
	p.node(n)
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) ws(s string) { p.b.WriteString(s) }

func (p *printer) nl() {
	p.b.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("  ")
	}
}

func (p *printer) node(n Node) {
	switch v := n.(type) {
	case *Program:
		for i, s := range v.Body {
			if i > 0 {
				p.nl()
			}
			p.stmt(s)
		}
	case Stmt:
		p.stmt(v)
	case Expr:
		p.expr(v)
	}
}

func (p *printer) stmt(s Stmt) {
	switch v := s.(type) {
	case *VarDecl:
		p.ws(v.Kind.String())
		p.ws(" ")
		for i, d := range v.Decls {
			if i > 0 {
				p.ws(", ")
			}
			p.ws(d.Name)
			if d.Init != nil {
				p.ws(" = ")
				p.assignRHS(d.Init)
			}
		}
		p.ws(";")
	case *FuncDecl:
		p.funcLit(v.Fn)
	case *ExprStmt:
		// Function and object expressions at statement position need parens.
		switch v.X.(type) {
		case *FuncLit, *ObjectLit:
			p.ws("(")
			p.expr(v.X)
			p.ws(")")
		default:
			p.expr(v.X)
		}
		p.ws(";")
	case *BlockStmt:
		p.block(v)
	case *IfStmt:
		p.ws("if (")
		p.expr(v.Cond)
		p.ws(") ")
		p.nested(v.Then)
		if v.Else != nil {
			p.ws(" else ")
			p.nested(v.Else)
		}
	case *ForStmt:
		p.ws("for (")
		switch init := v.Init.(type) {
		case *VarDecl:
			p.ws(init.Kind.String())
			p.ws(" ")
			for i, d := range init.Decls {
				if i > 0 {
					p.ws(", ")
				}
				p.ws(d.Name)
				if d.Init != nil {
					p.ws(" = ")
					p.assignRHS(d.Init)
				}
			}
		case Expr:
			p.expr(init)
		}
		p.ws("; ")
		if v.Cond != nil {
			p.expr(v.Cond)
		}
		p.ws("; ")
		if v.Post != nil {
			p.expr(v.Post)
		}
		p.ws(") ")
		p.nested(v.Body)
	case *ForInStmt:
		p.ws("for (")
		if v.Decl >= 0 {
			p.ws(v.Decl.String())
			p.ws(" ")
		}
		p.ws(v.Name)
		if v.Of {
			p.ws(" of ")
		} else {
			p.ws(" in ")
		}
		p.expr(v.Obj)
		p.ws(") ")
		p.nested(v.Body)
	case *WhileStmt:
		p.ws("while (")
		p.expr(v.Cond)
		p.ws(") ")
		p.nested(v.Body)
	case *DoWhileStmt:
		p.ws("do ")
		p.nested(v.Body)
		p.ws(" while (")
		p.expr(v.Cond)
		p.ws(");")
	case *SwitchStmt:
		p.ws("switch (")
		p.expr(v.Disc)
		p.ws(") {")
		p.indent++
		for _, c := range v.Cases {
			p.nl()
			if c.Test != nil {
				p.ws("case ")
				p.expr(c.Test)
				p.ws(":")
			} else {
				p.ws("default:")
			}
			p.indent++
			for _, s := range c.Body {
				p.nl()
				p.stmt(s)
			}
			p.indent--
		}
		p.indent--
		p.nl()
		p.ws("}")
	case *BreakStmt:
		p.ws("break")
		if v.Label != "" {
			p.ws(" " + v.Label)
		}
		p.ws(";")
	case *ContinueStmt:
		p.ws("continue")
		if v.Label != "" {
			p.ws(" " + v.Label)
		}
		p.ws(";")
	case *ReturnStmt:
		p.ws("return")
		if v.X != nil {
			p.ws(" ")
			p.expr(v.X)
		}
		p.ws(";")
	case *ThrowStmt:
		p.ws("throw ")
		p.expr(v.X)
		p.ws(";")
	case *TryStmt:
		p.ws("try ")
		p.block(v.Block)
		if v.Catch != nil {
			p.ws(" catch (")
			p.ws(v.CatchParam)
			p.ws(") ")
			p.block(v.Catch)
		}
		if v.Finally != nil {
			p.ws(" finally ")
			p.block(v.Finally)
		}
	case *LabeledStmt:
		p.ws(v.Label)
		p.ws(": ")
		p.stmt(v.Body)
	case *EmptyStmt:
		p.ws(";")
	case *DebuggerStmt:
		p.ws("debugger;")
	default:
		p.ws(fmt.Sprintf("/* unknown stmt %T */", s))
	}
}

// nested prints a statement used as a loop/if body, placing blocks inline
// and other statements on the same line.
func (p *printer) nested(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		return
	}
	p.stmt(s)
}

func (p *printer) block(b *BlockStmt) {
	p.ws("{")
	p.indent++
	for _, s := range b.Body {
		p.nl()
		p.stmt(s)
	}
	p.indent--
	p.nl()
	p.ws("}")
}

func (p *printer) funcLit(f *FuncLit) {
	if f.Arrow {
		p.ws("(")
		p.params(f)
		p.ws(") => ")
		if f.ExprBody != nil {
			// Object literals in arrow expression bodies need parentheses.
			if _, isObj := f.ExprBody.(*ObjectLit); isObj {
				p.ws("(")
				p.expr(f.ExprBody)
				p.ws(")")
			} else {
				p.assignRHS(f.ExprBody)
			}
			return
		}
		p.block(f.Body)
		return
	}
	p.ws("function")
	if f.Name != "" {
		p.ws(" " + f.Name)
	}
	p.ws("(")
	p.params(f)
	p.ws(") ")
	p.block(f.Body)
}

func (p *printer) params(f *FuncLit) {
	for i, prm := range f.Params {
		if i > 0 {
			p.ws(", ")
		}
		p.ws(prm)
	}
	if f.Rest != "" {
		if len(f.Params) > 0 {
			p.ws(", ")
		}
		p.ws("..." + f.Rest)
	}
}

// assignRHS prints an expression in assignment-value position, where a
// top-level sequence expression would change meaning without parentheses.
func (p *printer) assignRHS(e Expr) {
	if _, ok := e.(*SeqExpr); ok {
		p.ws("(")
		p.expr(e)
		p.ws(")")
		return
	}
	p.expr(e)
}

func (p *printer) expr(e Expr) {
	switch v := e.(type) {
	case *Ident:
		p.ws(v.Name)
	case *NumberLit:
		if v.Raw != "" {
			p.ws(v.Raw)
		} else {
			p.ws(jsnum.Format(v.Value))
		}
	case *StringLit:
		p.ws(QuoteJS(v.Value))
	case *BoolLit:
		if v.Value {
			p.ws("true")
		} else {
			p.ws("false")
		}
	case *NullLit:
		p.ws("null")
	case *RegexLit:
		p.ws("/" + v.Pattern + "/" + v.Flags)
	case *TemplateLit:
		p.ws("`")
		for i, q := range v.Quasis {
			p.ws(escapeTemplate(q))
			if i < len(v.Exprs) {
				p.ws("${")
				p.expr(v.Exprs[i])
				p.ws("}")
			}
		}
		p.ws("`")
	case *ArrayLit:
		p.ws("[")
		for i, el := range v.Elems {
			if i > 0 {
				p.ws(", ")
			}
			if el != nil {
				p.assignRHS(el)
			}
		}
		if n := len(v.Elems); n > 0 && v.Elems[n-1] == nil {
			// A trailing hole needs its own comma: [1, ,] has length 2,
			// while [1, ] has length 1.
			p.ws(",")
		}
		p.ws("]")
	case *ObjectLit:
		p.ws("{")
		for i, prop := range v.Props {
			if i > 0 {
				p.ws(", ")
			}
			switch prop.Kind {
			case PropGet:
				p.ws("get ")
			case PropSet:
				p.ws("set ")
			}
			if prop.Computed {
				p.ws("[")
				p.expr(prop.KeyExpr)
				p.ws("]")
			} else if isValidIdentName(prop.Key) {
				p.ws(prop.Key)
			} else {
				p.ws(QuoteJS(prop.Key))
			}
			if prop.Kind == PropInit {
				p.ws(": ")
				p.assignRHS(prop.Value)
			} else {
				fn := prop.Value.(*FuncLit)
				p.ws("(")
				p.params(fn)
				p.ws(") ")
				p.block(fn.Body)
			}
		}
		p.ws("}")
	case *FuncLit:
		p.funcLit(v)
	case *UnaryExpr:
		p.ws(v.Op.String())
		switch v.Op {
		case token.TYPEOF, token.VOID, token.DELETE:
			p.ws(" ")
		}
		p.paren(v.X)
	case *UpdateExpr:
		if v.Prefix {
			p.ws(v.Op.String())
			p.paren(v.X)
		} else {
			p.paren(v.X)
			p.ws(v.Op.String())
		}
	case *BinaryExpr:
		p.paren(v.L)
		p.ws(" " + v.Op.String() + " ")
		p.paren(v.R)
	case *LogicalExpr:
		p.paren(v.L)
		p.ws(" " + v.Op.String() + " ")
		p.paren(v.R)
	case *AssignExpr:
		p.expr(v.L)
		p.ws(" " + v.Op.String() + " ")
		p.assignRHS(v.R)
	case *CondExpr:
		p.paren(v.Cond)
		p.ws(" ? ")
		p.paren(v.Then)
		p.ws(" : ")
		p.paren(v.Else)
	case *CallExpr:
		p.callee(v.Callee)
		p.ws("(")
		for i, a := range v.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.assignRHS(a)
		}
		p.ws(")")
	case *NewExpr:
		p.ws("new ")
		p.callee(v.Callee)
		p.ws("(")
		for i, a := range v.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.assignRHS(a)
		}
		p.ws(")")
	case *MemberExpr:
		p.callee(v.Obj)
		if v.Computed {
			p.ws("[")
			p.expr(v.Prop)
			p.ws("]")
		} else {
			p.ws("." + v.Name)
		}
	case *SeqExpr:
		for i, x := range v.Exprs {
			if i > 0 {
				p.ws(", ")
			}
			p.paren(x)
		}
	case *SpreadExpr:
		p.ws("...")
		p.paren(v.X)
	case *ThisExpr:
		p.ws("this")
	default:
		p.ws(fmt.Sprintf("/* unknown expr %T */", e))
	}
}

// paren prints e, wrapping non-atomic expressions in parentheses. This is
// deliberately conservative: correctness over minimality.
func (p *printer) paren(e Expr) {
	switch e.(type) {
	case *Ident, *NumberLit, *StringLit, *BoolLit, *NullLit, *ThisExpr,
		*ArrayLit, *TemplateLit, *RegexLit, *CallExpr, *MemberExpr, *NewExpr:
		p.expr(e)
	default:
		p.ws("(")
		p.expr(e)
		p.ws(")")
	}
}

// callee prints an expression in callee/member-object position.
func (p *printer) callee(e Expr) {
	switch e.(type) {
	case *Ident, *CallExpr, *MemberExpr, *ThisExpr, *ArrayLit, *StringLit,
		*TemplateLit, *RegexLit:
		p.expr(e)
	default:
		p.ws("(")
		p.expr(e)
		p.ws(")")
	}
}

func escapeTemplate(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "`", "\\`")
	s = strings.ReplaceAll(s, "${", "\\${")
	return s
}

func isValidIdentName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !(r == '_' || r == '$' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')) {
				return false
			}
		} else if !(r == '_' || r == '$' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return token.Lookup(s) == token.IDENT
}

// QuoteJS renders s as a double-quoted JavaScript string literal.
func QuoteJS(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString("\\\"")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\t':
			b.WriteString("\\t")
		case '\b':
			b.WriteString("\\b")
		case '\f':
			b.WriteString("\\f")
		case '\v':
			b.WriteString("\\v")
		case 0:
			b.WriteString("\\0")
		default:
			if r < 0x20 {
				b.WriteString(fmt.Sprintf("\\x%02x", r))
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
