// Package parser implements a recursive-descent parser for the JavaScript
// subset, with automatic semicolon insertion, strict-mode early errors, and
// leniency options used by seeded engine defects of the "Parser" component.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"comfort/internal/js/ast"
	"comfort/internal/js/jsnum"
	"comfort/internal/js/lexer"
	"comfort/internal/js/token"
)

// Options alter parser strictness. Real engines differ in exactly these
// kinds of corner cases, which is what the seeded Parser-component defects
// exploit.
type Options struct {
	// AllowEmptyForBody accepts `for(;;)` with no body statement at all
	// (the ChakraCore eval defect from the paper's Listing 7).
	AllowEmptyForBody bool
	// AllowDuplicateParams suppresses the strict-mode duplicate-parameter
	// early error.
	AllowDuplicateParams bool
	// AllowLegacyOctal accepts 0-prefixed octal literals in strict mode.
	AllowLegacyOctal bool
	// AllowReservedIdent accepts a few reserved words as identifiers.
	AllowReservedIdent bool
	// AllowSloppyDelete accepts `delete identifier` in strict mode.
	AllowSloppyDelete bool
	// AllowEvalArgumentsAssign accepts assignments to eval/arguments in
	// strict mode.
	AllowEvalArgumentsAssign bool
	// Strict forces strict parsing regardless of directives.
	Strict bool
}

// Fingerprint packs the option set into a cache key: two option values with
// equal fingerprints parse every program identically, so parse results may
// be shared between them (the scheduler's parse-once cache relies on this).
func (o Options) Fingerprint() uint64 {
	var fp uint64
	for i, b := range []bool{
		o.AllowEmptyForBody,
		o.AllowDuplicateParams,
		o.AllowLegacyOctal,
		o.AllowReservedIdent,
		o.AllowSloppyDelete,
		o.AllowEvalArgumentsAssign,
		o.Strict,
	} {
		if b {
			fp |= 1 << uint(i)
		}
	}
	return fp
}

// SyntaxError is a parse-time error with a position.
type SyntaxError struct {
	Pos token.Pos
	Msg string
	// lenient marks a rejection some lenient option would have waived
	// (see LenientMayAccept).
	lenient bool
}

// LenientMayAccept reports whether err is a rejection that a lenient
// option (any Options field but Strict) would have waived. Each lenient
// option is consulted only on a path that fails without it, and a failure
// ends the parse, so a parse under Options{Strict} that succeeded, or
// failed with an error for which this is false, takes the same path —
// same tree and node IDs, or the same error — under every lenient option
// set of its mode. The scheduler parses a case once, for both modes, under
// the base options on that basis (TestLenientOptionsOnlyAccept pins it).
func LenientMayAccept(err error) bool {
	se, ok := err.(*SyntaxError)
	return ok && se.lenient
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("SyntaxError: %s (at %s)", e.Msg, e.Pos)
}

// Parse parses src with default options.
func Parse(src string) (*ast.Program, error) { return ParseWith(src, Options{}) }

// ParseWith parses src under the supplied options.
func ParseWith(src string, opts Options) (*ast.Program, error) {
	p := &parser{lex: lexer.New(src), opts: opts, strict: opts.Strict}
	return p.parse()
}

// Modes is one parse's result for both modes: normal mode's tree and
// error, and strict mode's error.
//
// Prog.Strict and FuncLit.Strict carry only the strictness the source's
// "use strict" directives give; a strict-mode run makes all code strict
// itself (interp.Config.Strict).
type Modes struct {
	Prog      *ast.Program
	Err       error
	StrictErr error
}

// Mode returns the parse as ParseWith would under the given mode, up to
// the Strict flags: the same error, or a tree with the same nodes and
// node IDs.
func (m Modes) Mode(strict bool) (*ast.Program, error) {
	if strict && m.StrictErr != nil {
		return nil, m.StrictErr
	}
	return m.Prog, m.Err
}

// ParseModes parses src once for both modes under opts' lenient options
// (opts.Strict is ignored). The parse is the normal-mode one; at each
// strict-only early error it waives, it keeps the first such error. Strict
// mode differs from normal mode only in those errors and in the Strict
// flags, never in which tokens a construct consumes, so strict mode would
// have failed at the first waived error and otherwise parses to the same
// tree or fails with the same error (TestParseModesMatchesStrict pins it).
func ParseModes(src string, opts Options) Modes {
	opts.Strict = false
	p := &parser{lex: lexer.New(src), opts: opts}
	prog, err := p.parse()
	m := Modes{Prog: prog, Err: err, StrictErr: err}
	if p.waived != nil {
		m.StrictErr = p.waived
	}
	return m
}

// parse runs the parser over its whole source.
func (p *parser) parse() (prog *ast.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*SyntaxError); ok {
				prog, err = nil, se
				return
			}
			panic(r)
		}
	}()
	p.next()
	p.next()
	prog = p.parseProgram()
	if errs := p.lex.Errors(); len(errs) > 0 {
		return nil, &SyntaxError{Pos: errs[0].Pos, Msg: errs[0].Msg}
	}
	return prog, nil
}

// ParseExprString parses a single expression, as needed by template-literal
// substitutions and synthetic AST construction.
func ParseExprString(src string) (ast.Expr, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Body) != 1 {
		return nil, &SyntaxError{Msg: "expected a single expression"}
	}
	es, ok := prog.Body[0].(*ast.ExprStmt)
	if !ok {
		return nil, &SyntaxError{Msg: "expected an expression statement"}
	}
	return es.X, nil
}

type parser struct {
	lex    *lexer.Lexer
	cur    token.Token
	peek   token.Token
	opts   Options
	strict bool
	// waived is the first strict-only early error sloppy code let pass.
	waived   *SyntaxError
	nextID   int
	inFunc   int
	inLoop   int
	inSwitch int
}

func (p *parser) next() {
	p.cur = p.peek
	p.peek = p.lex.Next()
}

func (p *parser) fail(format string, args ...interface{}) {
	panic(&SyntaxError{Pos: p.cur.Pos, Msg: fmt.Sprintf(format, args...)})
}

// failLenient is fail at a site a lenient option would have let pass.
func (p *parser) failLenient(format string, args ...interface{}) {
	panic(&SyntaxError{Pos: p.cur.Pos, Msg: fmt.Sprintf(format, args...), lenient: true})
}

// strictOnly reports a violation of an early error that only strict code
// has. In strict code it fails, as failLenient when lenient is set, else
// as fail; in sloppy code it keeps the first such error (see ParseModes).
func (p *parser) strictOnly(strict, lenient bool, format string, args ...interface{}) {
	if !strict && p.waived != nil {
		return
	}
	err := &SyntaxError{Pos: p.cur.Pos, Msg: fmt.Sprintf(format, args...), lenient: lenient}
	if strict {
		panic(err)
	}
	p.waived = err
}

func (p *parser) expect(t token.Type) token.Token {
	if p.cur.Type != t {
		p.fail("expected %q but found %q", t.String(), p.cur.String())
	}
	tok := p.cur
	p.next()
	return tok
}

// reg assigns the next node ID to n. Positions are set by callers via the
// exported fields.
func (p *parser) reg(n ast.Node) {
	p.nextID++
	ast.SetID(n, p.nextID)
}

// semicolon consumes a statement terminator, applying ASI.
func (p *parser) semicolon() {
	switch p.cur.Type {
	case token.SEMI:
		p.next()
	case token.RBRACE, token.EOF:
		// ASI before '}' or EOF.
	default:
		if p.cur.NewlineBefore {
			return // ASI at newline
		}
		p.fail("missing semicolon before %q", p.cur.String())
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	p.reg(prog)
	prog.Body, prog.Strict = p.parseSourceBody(p.strict)
	if p.cur.Type != token.EOF {
		p.fail("unexpected token %q", p.cur.String())
	}
	prog.NodeCount = p.nextID
	return prog
}

// parseSourceBody parses a statement list until EOF/'}' handling the
// directive prologue; it returns the statements and whether strict mode is
// in force for the body.
func (p *parser) parseSourceBody(inheritStrict bool) ([]ast.Stmt, bool) {
	var body []ast.Stmt
	strict := inheritStrict
	prologue := true
	savedStrict := p.strict
	p.strict = strict
	for p.cur.Type != token.EOF && p.cur.Type != token.RBRACE {
		s := p.parseStatement()
		if prologue {
			if es, ok := s.(*ast.ExprStmt); ok && es.Directive != "" {
				if es.Directive == "use strict" {
					strict = true
					p.strict = true
				}
			} else {
				prologue = false
			}
		}
		body = append(body, s)
	}
	p.strict = savedStrict
	return body, strict
}

func (p *parser) parseStatement() ast.Stmt {
	switch p.cur.Type {
	case token.VAR, token.LET, token.CONST:
		return p.parseVarDecl(true)
	case token.FUNCTION:
		return p.parseFuncDecl()
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		return p.parseIf()
	case token.FOR:
		return p.parseFor()
	case token.WHILE:
		return p.parseWhile()
	case token.DO:
		return p.parseDoWhile()
	case token.SWITCH:
		return p.parseSwitch()
	case token.BREAK:
		return p.parseBreakContinue(true)
	case token.CONTINUE:
		return p.parseBreakContinue(false)
	case token.RETURN:
		return p.parseReturn()
	case token.THROW:
		return p.parseThrow()
	case token.TRY:
		return p.parseTry()
	case token.SEMI:
		n := &ast.EmptyStmt{}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.DEBUGGER:
		n := &ast.DebuggerStmt{}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		p.semicolon()
		return n
	case token.IDENT:
		if p.peek.Type == token.COLON {
			return p.parseLabeled()
		}
	case token.CLASS:
		p.fail("class declarations are not supported by this engine family")
	}
	return p.parseExprStmt()
}

func (p *parser) parseVarDecl(consumeSemi bool) *ast.VarDecl {
	n := &ast.VarDecl{}
	n.P = p.cur.Pos
	p.reg(n)
	switch p.cur.Type {
	case token.LET:
		n.Kind = ast.Let
	case token.CONST:
		n.Kind = ast.Const
	default:
		n.Kind = ast.Var
	}
	p.next()
	for {
		name := p.parseBindingName()
		var init ast.Expr
		if p.cur.Type == token.ASSIGN {
			p.next()
			init = p.parseAssign()
		} else if n.Kind == ast.Const {
			p.fail("missing initializer in const declaration")
		}
		n.Decls = append(n.Decls, ast.Declarator{Name: name, Init: init})
		if p.cur.Type != token.COMMA {
			break
		}
		p.next()
	}
	if consumeSemi {
		p.semicolon()
	}
	return n
}

func (p *parser) parseBindingName() string {
	if p.cur.Type != token.IDENT {
		if p.cur.Type.IsKeyword() {
			if p.opts.AllowReservedIdent {
				name := p.cur.Literal
				p.next()
				return name
			}
			p.failLenient("expected binding identifier, found %q", p.cur.String())
		}
		p.fail("expected binding identifier, found %q", p.cur.String())
	}
	name := p.cur.Literal
	if name == "eval" || name == "arguments" {
		p.strictOnly(p.strict, false, "unexpected eval or arguments in strict mode")
	}
	p.next()
	return name
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	n := &ast.FuncDecl{}
	n.P = p.cur.Pos
	p.reg(n)
	n.Fn = p.parseFunction(true)
	return n
}

// parseFunction parses "function name? (params) { body }". The caller has
// not consumed the function keyword.
func (p *parser) parseFunction(declaration bool) *ast.FuncLit {
	fn := &ast.FuncLit{}
	fn.P = p.cur.Pos
	p.reg(fn)
	p.expect(token.FUNCTION)
	if p.cur.Type == token.IDENT {
		fn.Name = p.cur.Literal
		if fn.Name == "eval" || fn.Name == "arguments" {
			p.strictOnly(p.strict, false, "unexpected eval or arguments in strict mode")
		}
		p.next()
	} else if declaration {
		p.fail("function declaration requires a name")
	}
	p.parseParams(fn)
	p.expect(token.LBRACE)
	p.inFunc++
	savedLoop, savedSwitch := p.inLoop, p.inSwitch
	p.inLoop, p.inSwitch = 0, 0
	body := &ast.BlockStmt{}
	body.P = p.cur.Pos
	p.reg(body)
	body.Body, fn.Strict = p.parseSourceBody(p.strict)
	p.inLoop, p.inSwitch = savedLoop, savedSwitch
	p.inFunc--
	p.expect(token.RBRACE)
	fn.Body = body
	p.simpleParamsIfStrict(fn)
	p.strictBindings(fn, fn.Name)
	if prm, dup := firstDuplicate(fn); dup {
		switch {
		case fn.Rest != "":
			// A parameter list that is not simple rejects them in
			// either mode.
			p.fail("duplicate parameter name %q not allowed here", prm)
		case !p.opts.AllowDuplicateParams:
			// A function with its own "use strict" rejects them in
			// either mode.
			p.strictOnly(p.strict || fn.Strict, true, "duplicate parameter name %q not allowed in strict mode", prm)
		}
	}
	return fn
}

// strictBindings fails on a parameter of fn, or its binding name, that is
// eval or arguments when fn's own "use strict" directive makes them strict
// code in sloppy code; strict code rejected them as they were parsed.
func (p *parser) strictBindings(fn *ast.FuncLit, name string) {
	if !fn.Strict || p.strict {
		return
	}
	bad := name == "eval" || name == "arguments" || fn.Rest == "eval" || fn.Rest == "arguments"
	for _, prm := range fn.Params {
		bad = bad || prm == "eval" || prm == "arguments"
	}
	if bad {
		p.strictOnly(true, false, "unexpected eval or arguments in strict mode")
	}
}

// simpleParamsIfStrict fails on a function whose own directive prologue
// holds "use strict" while its parameter list is not simple (a rest
// parameter, the one non-simple form this subset parses): an early
// SyntaxError in either mode (15.2.1, 15.3.1, 15.4.1), however strict
// the enclosing code.
func (p *parser) simpleParamsIfStrict(fn *ast.FuncLit) {
	if fn.Rest == "" {
		return
	}
	for _, s := range fn.Body.Body {
		es, ok := s.(*ast.ExprStmt)
		if !ok || es.Directive == "" {
			return
		}
		if es.Directive == "use strict" {
			p.fail(`"use strict" not allowed in a function with a non-simple parameter list`)
		}
	}
}

// uniqueParams fails on a duplicate parameter of an arrow function or a
// method: their parameter lists are UniqueFormalParameters, which reject
// one in either mode.
func (p *parser) uniqueParams(fn *ast.FuncLit) {
	if prm, dup := firstDuplicate(fn); dup {
		p.fail("duplicate parameter name %q not allowed here", prm)
	}
}

// firstDuplicate returns the first of fn's parameter names, the rest
// parameter last, that repeats an earlier one.
func firstDuplicate(fn *ast.FuncLit) (string, bool) {
	for i, name := range fn.Params {
		for _, prev := range fn.Params[:i] {
			if prev == name {
				return name, true
			}
		}
	}
	for _, prev := range fn.Params {
		if prev == fn.Rest {
			return prev, true
		}
	}
	return "", false
}

func (p *parser) parseParams(fn *ast.FuncLit) {
	p.expect(token.LPAREN)
	for p.cur.Type != token.RPAREN {
		if p.cur.Type == token.ELLIPSIS {
			p.next()
			fn.Rest = p.parseBindingName()
			break
		}
		fn.Params = append(fn.Params, p.parseBindingName())
		if p.cur.Type != token.COMMA {
			break
		}
		p.next()
	}
	p.expect(token.RPAREN)
}

func (p *parser) parseBlock() *ast.BlockStmt {
	n := &ast.BlockStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.LBRACE)
	for p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
		n.Body = append(n.Body, p.parseStatement())
	}
	p.expect(token.RBRACE)
	return n
}

func (p *parser) parseIf() *ast.IfStmt {
	n := &ast.IfStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.IF)
	p.expect(token.LPAREN)
	n.Cond = p.parseExpression()
	p.expect(token.RPAREN)
	n.Then = p.parseStatement()
	if p.cur.Type == token.ELSE {
		p.next()
		n.Else = p.parseStatement()
	}
	return n
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.cur.Pos
	p.expect(token.FOR)
	p.expect(token.LPAREN)
	// for-in / for-of detection.
	if p.cur.Type == token.VAR || p.cur.Type == token.LET || p.cur.Type == token.CONST {
		kind := ast.Var
		switch p.cur.Type {
		case token.LET:
			kind = ast.Let
		case token.CONST:
			kind = ast.Const
		}
		if p.peek.Type == token.IDENT {
			// Look ahead two tokens for `in`/`of`, restoring both parser and
			// lexer state if the lookahead fails.
			save := *p
			savedLex := *p.lex
			p.next()
			name := p.cur.Literal
			p.next()
			if p.cur.Type == token.IN || (p.cur.Type == token.IDENT && p.cur.Literal == "of") {
				of := p.cur.Type != token.IN
				p.next()
				n := &ast.ForInStmt{Decl: kind, Name: name, Of: of}
				n.P = pos
				p.reg(n)
				n.Obj = p.parseAssign()
				p.expect(token.RPAREN)
				n.Body = p.parseLoopBody()
				return n
			}
			*p = save
			*p.lex = savedLex
		}
		init := p.parseVarDecl(false)
		return p.parseForRest(pos, init)
	}
	if p.cur.Type == token.IDENT && (p.peek.Type == token.IN || (p.peek.Type == token.IDENT && p.peek.Literal == "of")) {
		name := p.cur.Literal
		p.next()
		of := p.cur.Type != token.IN
		p.next()
		n := &ast.ForInStmt{Decl: -1, Name: name, Of: of}
		n.P = pos
		p.reg(n)
		n.Obj = p.parseAssign()
		p.expect(token.RPAREN)
		n.Body = p.parseLoopBody()
		return n
	}
	var init ast.Node
	if p.cur.Type != token.SEMI {
		init = p.parseExpression()
	}
	return p.parseForRest(pos, init)
}

func (p *parser) parseForRest(pos token.Pos, init ast.Node) *ast.ForStmt {
	n := &ast.ForStmt{Init: init}
	n.P = pos
	p.reg(n)
	p.expect(token.SEMI)
	if p.cur.Type != token.SEMI {
		n.Cond = p.parseExpression()
	}
	p.expect(token.SEMI)
	if p.cur.Type != token.RPAREN {
		n.Post = p.parseExpression()
	}
	p.expect(token.RPAREN)
	n.Body = p.parseLoopBody()
	return n
}

// parseLoopBody parses a loop body statement, honouring the
// AllowEmptyForBody leniency (a seeded parser defect site).
func (p *parser) parseLoopBody() ast.Stmt {
	if p.cur.Type == token.RBRACE || p.cur.Type == token.EOF {
		if p.opts.AllowEmptyForBody {
			n := &ast.EmptyStmt{}
			n.P = p.cur.Pos
			p.reg(n)
			return n
		}
		p.failLenient("missing loop body")
	}
	p.inLoop++
	defer func() { p.inLoop-- }()
	return p.parseStatement()
}

func (p *parser) parseWhile() *ast.WhileStmt {
	n := &ast.WhileStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	n.Cond = p.parseExpression()
	p.expect(token.RPAREN)
	n.Body = p.parseLoopBody()
	return n
}

func (p *parser) parseDoWhile() *ast.DoWhileStmt {
	n := &ast.DoWhileStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.DO)
	p.inLoop++
	n.Body = p.parseStatement()
	p.inLoop--
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	n.Cond = p.parseExpression()
	p.expect(token.RPAREN)
	if p.cur.Type == token.SEMI {
		p.next()
	}
	return n
}

func (p *parser) parseSwitch() *ast.SwitchStmt {
	n := &ast.SwitchStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.SWITCH)
	p.expect(token.LPAREN)
	n.Disc = p.parseExpression()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	p.inSwitch++
	sawDefault := false
	for p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
		c := &ast.SwitchCase{}
		c.P = p.cur.Pos
		p.reg(c)
		if p.cur.Type == token.CASE {
			p.next()
			c.Test = p.parseExpression()
		} else if p.cur.Type == token.DEFAULT {
			if sawDefault {
				p.fail("more than one default clause in switch statement")
			}
			sawDefault = true
			p.next()
		} else {
			p.fail("expected case or default in switch body")
		}
		p.expect(token.COLON)
		for p.cur.Type != token.CASE && p.cur.Type != token.DEFAULT &&
			p.cur.Type != token.RBRACE && p.cur.Type != token.EOF {
			c.Body = append(c.Body, p.parseStatement())
		}
		n.Cases = append(n.Cases, c)
	}
	p.inSwitch--
	p.expect(token.RBRACE)
	return n
}

func (p *parser) parseBreakContinue(isBreak bool) ast.Stmt {
	pos := p.cur.Pos
	p.next()
	label := ""
	if p.cur.Type == token.IDENT && !p.cur.NewlineBefore {
		label = p.cur.Literal
		p.next()
	}
	if isBreak {
		if label == "" && p.inLoop == 0 && p.inSwitch == 0 {
			p.fail("illegal break statement")
		}
		n := &ast.BreakStmt{Label: label}
		n.P = pos
		p.reg(n)
		p.semicolon()
		return n
	}
	if label == "" && p.inLoop == 0 {
		p.fail("illegal continue statement")
	}
	n := &ast.ContinueStmt{Label: label}
	n.P = pos
	p.reg(n)
	p.semicolon()
	return n
}

func (p *parser) parseReturn() *ast.ReturnStmt {
	if p.inFunc == 0 {
		p.fail("return statement outside of function")
	}
	n := &ast.ReturnStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.next()
	if p.cur.Type != token.SEMI && p.cur.Type != token.RBRACE &&
		p.cur.Type != token.EOF && !p.cur.NewlineBefore {
		n.X = p.parseExpression()
	}
	p.semicolon()
	return n
}

func (p *parser) parseThrow() *ast.ThrowStmt {
	n := &ast.ThrowStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.next()
	if p.cur.NewlineBefore {
		p.fail("illegal newline after throw")
	}
	n.X = p.parseExpression()
	p.semicolon()
	return n
}

func (p *parser) parseTry() *ast.TryStmt {
	n := &ast.TryStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.TRY)
	n.Block = p.parseBlock()
	if p.cur.Type == token.CATCH {
		p.next()
		if p.cur.Type == token.LPAREN {
			p.next()
			n.CatchParam = p.parseBindingName()
			p.expect(token.RPAREN)
		}
		n.Catch = p.parseBlock()
	}
	if p.cur.Type == token.FINALLY {
		p.next()
		n.Finally = p.parseBlock()
	}
	if n.Catch == nil && n.Finally == nil {
		p.fail("missing catch or finally after try")
	}
	return n
}

func (p *parser) parseLabeled() *ast.LabeledStmt {
	n := &ast.LabeledStmt{Label: p.cur.Literal}
	n.P = p.cur.Pos
	p.reg(n)
	p.next()   // ident
	p.next()   // colon
	p.inLoop++ // labels are usually loop labels; keep break/continue legal
	n.Body = p.parseStatement()
	p.inLoop--
	return n
}

func (p *parser) parseExprStmt() *ast.ExprStmt {
	n := &ast.ExprStmt{}
	n.P = p.cur.Pos
	p.reg(n)
	isString := p.cur.Type == token.STRING
	raw := p.cur.Literal
	n.X = p.parseExpression()
	if isString {
		if lit, ok := n.X.(*ast.StringLit); ok && lit.Value == raw {
			n.Directive = raw
		}
	}
	p.semicolon()
	return n
}

// ---------- Expressions ----------

func (p *parser) parseExpression() ast.Expr {
	e := p.parseAssign()
	if p.cur.Type != token.COMMA {
		return e
	}
	n := &ast.SeqExpr{Exprs: []ast.Expr{e}}
	n.P = e.Pos()
	p.reg(n)
	for p.cur.Type == token.COMMA {
		p.next()
		n.Exprs = append(n.Exprs, p.parseAssign())
	}
	return n
}

func isAssignOp(t token.Type) bool {
	switch t {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN, token.STARASSIGN,
		token.SLASHASSIGN, token.PERCENTASSIGN, token.POWASSIGN,
		token.SHLASSIGN, token.SHRASSIGN, token.USHRASSIGN, token.ANDASSIGN,
		token.ORASSIGN, token.XORASSIGN, token.LOGANDASSIGN,
		token.LOGORASSIGN, token.NULLISHASSIGN:
		return true
	}
	return false
}

func (p *parser) parseAssign() ast.Expr {
	// Arrow function lookahead: IDENT => ... or ( ... ) => ...
	if e, ok := p.tryParseArrow(); ok {
		return e
	}
	left := p.parseConditional()
	if !isAssignOp(p.cur.Type) {
		return left
	}
	op := p.cur.Type
	if !isAssignTarget(left) {
		p.fail("invalid assignment target")
	}
	if !p.opts.AllowEvalArgumentsAssign {
		if id, ok := left.(*ast.Ident); ok && (id.Name == "eval" || id.Name == "arguments") {
			p.strictOnly(p.strict, true, "unexpected eval or arguments in strict mode")
		}
	}
	n := &ast.AssignExpr{Op: op, L: left}
	n.P = left.Pos()
	p.reg(n)
	p.next()
	n.R = p.parseAssign()
	return n
}

func isAssignTarget(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.MemberExpr:
		return true
	}
	return false
}

// tryParseArrow attempts to parse an arrow function at the current point.
// It backtracks and reports ok=false when the lookahead is not an arrow.
func (p *parser) tryParseArrow() (ast.Expr, bool) {
	if p.cur.Type == token.IDENT && p.peek.Type == token.ARROW {
		fn := &ast.FuncLit{Arrow: true, Params: []string{p.cur.Literal}}
		fn.P = p.cur.Pos
		p.reg(fn)
		p.next() // ident
		p.next() // =>
		p.parseArrowBody(fn)
		return fn, true
	}
	if p.cur.Type != token.LPAREN {
		return nil, false
	}
	// Scan ahead in the token stream to see whether the matching RPAREN is
	// followed by =>. We re-lex from a copy of the parser state.
	save := *p
	savedLex := *p.lex
	depth := 0
	isArrow := false
scan:
	for {
		switch p.cur.Type {
		case token.LPAREN:
			depth++
		case token.RPAREN:
			depth--
			if depth == 0 {
				isArrow = p.peek.Type == token.ARROW
				break scan
			}
		case token.EOF:
			break scan
		case token.LBRACE, token.SEMI:
			// Arrow parameter lists cannot contain these.
			break scan
		}
		p.next()
	}
	*p = save
	*p.lex = savedLex
	if !isArrow {
		return nil, false
	}
	fn := &ast.FuncLit{Arrow: true}
	fn.P = p.cur.Pos
	p.reg(fn)
	p.parseParams(fn)
	p.uniqueParams(fn)
	p.expect(token.ARROW)
	p.parseArrowBody(fn)
	return fn, true
}

func (p *parser) parseArrowBody(fn *ast.FuncLit) {
	if p.cur.Type == token.LBRACE {
		p.expect(token.LBRACE)
		p.inFunc++
		body := &ast.BlockStmt{}
		body.P = p.cur.Pos
		p.reg(body)
		body.Body, fn.Strict = p.parseSourceBody(p.strict)
		p.inFunc--
		p.expect(token.RBRACE)
		fn.Body = body
		p.simpleParamsIfStrict(fn)
		p.strictBindings(fn, "")
		return
	}
	fn.ExprBody = p.parseAssign()
	fn.Strict = p.strict
}

func (p *parser) parseConditional() ast.Expr {
	cond := p.parseNullish()
	if p.cur.Type != token.QUESTION {
		return cond
	}
	n := &ast.CondExpr{Cond: cond}
	n.P = cond.Pos()
	p.reg(n)
	p.next()
	n.Then = p.parseAssign()
	p.expect(token.COLON)
	n.Else = p.parseAssign()
	return n
}

func (p *parser) parseNullish() ast.Expr {
	left := p.parseLogicalOr()
	for p.cur.Type == token.NULLISH {
		n := &ast.LogicalExpr{Op: token.NULLISH, L: left}
		n.P = left.Pos()
		p.reg(n)
		p.next()
		n.R = p.parseLogicalOr()
		left = n
	}
	return left
}

func (p *parser) parseLogicalOr() ast.Expr {
	left := p.parseLogicalAnd()
	for p.cur.Type == token.LOGOR {
		n := &ast.LogicalExpr{Op: token.LOGOR, L: left}
		n.P = left.Pos()
		p.reg(n)
		p.next()
		n.R = p.parseLogicalAnd()
		left = n
	}
	return left
}

func (p *parser) parseLogicalAnd() ast.Expr {
	left := p.parseBinary(0)
	for p.cur.Type == token.LOGAND {
		n := &ast.LogicalExpr{Op: token.LOGAND, L: left}
		n.P = left.Pos()
		p.reg(n)
		p.next()
		n.R = p.parseBinary(0)
		left = n
	}
	return left
}

// binPrec gives binding powers for binary operators (higher binds tighter).
func binPrec(t token.Type) int {
	switch t {
	case token.OR:
		return 1
	case token.XOR:
		return 2
	case token.AND:
		return 3
	case token.EQ, token.NEQ, token.STRICTEQ, token.STRICTNE:
		return 4
	case token.LT, token.GT, token.LE, token.GE, token.IN, token.INSTANCEOF:
		return 5
	case token.SHL, token.SHR, token.USHR:
		return 6
	case token.PLUS, token.MINUS:
		return 7
	case token.STAR, token.SLASH, token.PERCENT:
		return 8
	case token.POW:
		return 9
	}
	return 0
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	left := p.parseUnary()
	for {
		prec := binPrec(p.cur.Type)
		if prec == 0 || prec < minPrec {
			return left
		}
		op := p.cur.Type
		n := &ast.BinaryExpr{Op: op, L: left}
		n.P = left.Pos()
		p.reg(n)
		p.next()
		if op == token.POW {
			// Exponentiation is right-associative.
			n.R = p.parseBinary(prec)
		} else {
			n.R = p.parseBinary(prec + 1)
		}
		left = n
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur.Type {
	case token.NOT, token.BNOT, token.PLUS, token.MINUS, token.TYPEOF,
		token.VOID, token.DELETE:
		op := p.cur.Type
		pos := p.cur.Pos
		p.next()
		x := p.parseUnary()
		if op == token.DELETE && !p.opts.AllowSloppyDelete {
			if _, isIdent := x.(*ast.Ident); isIdent {
				p.strictOnly(p.strict, true, "delete of an unqualified identifier in strict mode")
			}
		}
		n := &ast.UnaryExpr{Op: op, X: x}
		n.P = pos
		p.reg(n)
		return n
	case token.INC, token.DEC:
		op := p.cur.Type
		pos := p.cur.Pos
		p.next()
		x := p.parseUnary()
		if !isAssignTarget(x) {
			p.fail("invalid operand for %s", op)
		}
		n := &ast.UpdateExpr{Op: op, X: x, Prefix: true}
		n.P = pos
		p.reg(n)
		return n
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parseCallMember()
	if (p.cur.Type == token.INC || p.cur.Type == token.DEC) && !p.cur.NewlineBefore {
		if !isAssignTarget(x) {
			p.fail("invalid operand for %s", p.cur.Type)
		}
		n := &ast.UpdateExpr{Op: p.cur.Type, X: x, Prefix: false}
		n.P = x.Pos()
		p.reg(n)
		p.next()
		return n
	}
	return x
}

func (p *parser) parseCallMember() ast.Expr {
	var x ast.Expr
	if p.cur.Type == token.NEW {
		x = p.parseNew()
	} else {
		x = p.parsePrimary()
	}
	for {
		switch p.cur.Type {
		case token.DOT:
			p.next()
			name := p.parsePropertyName()
			n := &ast.MemberExpr{Obj: x, Name: name}
			n.P = x.Pos()
			p.reg(n)
			x = n
		case token.LBRACK:
			p.next()
			prop := p.parseExpression()
			p.expect(token.RBRACK)
			n := &ast.MemberExpr{Obj: x, Prop: prop, Computed: true}
			n.P = x.Pos()
			p.reg(n)
			x = n
		case token.LPAREN:
			n := &ast.CallExpr{Callee: x}
			n.P = x.Pos()
			p.reg(n)
			n.Args = p.parseArgs()
			x = n
		case token.TEMPLATE:
			// Tagged templates are not supported; treat as syntax error to
			// keep differential behaviour deterministic.
			p.fail("tagged template literals are not supported")
		default:
			return x
		}
	}
}

// parsePropertyName accepts identifiers and reserved words after '.'.
func (p *parser) parsePropertyName() string {
	if p.cur.Type == token.IDENT || p.cur.Type.IsKeyword() {
		name := p.cur.Literal
		p.next()
		return name
	}
	p.fail("expected property name after '.', found %q", p.cur.String())
	return ""
}

func (p *parser) parseNew() ast.Expr {
	pos := p.cur.Pos
	p.expect(token.NEW)
	var callee ast.Expr
	if p.cur.Type == token.NEW {
		callee = p.parseNew()
	} else {
		callee = p.parsePrimary()
	}
	// Member accesses bind tighter than the new-expression argument list.
	for {
		if p.cur.Type == token.DOT {
			p.next()
			name := p.parsePropertyName()
			n := &ast.MemberExpr{Obj: callee, Name: name}
			n.P = callee.Pos()
			p.reg(n)
			callee = n
			continue
		}
		if p.cur.Type == token.LBRACK {
			p.next()
			prop := p.parseExpression()
			p.expect(token.RBRACK)
			n := &ast.MemberExpr{Obj: callee, Prop: prop, Computed: true}
			n.P = callee.Pos()
			p.reg(n)
			callee = n
			continue
		}
		break
	}
	n := &ast.NewExpr{Callee: callee}
	n.P = pos
	p.reg(n)
	if p.cur.Type == token.LPAREN {
		n.Args = p.parseArgs()
	}
	return n
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	for p.cur.Type != token.RPAREN {
		if p.cur.Type == token.ELLIPSIS {
			pos := p.cur.Pos
			p.next()
			sp := &ast.SpreadExpr{X: p.parseAssign()}
			sp.P = pos
			p.reg(sp)
			args = append(args, sp)
		} else {
			args = append(args, p.parseAssign())
		}
		if p.cur.Type != token.COMMA {
			break
		}
		p.next()
	}
	p.expect(token.RPAREN)
	return args
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.cur.Type {
	case token.IDENT:
		n := &ast.Ident{Name: p.cur.Literal}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.NUMBER:
		return p.parseNumber()
	case token.STRING:
		n := &ast.StringLit{Value: p.cur.Literal}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.TEMPLATE:
		return p.parseTemplate()
	case token.REGEX:
		return p.parseRegex()
	case token.TRUE, token.FALSE:
		n := &ast.BoolLit{Value: p.cur.Type == token.TRUE}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.NULL:
		n := &ast.NullLit{}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.THIS:
		n := &ast.ThisExpr{}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	case token.LPAREN:
		p.next()
		e := p.parseExpression()
		p.expect(token.RPAREN)
		return e
	case token.LBRACK:
		return p.parseArrayLit()
	case token.LBRACE:
		return p.parseObjectLit()
	case token.FUNCTION:
		return p.parseFunction(false)
	case token.GET, token.SET:
		// Contextual: get/set as plain identifiers.
		n := &ast.Ident{Name: p.cur.Literal}
		n.P = p.cur.Pos
		p.reg(n)
		p.next()
		return n
	}
	if p.cur.Type.IsKeyword() {
		if p.opts.AllowReservedIdent {
			n := &ast.Ident{Name: p.cur.Literal}
			n.P = p.cur.Pos
			p.reg(n)
			p.next()
			return n
		}
		p.failLenient("unexpected token %q", p.cur.String())
	}
	p.fail("unexpected token %q", p.cur.String())
	return nil
}

func (p *parser) parseNumber() ast.Expr {
	raw := p.cur.Literal
	val, err := parseNumericLiteral(raw)
	if err != nil {
		p.fail("invalid numeric literal %q", raw)
	}
	if !p.opts.AllowLegacyOctal && len(raw) > 1 && raw[0] == '0' &&
		raw[1] >= '0' && raw[1] <= '9' {
		p.strictOnly(p.strict, true, "octal literals are not allowed in strict mode")
	}
	n := &ast.NumberLit{Value: val, Raw: raw}
	n.P = p.cur.Pos
	p.reg(n)
	p.next()
	return n
}

func parseNumericLiteral(raw string) (float64, error) {
	if len(raw) > 2 && raw[0] == '0' {
		switch raw[1] {
		case 'x', 'X':
			v, err := strconv.ParseUint(raw[2:], 16, 64)
			return float64(v), err
		case 'o', 'O':
			v, err := strconv.ParseUint(raw[2:], 8, 64)
			return float64(v), err
		case 'b', 'B':
			v, err := strconv.ParseUint(raw[2:], 2, 64)
			return float64(v), err
		}
	}
	// Legacy octal: 0 followed only by octal digits.
	if len(raw) > 1 && raw[0] == '0' && strings.IndexFunc(raw[1:], func(r rune) bool {
		return r < '0' || r > '7'
	}) == -1 {
		v, err := strconv.ParseUint(raw[1:], 8, 64)
		return float64(v), err
	}
	return strconv.ParseFloat(raw, 64)
}

func (p *parser) parseTemplate() ast.Expr {
	n := &ast.TemplateLit{}
	n.P = p.cur.Pos
	p.reg(n)
	raw := p.cur.Literal
	p.next()
	quasi, exprs := splitTemplate(raw)
	n.Quasis = quasi
	for _, src := range exprs {
		e, err := ParseExprString(src)
		if err != nil {
			p.fail("invalid template substitution: %v", err)
		}
		// Re-register node IDs within the current parser space.
		ast.Walk(e, func(c ast.Node) bool { p.reg(c); return true })
		n.Exprs = append(n.Exprs, e)
	}
	return n
}

// splitTemplate splits a raw template body into cooked quasis and
// substitution expression sources.
func splitTemplate(raw string) (quasis []string, exprs []string) {
	var cur strings.Builder
	i := 0
	for i < len(raw) {
		if raw[i] == '\\' && i+1 < len(raw) {
			switch raw[i+1] {
			case 'n':
				cur.WriteByte('\n')
			case 't':
				cur.WriteByte('\t')
			case 'r':
				cur.WriteByte('\r')
			case '`':
				cur.WriteByte('`')
			case '\\':
				cur.WriteByte('\\')
			case '$':
				cur.WriteByte('$')
			default:
				cur.WriteByte(raw[i+1])
			}
			i += 2
			continue
		}
		if raw[i] == '$' && i+1 < len(raw) && raw[i+1] == '{' {
			quasis = append(quasis, cur.String())
			cur.Reset()
			depth := 1
			j := i + 2
			for j < len(raw) && depth > 0 {
				switch raw[j] {
				case '{':
					depth++
				case '}':
					depth--
				}
				j++
			}
			end := j - 1
			if end < i+2 {
				end = i + 2 // unterminated substitution: empty expression
			}
			exprs = append(exprs, raw[i+2:end])
			i = j
			continue
		}
		cur.WriteByte(raw[i])
		i++
	}
	quasis = append(quasis, cur.String())
	return quasis, exprs
}

func (p *parser) parseRegex() ast.Expr {
	raw := p.cur.Literal // e.g. "/ab+c/gi"
	end := strings.LastIndexByte(raw, '/')
	pattern := raw[1:end]
	flags := raw[end+1:]
	for _, f := range flags {
		if !strings.ContainsRune("gimsuy", f) {
			p.fail("invalid regular expression flag %q", f)
		}
	}
	n := &ast.RegexLit{Pattern: pattern, Flags: flags}
	n.P = p.cur.Pos
	p.reg(n)
	p.next()
	return n
}

func (p *parser) parseArrayLit() ast.Expr {
	n := &ast.ArrayLit{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.LBRACK)
	for p.cur.Type != token.RBRACK {
		if p.cur.Type == token.COMMA {
			n.Elems = append(n.Elems, nil) // elision
			p.next()
			continue
		}
		if p.cur.Type == token.ELLIPSIS {
			pos := p.cur.Pos
			p.next()
			sp := &ast.SpreadExpr{X: p.parseAssign()}
			sp.P = pos
			p.reg(sp)
			n.Elems = append(n.Elems, sp)
		} else {
			n.Elems = append(n.Elems, p.parseAssign())
		}
		if p.cur.Type != token.COMMA {
			break
		}
		p.next()
	}
	p.expect(token.RBRACK)
	return n
}

func (p *parser) parseObjectLit() ast.Expr {
	n := &ast.ObjectLit{}
	n.P = p.cur.Pos
	p.reg(n)
	p.expect(token.LBRACE)
	for p.cur.Type != token.RBRACE {
		n.Props = append(n.Props, p.parseProperty())
		if p.cur.Type != token.COMMA {
			break
		}
		p.next()
	}
	p.expect(token.RBRACE)
	return n
}

func (p *parser) parseProperty() ast.Property {
	// get/set accessors: `get name() {...}`.
	if p.cur.Type == token.IDENT && (p.cur.Literal == "get" || p.cur.Literal == "set") &&
		(p.peek.Type == token.IDENT || p.peek.Type == token.STRING ||
			p.peek.Type == token.NUMBER || p.peek.Type.IsKeyword()) {
		kind := ast.PropGet
		if p.cur.Literal == "set" {
			kind = ast.PropSet
		}
		p.next()
		key := p.parsePropertyKey()
		fn := &ast.FuncLit{}
		fn.P = p.cur.Pos
		p.reg(fn)
		p.parseParams(fn)
		p.accessorParams(fn, kind)
		p.expect(token.LBRACE)
		p.inFunc++
		body := &ast.BlockStmt{}
		body.P = p.cur.Pos
		p.reg(body)
		body.Body, fn.Strict = p.parseSourceBody(p.strict)
		p.inFunc--
		p.expect(token.RBRACE)
		fn.Body = body
		p.strictBindings(fn, "")
		return ast.Property{Key: key, Kind: kind, Value: fn}
	}
	// Computed key: [expr]: value.
	if p.cur.Type == token.LBRACK {
		p.next()
		keyExpr := p.parseAssign()
		p.expect(token.RBRACK)
		p.expect(token.COLON)
		return ast.Property{KeyExpr: keyExpr, Computed: true, Value: p.parseAssign()}
	}
	key := p.parsePropertyKey()
	// Method shorthand: name() { ... }.
	if p.cur.Type == token.LPAREN {
		fn := &ast.FuncLit{Name: key}
		fn.P = p.cur.Pos
		p.reg(fn)
		p.parseParams(fn)
		p.uniqueParams(fn)
		p.expect(token.LBRACE)
		p.inFunc++
		body := &ast.BlockStmt{}
		body.P = p.cur.Pos
		p.reg(body)
		body.Body, fn.Strict = p.parseSourceBody(p.strict)
		p.inFunc--
		p.expect(token.RBRACE)
		fn.Body = body
		p.simpleParamsIfStrict(fn)
		p.strictBindings(fn, "")
		return ast.Property{Key: key, Value: fn}
	}
	// Shorthand property: {x} means {x: x}.
	if p.cur.Type != token.COLON {
		id := &ast.Ident{Name: key}
		p.reg(id)
		return ast.Property{Key: key, Value: id}
	}
	p.expect(token.COLON)
	return ast.Property{Key: key, Value: p.parseAssign()}
}

// accessorParams fails on an accessor whose parameter list the grammar
// does not allow: a getter takes no parameters, a setter exactly one that
// is not a rest parameter (ECMA-262 15.4).
func (p *parser) accessorParams(fn *ast.FuncLit, kind ast.PropKind) {
	if kind == ast.PropGet && (len(fn.Params) != 0 || fn.Rest != "") {
		p.fail("getter must not have parameters")
	}
	if kind == ast.PropSet && (len(fn.Params) != 1 || fn.Rest != "") {
		p.fail("setter must have exactly one parameter")
	}
}

func (p *parser) parsePropertyKey() string {
	switch p.cur.Type {
	case token.IDENT:
		k := p.cur.Literal
		p.next()
		return k
	case token.STRING:
		k := p.cur.Literal
		p.next()
		return k
	case token.NUMBER:
		v, err := parseNumericLiteral(p.cur.Literal)
		if err != nil {
			p.fail("invalid numeric property key")
		}
		p.next()
		return formatPropertyNumber(v)
	default:
		if p.cur.Type.IsKeyword() {
			k := p.cur.Literal
			p.next()
			return k
		}
	}
	p.fail("invalid property key %q", p.cur.String())
	return ""
}

func formatPropertyNumber(v float64) string { return jsnum.Format(v) }
