// Package ast declares the abstract syntax tree of the JavaScript subset,
// a generic visitor, and a source printer. Every node carries a small
// integer ID assigned by the parser; coverage measurement and test-case
// reduction key off those IDs.
package ast

import (
	"fmt"

	"comfort/internal/js/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
	ID() int
	setID(int)
}

// base provides position and ID storage for all nodes.
type base struct {
	P  token.Pos
	id int
}

func (b *base) Pos() token.Pos { return b.P }
func (b *base) ID() int        { return b.id }
func (b *base) setID(n int)    { b.id = n }

// SetID assigns a node ID. Exported for the parser and synthetic-AST
// builders (fuzzers) only.
func SetID(n Node, id int) { n.setID(id) }

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// ---------- static scope annotations ----------
//
// The types below are populated by internal/js/resolve, which runs once per
// parsed program and records the static scope layout: every scope node gets
// a ScopeInfo (frame size plus the named slot roles) and every identifier
// reference gets a ScopeRef. The interpreter consults the annotations when
// present and falls back to its dynamic map-based environments when they are
// absent (synthetic fuzzer ASTs, eval'd code that was not resolved), so a
// zero-valued annotation always means "use the dynamic path".

// RefKind selects how an identifier reference is resolved at run time.
type RefKind uint8

// Reference kinds.
const (
	// RefDynamic (the zero value) walks the environment chain by name —
	// the behaviour of an unresolved AST, and the fallback for references
	// the resolver cannot prove live (e.g. a name read before its `let`
	// declaration has executed).
	RefDynamic RefKind = iota
	// RefSlot reads frame Depth levels up the chain of materialised
	// frames, at index Slot. Emitted only when the binding is provably
	// declared at every execution of the reference.
	RefSlot
	// RefGlobal resolves on the global environment (top-level lexical
	// bindings) and then the global object — emitted when no intervening
	// scope can ever bind the name.
	RefGlobal
)

// ScopeRef is the resolved coordinate of one identifier reference.
type ScopeRef struct {
	Kind  RefKind
	Depth uint16 // materialised frames to walk up (RefSlot)
	Slot  uint16 // index into the target frame (RefSlot)
}

// ScopeInfo is the static layout of one scope (a function body, block,
// for/for-in loop head, switch body, or catch clause). A scope materialises
// a frame at run time iff NumSlots > 0; empty scopes reuse the enclosing
// frame, which is what makes ScopeRef depths stable.
type ScopeInfo struct {
	// NumSlots is the frame size; Names maps slot index to the declared
	// name (needed by dynamic fallback lookups scanning the frame).
	NumSlots int
	Names    []string

	// Function scopes only. ParamSlots has one entry per parameter (in
	// order; duplicate names share a slot). The *Slot fields are -1 when
	// the corresponding binding does not exist. ArgumentsSlot is -1 when
	// the body provably never observes `arguments`, which lets the
	// interpreter skip building the arguments object.
	ParamSlots    []uint16
	RestSlot      int32
	ArgumentsSlot int32
	SelfSlot      int32

	// CatchParamSlot is the catch parameter's slot in a catch-clause
	// scope, -1 otherwise.
	CatchParamSlot int32

	// VarSlots lists the slots created by var and function-declaration
	// hoisting that are not already initialised as parameters; they are
	// set to undefined at frame entry. HoistFuncs/HoistSlots are the
	// function declarations instantiated at entry, in source order.
	VarSlots   []uint16
	HoistFuncs []*FuncLit
	HoistSlots []uint16

	// Poolable marks a scope whose frame provably cannot escape the
	// dynamic extent of its activation: no function literal or declaration
	// anywhere in the scope's subtree closes over it. Set by
	// internal/js/compile; the interpreter recycles such frames through a
	// per-instance free list instead of allocating a []binding per entry.
	Poolable bool
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// ---------- Statements ----------

// Program is the root node of a parsed source file.
type Program struct {
	base
	Body []Stmt
	// Strict: a file-level "use strict" directive, or parsing under
	// parser.Options.Strict. Trees from parser.ParseModes, which both
	// modes share, carry the directive alone.
	Strict bool
	// NodeCount is the total number of nodes allocated by the parser,
	// used to size coverage bitmaps.
	NodeCount int
	// ResolvedScopes marks that internal/js/resolve has annotated this
	// tree (resolution is idempotent and keyed off this flag).
	ResolvedScopes bool
	// Compiled holds the program's thunk-compiled form (a
	// *compile.Compiled), attached by internal/js/compile after
	// resolution. Stored as any to keep this package dependency-free; the
	// executing layer type-asserts. Like the scope annotations it is
	// written once, before the program is shared across goroutines.
	Compiled any
	// Analysis holds the static-semantics report (an *analyze.Report),
	// attached by internal/js/analyze under the same write-once,
	// publish-before-sharing contract as Compiled.
	Analysis any
	// EarlyErrors lists the static-semantics violations internal/js/resolve
	// found while annotating the tree, in source order.
	EarlyErrors []EarlyError
	// Shadowing marks a let or const declaration whose name an enclosing
	// scope already binds; the resolver sets it with EarlyErrors.
	Shadowing bool
}

// EarlyError is one static-semantics violation: a rule the parser accepts
// but the spec rejects before execution (a duplicate lexical declaration,
// an unknown label, an assignment to a const, ...). Kind is a stable
// machine-readable rule name; Msg and Pos render like parser errors.
type EarlyError struct {
	Kind string
	Msg  string
	Pos  token.Pos
}

// Render formats the violation exactly like a parser SyntaxError, so the
// difftest classifier sees one uniform parse-rejection shape.
func (e EarlyError) Render() string {
	return fmt.Sprintf("SyntaxError: %s (at %s)", e.Msg, e.Pos)
}

// VarKind distinguishes var/let/const declarations.
type VarKind int

// Declaration kinds.
const (
	Var VarKind = iota
	Let
	Const
)

func (k VarKind) String() string {
	switch k {
	case Let:
		return "let"
	case Const:
		return "const"
	default:
		return "var"
	}
}

// Declarator is one name = init pair inside a VarDecl.
type Declarator struct {
	Name string
	Init Expr // may be nil
	// Ref is the declaration's slot target (set by internal/js/resolve;
	// RefDynamic for top-level declarations, which stay on the dynamic
	// global path).
	Ref ScopeRef
}

// VarDecl is a var/let/const statement.
type VarDecl struct {
	base
	Kind  VarKind
	Decls []Declarator
}

// FuncDecl is a function declaration statement.
type FuncDecl struct {
	base
	Fn *FuncLit
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	base
	X Expr
	// Directive holds the raw string if this statement is a directive
	// prologue entry such as "use strict".
	Directive string
}

// BlockStmt is a braced statement list.
type BlockStmt struct {
	base
	Body []Stmt
	// Scope is the block's static layout (see ScopeInfo). For a TryStmt's
	// catch block it additionally holds the catch parameter.
	Scope *ScopeInfo
}

// IfStmt is an if/else statement.
type IfStmt struct {
	base
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a classic three-clause for loop.
type ForStmt struct {
	base
	Init Node // *VarDecl, Expr, or nil
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
	// Scope holds the loop head's lexical declarations (let/const inits).
	Scope *ScopeInfo
}

// ForInStmt is for (x in obj) — and doubles as for-of when Of is set.
type ForInStmt struct {
	base
	Decl VarKind // declaration kind, or -1 when the target is a plain name
	Name string
	Obj  Expr
	Body Stmt
	Of   bool
	// Scope holds the loop variable for let/const declarations; NameRef is
	// the resolved target of the per-iteration binding or assignment.
	Scope   *ScopeInfo
	NameRef ScopeRef
}

// WhileStmt is a while loop.
type WhileStmt struct {
	base
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	base
	Body Stmt
	Cond Expr
}

// SwitchCase is one case (or default, when Test is nil) clause.
type SwitchCase struct {
	base
	Test Expr // nil for default
	Body []Stmt
}

// SwitchStmt is a switch statement.
type SwitchStmt struct {
	base
	Disc  Expr
	Cases []*SwitchCase
	// Scope is the shared scope of all case bodies. Because execution may
	// enter at any case, its lexical bindings are never statically
	// resolvable; the scope exists for frame sizing only.
	Scope *ScopeInfo
}

// BreakStmt is break [label].
type BreakStmt struct {
	base
	Label string
}

// ContinueStmt is continue [label].
type ContinueStmt struct {
	base
	Label string
}

// ReturnStmt is return [expr].
type ReturnStmt struct {
	base
	X Expr // may be nil
}

// ThrowStmt is throw expr.
type ThrowStmt struct {
	base
	X Expr
}

// TryStmt is try/catch/finally. Catch and Finally may each be nil (not both).
type TryStmt struct {
	base
	Block      *BlockStmt
	CatchParam string
	Catch      *BlockStmt
	Finally    *BlockStmt
}

// LabeledStmt is label: stmt.
type LabeledStmt struct {
	base
	Label string
	Body  Stmt
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ base }

// DebuggerStmt is the debugger statement (a no-op at run time).
type DebuggerStmt struct{ base }

func (*VarDecl) stmtNode()      {}
func (*FuncDecl) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*BlockStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*ForInStmt) stmtNode()    {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*SwitchStmt) stmtNode()   {}
func (*SwitchCase) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*ThrowStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*LabeledStmt) stmtNode()  {}
func (*EmptyStmt) stmtNode()    {}
func (*DebuggerStmt) stmtNode() {}
func (*Program) stmtNode()      {}

// ---------- Expressions ----------

// Ident is a name reference.
type Ident struct {
	base
	Name string
	// Ref is the statically resolved scope coordinate (RefDynamic when the
	// tree has not been resolved or the reference is not provable).
	Ref ScopeRef
}

// NumberLit is a numeric literal; Value is the parsed float64.
type NumberLit struct {
	base
	Value float64
	Raw   string
}

// StringLit is a string literal (cooked value).
type StringLit struct {
	base
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	base
	Value bool
}

// NullLit is null.
type NullLit struct{ base }

// RegexLit is a regular-expression literal.
type RegexLit struct {
	base
	Pattern string
	Flags   string
}

// TemplateLit is a template literal with interleaved string parts and
// substitution expressions: Quasis has len(Exprs)+1 entries.
type TemplateLit struct {
	base
	Quasis []string
	Exprs  []Expr
}

// ArrayLit is [a, b, ...]. Nil elements represent elisions.
type ArrayLit struct {
	base
	Elems []Expr
}

// PropKind distinguishes normal properties from accessors.
type PropKind int

// Property kinds in object literals.
const (
	PropInit PropKind = iota
	PropGet
	PropSet
)

// Property is one entry in an object literal.
type Property struct {
	Key      string // used when Computed is false
	KeyExpr  Expr   // used when Computed is true
	Computed bool
	Kind     PropKind
	Value    Expr
}

// ObjectLit is { k: v, ... }.
type ObjectLit struct {
	base
	Props []Property
}

// FuncLit is a function expression/declaration body.
type FuncLit struct {
	base
	Name   string // may be empty
	Params []string
	Rest   string // rest parameter name, if any
	Body   *BlockStmt
	Arrow  bool
	// ExprBody is set for arrow functions with expression bodies:
	// the body is `return ExprBody`.
	ExprBody Expr
	// Strict: the function code is strict by a "use strict" directive or
	// strict enclosing code. In a parser.ParseModes tree, which both
	// modes share, strict mode itself does not set it.
	Strict bool
	// Scope is the function frame's static layout (params, hoisted vars
	// and declarations, arguments/self slots).
	Scope *ScopeInfo
	// Compiled is the thunk-compiled body (an interp.CompiledBody),
	// attached by internal/js/compile; interp.MakeFunction copies it onto
	// the function object so calls dispatch to the compiled form.
	Compiled any
}

func (*FuncLit) exprNode() {}

// HasParam reports whether name is one of f's parameters, the rest
// parameter included.
func (f *FuncLit) HasParam(name string) bool {
	for _, p := range f.Params {
		if p == name {
			return true
		}
	}
	return f.Rest != "" && f.Rest == name
}

// UnaryExpr is a prefix operator application (typeof, -, !, void, delete, ~, +).
type UnaryExpr struct {
	base
	Op token.Type
	X  Expr
}

// UpdateExpr is ++/-- in prefix or postfix position.
type UpdateExpr struct {
	base
	Op     token.Type // INC or DEC
	X      Expr
	Prefix bool
}

// BinaryExpr is a binary operator application (arithmetic, comparison,
// bitwise, in, instanceof).
type BinaryExpr struct {
	base
	Op   token.Type
	L, R Expr
}

// LogicalExpr is &&, || or ??.
type LogicalExpr struct {
	base
	Op   token.Type
	L, R Expr
}

// AssignExpr is an assignment, possibly compound (+=, etc.).
type AssignExpr struct {
	base
	Op   token.Type // ASSIGN or a compound-assign token
	L, R Expr
}

// CondExpr is the ternary conditional.
type CondExpr struct {
	base
	Cond, Then, Else Expr
}

// CallExpr is a function call.
type CallExpr struct {
	base
	Callee Expr
	Args   []Expr
}

// NewExpr is new Callee(args).
type NewExpr struct {
	base
	Callee Expr
	Args   []Expr
}

// MemberExpr is property access: obj.name or obj[expr].
type MemberExpr struct {
	base
	Obj      Expr
	Name     string // when not computed
	Prop     Expr   // when computed
	Computed bool
}

// SeqExpr is the comma operator.
type SeqExpr struct {
	base
	Exprs []Expr
}

// SpreadExpr is ...expr in call arguments or array literals.
type SpreadExpr struct {
	base
	X Expr
}

// ThisExpr is this.
type ThisExpr struct{ base }

func (*Ident) exprNode()       {}
func (*NumberLit) exprNode()   {}
func (*StringLit) exprNode()   {}
func (*BoolLit) exprNode()     {}
func (*NullLit) exprNode()     {}
func (*RegexLit) exprNode()    {}
func (*TemplateLit) exprNode() {}
func (*ArrayLit) exprNode()    {}
func (*ObjectLit) exprNode()   {}
func (*UnaryExpr) exprNode()   {}
func (*UpdateExpr) exprNode()  {}
func (*BinaryExpr) exprNode()  {}
func (*LogicalExpr) exprNode() {}
func (*AssignExpr) exprNode()  {}
func (*CondExpr) exprNode()    {}
func (*CallExpr) exprNode()    {}
func (*NewExpr) exprNode()     {}
func (*MemberExpr) exprNode()  {}
func (*SeqExpr) exprNode()     {}
func (*SpreadExpr) exprNode()  {}
func (*ThisExpr) exprNode()    {}
