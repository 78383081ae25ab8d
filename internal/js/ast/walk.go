package ast

// Walk traverses the tree rooted at n in depth-first pre-order, calling fn
// for every non-nil node. If fn returns false the node's children are not
// visited. Walk itself allocates nothing.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || isNilNode(n) {
		return
	}
	if !fn(n) {
		return
	}
	EachChild(n, func(c Node) { Walk(c, fn) })
}

// isNilNode guards against typed-nil interface values.
func isNilNode(n Node) bool {
	switch v := n.(type) {
	case *Program:
		return v == nil
	case *BlockStmt:
		return v == nil
	case *SwitchCase:
		return v == nil
	case *FuncLit:
		return v == nil
	}
	return false
}

// EachChild calls visit for each direct child of n in source order,
// skipping nil children (typed-nil blocks, function literals and switch
// cases included). It allocates nothing of its own.
func EachChild(n Node, visit func(Node)) {
	add := func(c Node) {
		if c != nil && !isNilNode(c) {
			visit(c)
		}
	}
	switch v := n.(type) {
	case *Program:
		for _, s := range v.Body {
			add(s)
		}
	case *VarDecl:
		for _, d := range v.Decls {
			add(d.Init)
		}
	case *FuncDecl:
		add(v.Fn)
	case *ExprStmt:
		add(v.X)
	case *BlockStmt:
		for _, s := range v.Body {
			add(s)
		}
	case *IfStmt:
		add(v.Cond)
		add(v.Then)
		add(v.Else)
	case *ForStmt:
		if v.Init != nil {
			add(v.Init)
		}
		add(v.Cond)
		add(v.Post)
		add(v.Body)
	case *ForInStmt:
		add(v.Obj)
		add(v.Body)
	case *WhileStmt:
		add(v.Cond)
		add(v.Body)
	case *DoWhileStmt:
		add(v.Body)
		add(v.Cond)
	case *SwitchStmt:
		add(v.Disc)
		for _, c := range v.Cases {
			add(c)
		}
	case *SwitchCase:
		add(v.Test)
		for _, s := range v.Body {
			add(s)
		}
	case *ReturnStmt:
		add(v.X)
	case *ThrowStmt:
		add(v.X)
	case *TryStmt:
		add(v.Block)
		if v.Catch != nil {
			add(v.Catch)
		}
		if v.Finally != nil {
			add(v.Finally)
		}
	case *LabeledStmt:
		add(v.Body)
	case *TemplateLit:
		for _, e := range v.Exprs {
			add(e)
		}
	case *ArrayLit:
		for _, e := range v.Elems {
			add(e)
		}
	case *ObjectLit:
		for _, p := range v.Props {
			if p.Computed {
				add(p.KeyExpr)
			}
			add(p.Value)
		}
	case *FuncLit:
		if v.ExprBody != nil {
			add(v.ExprBody)
		}
		if v.Body != nil {
			add(v.Body)
		}
	case *UnaryExpr:
		add(v.X)
	case *UpdateExpr:
		add(v.X)
	case *BinaryExpr:
		add(v.L)
		add(v.R)
	case *LogicalExpr:
		add(v.L)
		add(v.R)
	case *AssignExpr:
		add(v.L)
		add(v.R)
	case *CondExpr:
		add(v.Cond)
		add(v.Then)
		add(v.Else)
	case *CallExpr:
		add(v.Callee)
		for _, a := range v.Args {
			add(a)
		}
	case *NewExpr:
		add(v.Callee)
		for _, a := range v.Args {
			add(a)
		}
	case *MemberExpr:
		add(v.Obj)
		if v.Computed {
			add(v.Prop)
		}
	case *SeqExpr:
		for _, e := range v.Exprs {
			add(e)
		}
	case *SpreadExpr:
		add(v.X)
	}
}

// CountNodes returns the number of nodes in the tree rooted at n.
func CountNodes(n Node) int {
	count := 0
	Walk(n, func(Node) bool { count++; return true })
	return count
}
