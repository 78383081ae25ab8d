package ast_test

import (
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
)

const walkSrc = `
var a = [1, 2, ...b], o = {x: 1, [k]: f(2)};
function f(n) { if (n > 0) { return n * f(n - 1); } else return 1; }
for (var i = 0; i < 3; i++) { label: while (i) { do { i--; } while (false); break label; } }
for (var k in o) switch (k) { case "x": print(o[k]); break; default: throw new Error(k); }
try { g(() => 1, function () { return this; }); } catch (e) { a = e ? ` + "`t${e}`" + ` : (e, 2); } finally { delete o.x; }
`

// childrenOrder is the pre-order Walk must produce, built by recursing
// through EachChild.
func childrenOrder(n ast.Node, out *[]ast.Node) {
	*out = append(*out, n)
	ast.EachChild(n, func(c ast.Node) { childrenOrder(c, out) })
}

// TestWalkMatchesChildren pins Walk's visit order to the recursive
// EachChild order.
func TestWalkMatchesChildren(t *testing.T) {
	prog, err := parser.Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []ast.Node
	childrenOrder(prog, &want)
	ast.Walk(prog, func(n ast.Node) bool { got = append(got, n); return true })
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d nodes, EachChild order has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d: Walk visited %T, EachChild order has %T", i, got[i], want[i])
		}
	}
	if len(got) < 80 {
		t.Fatalf("only %d nodes: the sample no longer exercises the tree", len(got))
	}
}

// TestWalkAllocs pins that Walk allocates nothing of its own.
func TestWalkAllocs(t *testing.T) {
	prog, err := parser.Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	got := testing.AllocsPerRun(100, func() {
		ast.Walk(prog, func(ast.Node) bool { count++; return true })
	})
	if got != 0 {
		t.Errorf("Walk allocates %v times per tree, want 0", got)
	}
}
