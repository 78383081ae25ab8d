package builtins

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// sectionGlobals names one global binding of every lazy section, the
// error kinds included, in installation order.
var sectionGlobals = append([]string{"print", "Math", "JSON", "Date", "Int8Array"}, errorKinds...)

// readGlobal touches a section the way a program's global read does.
func readGlobal(t *testing.T, in *interp.Interp, name string) {
	v, err := in.GetPropKey(interp.ObjValue(in.Global), name)
	if err != nil || !v.IsObject() {
		t.Fatalf("global %s: %v, %v", name, v, err)
	}
}

// TestSectionMaterializeAllocs pins the copy path of the lazy sections: on
// a pooled realm that has served a run touching every section, the first
// touch of a section after a reset allocates nothing — through a global
// read, and for every error kind also through a Throwf, whose cost is
// compared with the same Throwf on a realm that already holds the kind.
// Allocation counts are deterministic, so the bound holds on any host.
func TestSectionMaterializeAllocs(t *testing.T) {
	cfg := interp.Config{Fuel: 1_000_000}
	in := NewRuntime(cfg)
	for _, name := range sectionGlobals {
		readGlobal(t, in, name)
	}
	ResetRuntime(in, cfg)
	for _, name := range sectionGlobals {
		if got := testing.AllocsPerRun(50, func() {
			ResetRuntime(in, cfg)
			readGlobal(t, in, name)
		}); got != 0 {
			t.Errorf("first read of %s on a reset realm allocates %v times, want 0", name, got)
		}
	}
	for _, kind := range errorKinds {
		throw := func() {
			if _, ok := interp.IsThrow(in.Throwf(kind, "m")); !ok {
				t.Fatalf("Throwf(%s) threw no exception", kind)
			}
		}
		ResetRuntime(in, cfg)
		throw()
		held := testing.AllocsPerRun(50, throw)
		if got := testing.AllocsPerRun(50, func() {
			ResetRuntime(in, cfg)
			throw()
		}); got != held {
			t.Errorf("first Throwf(%s) on a reset realm allocates %v times, %v with the kind installed; want equal",
				kind, got, held)
		}
	}
}

// sectionProbe observes every section's objects and bindings after the
// prelude forced them in some order.
const sectionProbe = `
print(Object.getOwnPropertyNames(globalThis).join());
print(typeof print, console.log === print, Object.keys(console).join());
print(Math.max(1, 2), Object.getOwnPropertyNames(Math).join(), JSON.stringify({a: [1]}));
print(new Date(0).getTime(), Object.getOwnPropertyNames(Date.prototype).length);
print(new Int8Array(2).length, new DataView(new ArrayBuffer(4)).byteLength, Float64Array.BYTES_PER_ELEMENT);
var kinds = [Error, TypeError, RangeError, SyntaxError, ReferenceError, EvalError, URIError, InternalError];
for (var i = 0; i < kinds.length; i++) {
  var e = new kinds[i]("m");
  print(e.name, String(e), e instanceof Error, e instanceof kinds[i], Object.getPrototypeOf(kinds[i].prototype) === (i ? Error.prototype : Object.prototype));
}
try { null.x; } catch (e) { print(e.name, e instanceof TypeError); }
`

// engineThrows raises an error kind without naming it, so the kind is
// installed through the prototype-miss hook.
var engineThrows = map[string]string{
	"TypeError":      "null.x",
	"RangeError":     "new Array(-1)",
	"ReferenceError": "undeclaredName",
	"SyntaxError":    `eval("(")`,
}

// sectionPrelude returns a prelude forcing every section in the order
// given by rotating sectionGlobals r places; odd rotations reach the
// error kinds the engine throws by throwing them instead of by name.
func sectionPrelude(r int) string {
	var b strings.Builder
	n := len(sectionGlobals)
	for i := 0; i < n; i++ {
		name := sectionGlobals[(i+r)%n]
		if src, ok := engineThrows[name]; ok && r%2 == 1 {
			fmt.Fprintf(&b, "try { %s; } catch (e) {}\n", src)
			continue
		}
		fmt.Fprintf(&b, "void %s;\n", name)
	}
	return b.String()
}

// TestSectionsMaterializeConcurrently has 8 goroutines each materialise
// every lazy section on its own pooled realm, in goroutine-specific
// orders, resetting between runs. Under -race, a write through a slice
// that still aliases the template's section snapshot is a data race
// between two realms.
func TestSectionsMaterializeConcurrently(t *testing.T) {
	const goroutines, runs = 8, 40
	progs := make([]*ast.Program, len(sectionGlobals))
	want := make([]string, len(progs))
	for r := range progs {
		src := sectionPrelude(r) + sectionProbe
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs[r], want[r] = prog, runIn(t, true, src)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := interp.Config{Fuel: 1_000_000}
			in := NewRuntime(cfg)
			for i := 0; i < runs; i++ {
				r := (g*5 + i) % len(progs)
				ResetRuntime(in, cfg)
				if err := in.Run(progs[r]); err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if got := in.Out.String(); got != want[r] {
					t.Errorf("goroutine %d run %d (order %d): got\n%s\nwant (dictionary layout)\n%s", g, i, r, got, want[r])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
