package builtins

import (
	"fmt"
	"strings"
	"testing"

	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// BenchmarkNewRuntime measures realm construction — one clone of the
// pristine realm template (the template itself is built once per process,
// outside the timed loop's steady state). A differential campaign builds a
// fresh realm for every physical testbed execution, so this is a direct
// term in campaign throughput; the lazy method registration and the
// template clone exist because of it (EXPERIMENTS.md records the
// trajectory, TestRealmAllocBudget pins the allocation count).
func BenchmarkNewRuntime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRuntime(interp.Config{})
	}
}

// BenchmarkRuntimeFirstUse measures a realm build plus one trivial
// execution touching print — the cost a minimal program actually pays,
// including the lazily materialised globals it reaches.
func BenchmarkRuntimeFirstUse(b *testing.B) {
	prog, err := parser.Parse("print(1+2);")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewRuntime(interp.Config{})
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// enumerationTargets lists every builtin namespace, constructor and
// prototype a realm exposes, plus the global object itself.
func enumerationTargets() []string {
	out := []string{"globalThis", "Math", "JSON"}
	for _, c := range []string{
		"Object", "Function", "Array", "String", "Number", "Boolean", "RegExp",
		"Error", "EvalError", "RangeError", "ReferenceError", "SyntaxError",
		"TypeError", "URIError", "InternalError",
		"Date", "ArrayBuffer",
		"Int8Array", "Uint8Array", "Uint8ClampedArray", "Int16Array", "Uint16Array",
		"Int32Array", "Uint32Array", "Float32Array", "Float64Array", "DataView",
	} {
		out = append(out, c, c+".prototype")
	}
	return out
}

// scrambled returns a deterministic permutation of names that is neither
// registration order nor its reverse: a stride walk keyed on the length.
func scrambled(names []string) []string {
	n := len(names)
	stride := 7
	for n > 0 && gcd(stride, n) != 1 {
		stride++
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, names[(i*stride+3)%n])
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// enumerationPreludes force the lazy sections in different orders before
// a listing: error kinds before and after the Error base, by name and by
// an engine throw (the prototype-miss hook), and the global sections
// forwards and backwards.
var enumerationPreludes = []string{
	`void Float64Array; void RangeError; void JSON.parse; void Math.max; void "".trim;`,
	`try { null.x; } catch (e) {} void Error; void print; void Date; void URIError; void Int8Array;`,
	`void Error; void EvalError; void Math; void JSON; void Date; void Int8Array; void console;`,
	`void console; void DataView; void Date.now; void JSON; void Math; try { new Array(-1); } catch (e) {} void InternalError; void Error;`,
}

// TestLazyInstallPreservesEnumerationOrder pins engine fidelity of the
// lazy builtin registration and the realm template: own-property order of
// every builtin namespace and prototype, and of the global object, must
// not depend on which members a program touched first, in either object
// layout. Each target is listed cold (first thing a fresh realm does) and
// again after each prelude forcing sections in its own order, followed by
// reads of two thirds of the target's own properties in a scrambled order.
func TestLazyInstallPreservesEnumerationOrder(t *testing.T) {
	const list = `print(Object.getOwnPropertyNames(%s).join(","));`
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			for _, target := range enumerationTargets() {
				cold := runIn(t, l.dict, fmt.Sprintf(list, target))
				var reads strings.Builder
				for i, name := range scrambled(strings.Split(strings.TrimSpace(cold), ",")) {
					if i%3 != 2 {
						fmt.Fprintf(&reads, "try { void %s[%q]; } catch (e) {}\n", target, name)
					}
				}
				for _, prelude := range enumerationPreludes {
					if warm := runIn(t, l.dict, prelude+reads.String()+fmt.Sprintf(list, target)); warm != cold {
						t.Errorf("%s after %q: enumeration order depends on access order:\ncold: %s\nwarm: %s",
							target, prelude, cold, warm)
					}
				}
			}
		})
	}
}
