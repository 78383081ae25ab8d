package builtins

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"comfort/internal/js/ast"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// layouts names the two object layouts: a shape-layout realm is a clone of
// the realm template, a dictionary-layout realm a fresh install that shares
// only the frozen method tables with it.
var layouts = []struct {
	name string
	dict bool
}{{"shapes", false}, {"dictionary", true}}

// runIn executes src on a fresh realm of the given layout and returns its
// output.
func runIn(t *testing.T, dict bool, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := NewRuntime(interp.Config{Fuel: 1_000_000, DisableShapes: dict})
	if err := in.Run(prog); err != nil {
		t.Fatalf("%v\nsource: %s", err, src)
	}
	return in.Out.String()
}

// isolationMutations writes to everything a program can reach in a
// pristine realm: eager and lazy prototypes, globals of every kind, the
// lazily installed sections, an error kind installed through the
// prototype-miss hook, a materialised native-table entry and an object
// dropped to dictionary mode by an attribute redefinition.
const isolationMutations = `
Object.prototype.x = 1;
Array.prototype.push = function () { return -1; };
delete isNaN; delete Boolean; var leaked = 1;
Math.abc = 1; JSON.x = 2; Date.now = 5; Date.prototype.getTime = null;
var t = new Int8Array(4); Int8Array.prototype.foo = 3; ArrayBuffer.prototype.bar = 4;
try { new Array(-1); } catch (e) { RangeError.prototype.name = "Mutated"; e.constructor.tag = 1; }
"x".padStart(3); String.prototype.padStart.extra = 7;
Object.defineProperty(String.prototype, "charAt",
  {value: function () { return "z"; }, enumerable: true, writable: true, configurable: true});
console.log = null;
Function.prototype.call = 0; Function.prototype.tag = "t";
Error.prototype.extra = 1;
`

// isolationProbe observes every location isolationMutations writes.
const isolationProbe = `
var o = {};
print("objx", o.x, "x" in Object.prototype, Object.keys(Object.prototype).join());
print("push", typeof [].push, [].push === Array.prototype.push, Object.keys(Array.prototype).join());
var a = []; a.push(1, 2); print("pushed", a.length, a.join());
print("globals", typeof isNaN, typeof Boolean, typeof leaked, typeof parseInt);
print("math", Math.abc, Math.sqrt(16), JSON.x, JSON.stringify({a: [1]}), typeof Date.now, typeof Date.prototype.getTime);
var ta = new Int8Array(2); print("typed", Int8Array.prototype.foo, ta.length, ArrayBuffer.prototype.bar);
try { new Array(-1); } catch (e) {
  print("range", e.name, e instanceof RangeError, e.constructor === RangeError, RangeError.tag, RangeError.prototype.name);
}
print("pad", "x".padStart(3, "-"), String.prototype.padStart.extra);
print("charAt", "ab".charAt(0), Object.keys(String.prototype).join(),
  Object.getOwnPropertyDescriptor(String.prototype, "charAt").enumerable);
print("console", typeof console.log, console.log === print);
print("fn", typeof Function.prototype.call, Function.prototype.tag);
print("error", Error.prototype.extra, Object.getOwnPropertyNames(Error.prototype).join());
print("global", Object.getOwnPropertyNames(globalThis).join());
print("proto", Object.getOwnPropertyNames(Object.prototype).join());
print("array", Object.getOwnPropertyNames(Array.prototype).join());
print("string", Object.getOwnPropertyNames(String.prototype).join());
`

// TestRealmIsolation pins that realms share no mutable state: a realm that
// writes everything it can reach leaves the next realm of its layout (a
// template clone or a fresh install) exactly as pristine as one taken
// before it ran, and a shape-layout realm reset after those writes is as
// pristine too.
func TestRealmIsolation(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			baseline := runIn(t, l.dict, isolationProbe)
			mutated := runIn(t, l.dict, isolationMutations+isolationProbe)
			if mutated == baseline {
				t.Fatal("the mutations are not observable by the probe")
			}
			if after := runIn(t, l.dict, isolationProbe); after != baseline {
				t.Errorf("realm cloned after a mutating realm differs from the pristine baseline:\nbefore: %s\nafter:  %s", baseline, after)
			}
		})
	}
	t.Run("reset", func(t *testing.T) {
		cfg := interp.Config{Fuel: 1_000_000}
		in := NewRuntime(cfg)
		for _, src := range []string{isolationMutations + isolationProbe, isolationProbe} {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			ResetRuntime(in, cfg)
			if err := in.Run(prog); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := in.Out.String(), runIn(t, false, isolationProbe); got != want {
			t.Errorf("realm reset after a mutating run differs from the pristine baseline:\nreset: %s\nnew:   %s", got, want)
		}
	})
}

// concurrentPrograms force lazy sections, error kinds and native-table
// entries in different orders, and write to the objects they reach.
var concurrentPrograms = []string{
	`print(Math.max(1, 2), JSON.stringify([1]), new Date(0).getTime(), new Int8Array(2).length,
	  "ab".padEnd(4, "-"), [3, 1, 2].sort().join());
	 try { null.x; } catch (e) { print(e.name); }
	 Object.prototype.q = 1; Math.q = 2; String.prototype.trim = null;`,
	`try { null.x; } catch (e) { print(e.name); }
	 print([3, 1, 2].sort().join(), "ab".padEnd(4, "-"), new Int8Array(2).length,
	  new Date(0).getTime(), JSON.stringify([1]), Math.max(1, 2));
	 delete parseFloat; Array.prototype.push = 0; Int8Array.prototype.z = 1;`,
	`try { undefined(); } catch (e) { print(e instanceof TypeError); }
	 try { new Array(-1); } catch (e) { print(e instanceof RangeError); }
	 print(Object.getOwnPropertyNames(Math).length, typeof Float32Array, "x".repeat(3),
	  [1, 2].map(function (v) { return v * 2; }).join());
	 delete Boolean; RangeError.prototype.name = "R";`,
	`print(Object.getOwnPropertyNames(globalThis).join(","));
	 print(Object.getOwnPropertyNames(String.prototype).join(","));
	 Object.defineProperty(Array.prototype, "map", {enumerable: true}); console.log = 1;`,
}

// TestRealmClonesConcurrently builds realms of both layouts on 8
// goroutines at once, each forcing lazy state in its own order. Under
// -race, a write through any slice still aliasing the template's backing
// arrays is a data race between two clones, and a write to a frozen method
// table one between a clone and a fresh install.
func TestRealmClonesConcurrently(t *testing.T) {
	const goroutines, realms = 8, 200
	progs := make([]*ast.Program, len(concurrentPrograms))
	want := make([][2]string, len(concurrentPrograms))
	for i, src := range concurrentPrograms {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
		for j, l := range layouts {
			want[i][j] = runIn(t, l.dict, src)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < realms; i++ {
				p, l := (g+i)%len(progs), (g+i/len(progs))%len(layouts)
				in := NewRuntime(interp.Config{Fuel: 1_000_000, DisableShapes: layouts[l].dict})
				if err := in.Run(progs[p]); err != nil {
					t.Errorf("goroutine %d realm %d: %v", g, i, err)
					return
				}
				if got := in.Out.String(); got != want[p][l] {
					t.Errorf("goroutine %d realm %d (program %d, %s): got %q, want %q",
						g, i, p, layouts[l].name, got, want[p][l])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTemplateRejectsDictionaryLayout pins that only a shape-layout realm
// can be snapshot: the dictionary layout is the oracle the clones are
// compared with, so it must never be a clone itself.
func TestTemplateRejectsDictionaryLayout(t *testing.T) {
	in := NewRuntime(interp.Config{DisableShapes: true})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "dictionary mode") {
			t.Errorf("NewTemplate on a dictionary-layout realm: got panic %q, want one naming dictionary mode", msg)
		}
	}()
	interp.NewTemplate(in, eagerCtors)
}

// pendingTailProgram adds, reads and enumerates properties through one
// member-access site on three typed-array prototypes that share a shape
// while their method-table slots are still in the implicit pending tail.
const pendingTailProgram = `
var ps = [Int8Array.prototype, Uint8Array.prototype, Int16Array.prototype];
for (var r = 0; r < ps.length; r++) { var f = ps[r].fill; print(typeof f, f === ps[0].fill); }
for (var i = 0; i < ps.length; i++) { ps[i].tag = i; }
for (var j = 0; j < ps.length; j++) { ps[j].tag = ps[j].tag + 10; }
for (var k = 0; k < ps.length; k++) {
  print(ps[k].tag, typeof ps[k].set, ps[k].BYTES_PER_ELEMENT, Object.getOwnPropertyNames(ps[k]).join());
}
Math.extra = 1; Math.extra2 = Math.extra + Math.max(1, 2); print(Math.extra2, Object.keys(Math).join());
`

// TestPendingTailMatchesDictionaryLayout pins the implicit pending tail
// of shape-mode slots: the compiled evaluator, adding and overwriting
// properties on objects whose lazy slots were never allocated, must
// behave exactly like the dictionary-layout tree walker.
func TestPendingTailMatchesDictionaryLayout(t *testing.T) {
	prog, err := parser.Parse(pendingTailProgram)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	compile.Program(prog)
	in := NewRuntime(interp.Config{Fuel: 1_000_000})
	if err := compile.Of(prog).Run(in); err != nil {
		t.Fatal(err)
	}
	if want := runIn(t, true, pendingTailProgram); in.Out.String() != want {
		t.Errorf("compiled shape-mode run differs from the dictionary layout:\ngot:  %s\nwant: %s", in.Out.String(), want)
	}
}

// realmAllocBudget is the allocation count of one realm build (10 at the
// time of writing: the interpreter, its Protos map and global environment,
// and the template clone's Object, Value and lazyProp slabs) plus a small
// slack. Allocation counts are deterministic, so a change that brings
// back per-realm closures or per-object allocations fails here on any
// host.
const realmAllocBudget = 12

// realmByteBudget bounds the bytes one realm build allocates (8008 at the
// time of writing, 4 KB of it the Object slab). Like the count, the byte
// total is deterministic: it moves only when an allocation's size class
// does, so a wider Value or Object fails here on any host.
const realmByteBudget = 8 << 10

// TestRealmAllocBudget pins realm construction's allocation count and
// bytes.
func TestRealmAllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(100, func() { NewRuntime(interp.Config{}) })
	if got > realmAllocBudget {
		t.Errorf("NewRuntime allocates %v times per realm, budget %d", got, realmAllocBudget)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewRuntime(interp.Config{})
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > realmByteBudget {
		t.Errorf("NewRuntime allocates %d bytes per realm, budget %d", b, realmByteBudget)
	}
}

// TestRealmResetAllocs pins that resetting a realm allocates nothing: the
// copy of the template goes into the slabs and maps the realm already
// holds. It checks steady-state resets with testing.AllocsPerRun, then
// resets that each follow a run of a program that mutates the realm and
// installs lazy sections and error kinds.
func TestRealmResetAllocs(t *testing.T) {
	prog, err := parser.Parse(isolationMutations + isolationProbe)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	compile.Program(prog)
	cfg := interp.Config{Fuel: 1_000_000}
	in := NewRuntime(cfg)
	run := func() {
		if err := compile.Of(prog).Run(in); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(100, func() { ResetRuntime(in, cfg) }); got != 0 {
		t.Errorf("ResetRuntime allocates %v times per steady-state reset, want 0", got)
	}
	// ReadMemStats also counts what the runtime allocates for itself
	// during a collection, so none may run inside the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		run()
		runtime.ReadMemStats(&before)
		ResetRuntime(in, cfg)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("resetting a used realm allocated %d times, want 0", n)
		}
	}
}

// TestRealmResetKeepsGrownSlots pins that a pooled realm keeps the slot
// arrays its runs grew on template objects: after a warm-up run, a reset
// plus a run that declares top-level vars (the global object's slot tail)
// allocates nothing, and one that resolves a lazy String.prototype method
// (the prototype's pending tail) allocates only for the program's own
// values. Allocation counts are deterministic, so the bounds hold on any
// host.
func TestRealmResetKeepsGrownSlots(t *testing.T) {
	for _, c := range []struct {
		src  string
		want float64
	}{
		{`var a = 1, b = 2, c = 3;`, 0},
		{`"ab".substr(1)`, 4},
	} {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		compile.Program(prog)
		cfg := interp.Config{Fuel: 1_000_000}
		in := NewRuntime(cfg)
		run := func() {
			ResetRuntime(in, cfg)
			if err := compile.Of(prog).Run(in); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got > c.want {
			t.Errorf("%s: reset plus run allocates %v times, want at most %v", c.src, got, c.want)
		}
	}
}
