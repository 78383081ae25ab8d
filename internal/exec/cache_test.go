package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comfort/internal/engines"
	"comfort/internal/js/analyze"
	"comfort/internal/js/ast"
	"comfort/internal/js/parser"
)

// TestParseCacheGenerationalEviction checks the segmented eviction policy:
// the cache stays bounded, rotation reports evictions, and — the property
// the wholesale-reset design lacked — entries touched within the last
// generation survive a rotation instead of the whole working set vanishing
// at once.
func TestParseCacheGenerationalEviction(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	pc := newParseCache(8) // generations of 4

	src := func(i int) string { return fmt.Sprintf("var x%d = %d;", i, i) }
	for i := 0; i < 12; i++ {
		if _, err := pc.parse(p, src(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(pc.young)+len(pc.old) > 8 {
		t.Errorf("cache holds %d+%d entries, cap 8", len(pc.young), len(pc.old))
	}
	if pc.evictions.Load() == 0 {
		t.Error("no evictions recorded after exceeding the cap")
	}

	// A hot entry must survive rotations: touch it between insertions so
	// promotion keeps pulling it into the young generation.
	hot := "var hot = 1;"
	if _, err := pc.parse(p, hot); err != nil {
		t.Fatal(err)
	}
	misses0 := missCount(pc)
	for i := 100; i < 130; i++ {
		if _, err := pc.parse(p, src(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.parse(p, hot); err != nil {
			t.Fatal(err)
		}
	}
	if got := missCount(pc) - misses0; got != 30 {
		t.Errorf("hot entry was re-parsed: %d misses beyond the 30 cold inserts", got-30)
	}

	// Wholesale-reset regression guard: after filling far past the cap,
	// the most recently inserted entries are still resident.
	for i := 200; i < 210; i++ {
		if _, err := pc.parse(p, src(i)); err != nil {
			t.Fatal(err)
		}
	}
	misses1 := missCount(pc)
	for i := 206; i < 210; i++ {
		if _, err := pc.parse(p, src(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := missCount(pc) - misses1; got != 0 {
		t.Errorf("recently inserted entries were evicted: %d re-parses", got)
	}
}

func missCount(pc *parseCache) int64 { return pc.misses.Load() }

// TestParseCacheResolves checks the compiled-program property: cached
// programs come back through the full pass pipeline — scope-resolved,
// thunk-compiled and carrying their analysis report.
func TestParseCacheResolves(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	pc := newParseCache(16)
	prog, err := pc.parse(p, "function f(){ return 1; } print(f());")
	if err != nil {
		t.Fatal(err)
	}
	if !prog.ResolvedScopes {
		t.Error("cached program is not resolved")
	}
	if prog.Compiled == nil {
		t.Error("cached program is not compiled")
	}
	if analyze.Of(prog) == nil {
		t.Error("cached program carries no analysis report")
	}
}

// TestParseCacheOneProgramPerKey pins the publish-once contract: when
// several workers miss on one key at once, they all end up holding the
// one published program, and the parse counts as a single miss.
func TestParseCacheOneProgramPerKey(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	pc := newParseCache(64)
	const workers, rounds = 8, 20
	for r := 0; r < rounds; r++ {
		// A source long enough that the parse outlasts the goroutines'
		// start-up, so most of them miss before the first publishes.
		src := fmt.Sprintf("var r = %d;\n", r) + strings.Repeat("function f(a) { return a * 2 + 1; } print(f(r));\n", 40)
		progs := make([]interface{}, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				prog, err := pc.parse(p, src)
				if err != nil {
					t.Error(err)
				}
				progs[w] = prog
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if progs[w] != progs[0] {
				t.Fatalf("round %d: workers hold different programs for one key", r)
			}
		}
	}
	if got := pc.misses.Load(); got != rounds {
		t.Errorf("%d misses for %d distinct keys", got, rounds)
	}
	if got := pc.hits.Load() + pc.misses.Load(); got != workers*rounds {
		t.Errorf("%d lookups counted, want %d", got, workers*rounds)
	}
}

// TestParseCacheJoinsInFlight pins the one front-end pass per distinct
// program: callers of both modes that ask for one source while its pass
// is in flight wait for that pass instead of repeating it, all of them
// hold the one program, and hits never run a pass.
func TestParseCacheJoinsInFlight(t *testing.T) {
	modes := [2]*engines.PreparedTestbed{engines.ReferenceTestbed(false).Prepare(), engines.ReferenceTestbed(true).Prepare()}
	const callers = 8
	for _, src := range []string{"var a = 1; print(a);", "var a = 010; print(a);"} {
		g := newGatedCache(func(int64) {})
		progs, errs := make([]*ast.Program, callers), make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				progs[c], errs[c] = g.pc.parse(modes[c%2], src)
			}(c)
		}
		g.open(callers)
		wg.Wait()
		if n := g.passes.Load(); n != 1 || g.pc.misses.Load() != 1 {
			t.Fatalf("%q: %d front-end passes, %d misses for one program asked for by %d callers", src, n, g.pc.misses.Load(), callers)
		}
		for c := 0; c < callers; c++ {
			want, wantErr := modes[c%2].Parse(src)
			if (errs[c] == nil) != (wantErr == nil) || (wantErr != nil && errs[c].Error() != wantErr.Error()) {
				t.Fatalf("%q: caller %d (strict=%v) got error %v, want %v", src, c, c%2 == 1, errs[c], wantErr)
			}
			if want != nil && progs[c] != progs[0] {
				t.Fatalf("%q: caller %d holds a program of its own", src, c)
			}
		}
		for c := 0; c < callers; c++ {
			g.pc.parse(modes[c%2], src)
		}
		if n := g.passes.Load(); n != 1 {
			t.Errorf("%q: hits ran %d more front-end passes", src, n-1)
		}
	}
}

// TestParseCachePanicReleasesWaiters: a front-end pass that panics
// releases the callers waiting for it, and one of them runs the pass
// again, so no caller blocks forever.
func TestParseCachePanicReleasesWaiters(t *testing.T) {
	p := engines.ReferenceTestbed(false).Prepare()
	const callers = 6
	g := newGatedCache(func(n int64) {
		if n == 1 {
			panic("front end failed")
		}
	})
	progs := make([]*ast.Program, callers)
	panicked := make([]bool, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { panicked[c] = recover() != nil }()
			progs[c], _ = g.pc.parse(p, "print(1);")
		}(c)
	}
	g.open(callers)
	wg.Wait()
	failed := 0
	var prog *ast.Program
	for c := 0; c < callers; c++ {
		switch {
		case panicked[c]:
			failed++
		case prog == nil:
			prog = progs[c]
		case progs[c] != prog:
			t.Errorf("caller %d holds a program of its own", c)
		}
	}
	if failed != 1 || prog == nil || g.passes.Load() != 2 {
		t.Errorf("%d callers panicked, %d passes; want the panicking pass's caller alone and one more pass", failed, g.passes.Load())
	}
}

// gatedCache is a parse cache whose front-end passes wait for release, so
// that every caller arrives while the first pass is in flight.
type gatedCache struct {
	pc              *parseCache
	started, passes atomic.Int64
	release         chan struct{}
}

// newGatedCache returns a gated cache whose n-th pass calls during(n).
func newGatedCache(during func(n int64)) *gatedCache {
	g := &gatedCache{pc: newParseCache(64), release: make(chan struct{})}
	g.pc.front = func(p *engines.PreparedTestbed, src string) parser.Modes {
		g.started.Add(1)
		<-g.release
		during(g.passes.Add(1))
		return p.ParseModes(src)
	}
	return g
}

// open waits until n callers either found an entry or started a pass,
// then releases the passes.
func (g *gatedCache) open(n int64) {
	for g.pc.hits.Load()+g.started.Load() < n {
		runtime.Gosched()
	}
	close(g.release)
}
