package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"comfort/internal/engines"
	"comfort/internal/js/analyze"
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
