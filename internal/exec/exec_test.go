package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"comfort/internal/engines"
	"comfort/internal/js/analyze"
)

func schedCfg(workers int) Config {
	return Config{
		Testbeds: engines.Testbeds(),
		Workers:  workers,
		Fuel:     200000,
		Seed:     2021,
	}
}

var testSrcs = []string{
	`print(1 + 1);`,
	`print("Name: Albert".substr(6, undefined));`,
	`var = broken(`,
	`print([3,1,2].sort());`,
	`print(parseInt("08"));`,
	`function f(n){ return n <= 1 ? 1 : n * f(n-1); } print(f(6));`,
}

func collect(t *testing.T, s *Scheduler, srcs []string) []Outcome {
	t.Helper()
	var out []Outcome
	for oc := range s.Run(context.Background(), FromSlice(context.Background(), srcs)) {
		out = append(out, oc)
	}
	return out
}

// TestOutcomesStreamInOrder pins the reorder buffer: outcomes arrive in
// case order regardless of worker interleaving, with entries in testbed
// order.
func TestOutcomesStreamInOrder(t *testing.T) {
	s := New(schedCfg(8))
	outcomes := collect(t, s, testSrcs)
	if len(outcomes) != len(testSrcs) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(testSrcs))
	}
	tbs := engines.Testbeds()
	for i, oc := range outcomes {
		if oc.Index != i {
			t.Errorf("outcome %d has index %d", i, oc.Index)
		}
		if oc.Src != testSrcs[i] {
			t.Errorf("outcome %d carries wrong source", i)
		}
		entries := oc.Entries()
		if len(entries) != len(tbs) {
			t.Fatalf("outcome %d has %d entries, want %d", i, len(entries), len(tbs))
		}
		for j, e := range entries {
			if e.Testbed.ID() != tbs[j].ID() {
				t.Fatalf("outcome %d entry %d is %s, want %s", i, j, e.Testbed.ID(), tbs[j].ID())
			}
		}
	}
}

// TestWorkerCountIndependence pins the scheduler's determinism contract:
// identical inputs produce identical classified outcomes for any pool size.
func TestWorkerCountIndependence(t *testing.T) {
	base := collect(t, New(schedCfg(1)), testSrcs)
	wide := collect(t, New(schedCfg(8)), testSrcs)
	if len(base) != len(wide) {
		t.Fatalf("outcome counts differ: %d vs %d", len(base), len(wide))
	}
	for i := range base {
		if base[i].Result.Verdict != wide[i].Result.Verdict {
			t.Errorf("case %d: verdict %s (1 worker) vs %s (8 workers)",
				i, base[i].Result.Verdict, wide[i].Result.Verdict)
		}
		be, we := base[i].Entries(), wide[i].Entries()
		for j := range be {
			a, b := be[j].Result, we[j].Result
			if a.Key() != b.Key() {
				t.Errorf("case %d entry %d: result keys differ: %q vs %q", i, j, a.Key(), b.Key())
			}
		}
	}
}

// TestExecuteMatchesRun pins the one-shot path behind comfort.DiffTest to
// the streaming one: Execute delivers the same entries, verdict,
// deviations and analysis for every case as Run.
func TestExecuteMatchesRun(t *testing.T) {
	streamed := collect(t, New(schedCfg(4)), testSrcs)
	s := New(schedCfg(4))
	for i, src := range testSrcs {
		got, want := s.Execute(src), streamed[i]
		if got.Src != src || got.Result.Verdict != want.Result.Verdict ||
			len(got.Result.Deviations) != len(want.Result.Deviations) ||
			(got.Analysis == nil) != (want.Analysis == nil) {
			t.Errorf("case %d: Execute gave %s with %d deviations, Run %s with %d",
				i, got.Result.Verdict, len(got.Result.Deviations),
				want.Result.Verdict, len(want.Result.Deviations))
		}
		wantEntries := want.Entries()
		for j, e := range got.Entries() {
			w := wantEntries[j]
			if e.Testbed.ID() != w.Testbed.ID() || e.Result != w.Result {
				t.Fatalf("case %d entry %d: Execute %s %+v, Run %s %+v",
					i, j, e.Testbed.ID(), e.Result, w.Testbed.ID(), w.Result)
			}
		}
	}
}

// TestBehaviorClassesCollapse checks that the 104 full testbeds share
// executions: there must be strictly fewer classes than testbeds.
func TestBehaviorClassesCollapse(t *testing.T) {
	s := New(schedCfg(1))
	if s.Classes() >= len(engines.Testbeds()) {
		t.Errorf("expected behaviour classes < %d testbeds, got %d",
			len(engines.Testbeds()), s.Classes())
	}
	if s.Classes() == 0 {
		t.Error("no behaviour classes built")
	}
}

// TestParseCacheShares checks the parse-once property: for n cases over the
// full testbed set, front-end passes stay within 2 × n — one base parse
// for both modes, plus the lenient parses of programs the base options
// reject — instead of (distinct fingerprints × n) or (testbeds × n).
func TestParseCacheShares(t *testing.T) {
	s := New(schedCfg(4))
	collect(t, s, testSrcs)
	st := s.Stats()
	hits, misses := st.CacheHits, st.CacheMisses
	if hits == 0 {
		t.Error("parse cache recorded no hits on a full-testbed run")
	}
	maxMisses := int64(len(testSrcs) * 2)
	if misses > maxMisses {
		t.Errorf("parse cache misses = %d, want <= %d", misses, maxMisses)
	}
	t.Logf("parse cache: %d hits, %d misses", hits, misses)
}

// TestStrictModeAnalysis: a case's report comes from its first testbed's
// mode, and in strict mode all of the program is strict code, so a
// program without a directive reports FeatStrict there, although the
// cached tree both modes share carries only directive strictness.
func TestStrictModeAnalysis(t *testing.T) {
	for _, strict := range []bool{false, true} {
		s := New(Config{Testbeds: []engines.Testbed{engines.ReferenceTestbed(strict), engines.ReferenceTestbed(!strict)}})
		oc := s.Execute("function f() { return 1; } print(f());")
		if got := oc.Analysis.Features&analyze.FeatStrict != 0; got != strict {
			t.Errorf("first mode strict=%v: FeatStrict %v", strict, got)
		}
	}
}

// TestCancellationStopsWithoutDeadlock pins the shutdown contract: a
// cancelled context closes the outcome stream promptly and never deadlocks
// the pool.
func TestCancellationStopsWithoutDeadlock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// An endless case stream: cancellation is the only way to stop.
	cases := make(chan Case)
	go func() {
		defer close(cases)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case cases <- Case{Index: i, Src: fmt.Sprintf("print(%d);", i)}:
			}
		}
	}()

	s := New(Config{Testbeds: engines.Testbeds()[:8], Workers: 4, Seed: 1})
	outcomes := s.Run(ctx, cases)
	seen := 0
	for oc := range outcomes {
		if oc.Index != seen {
			t.Errorf("outcome %d has index %d", seen, oc.Index)
		}
		seen++
		if seen == 5 {
			cancel()
		}
	}
	if seen < 5 {
		t.Errorf("stream closed after %d outcomes, before cancellation", seen)
	}
	cancel()
}

// TestCancelledRunTerminates guards against scheduler goroutine leaks: a
// run cancelled immediately must still close its outcome channel.
func TestCancelledRunTerminates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Config{Testbeds: engines.Testbeds()[:4], Workers: 2, Seed: 1})
	outcomes := s.Run(ctx, FromSlice(ctx, testSrcs))
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-outcomes:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("outcome channel did not close after cancellation")
		}
	}
}
