package exec

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
)

// faultCfg is schedCfg plus an aggressive deterministic fault plan.
func faultCfg(workers int, plan *faultinject.Plan) Config {
	cfg := schedCfg(workers)
	cfg.Faults = plan
	return cfg
}

// TestInjectedFaultsSurfaceAsFindings pins the scheduler half of the fault
// harness: injected panics and hangs never kill the process — each targets
// one behaviour class of its case and surfaces as a crash/timeout verdict,
// counted in Stats.
func TestInjectedFaultsSurfaceAsFindings(t *testing.T) {
	// panic=2, slow=3: over six cases both fault kinds fire repeatedly.
	plan := faultinject.New(faultinject.Config{Seed: 5, PanicEvery: 2, SlowEvery: 3})
	s := New(faultCfg(4, plan))
	outcomes := collect(t, s, testSrcs)
	if len(outcomes) != len(testSrcs) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(testSrcs))
	}
	st := s.Stats()
	panics, wallTimeouts := st.Panics, st.WallTimeouts
	if panics == 0 {
		t.Error("no injected panic fired at 1-in-2")
	}
	var crashes, hangs int
	for _, oc := range outcomes {
		fault, _ := plan.CaseFault(oc.Index)
		switch oc.Result.Verdict {
		case difftest.VerdictCrash:
			crashes++
			if fault != faultinject.FaultPanic {
				t.Errorf("case %d crashed without an injected panic", oc.Index)
			}
		case difftest.VerdictTimeout:
			hangs++
		}
		for _, e := range oc.Entries() {
			if e.Result.Panic && fault != faultinject.FaultPanic {
				t.Errorf("case %d: spurious panic marker", oc.Index)
			}
		}
	}
	if crashes == 0 {
		t.Error("injected panics produced no crash verdicts")
	}
	// Parse-error cases (testSrcs[2]) never execute, so hangs may be rare;
	// require only that counters and verdicts stay consistent.
	if wallTimeouts == 0 && hangs > 0 {
		t.Error("timeout verdicts without wall-timeout counts")
	}
	t.Logf("faults: %d panics, %d wall-timeouts; verdicts: %d crash, %d timeout",
		panics, wallTimeouts, crashes, hangs)
}

// TestFaultedRunWorkerIndependence: the fault plan is part of the
// deterministic input, so faulted outcomes are identical for any pool
// size — the determinism contract survives injected crashes and hangs.
func TestFaultedRunWorkerIndependence(t *testing.T) {
	mk := func(workers int) []Outcome {
		plan := faultinject.New(faultinject.Config{Seed: 5, PanicEvery: 2, SlowEvery: 3})
		return collect(t, New(faultCfg(workers, plan)), testSrcs)
	}
	base := mk(1)
	wide := mk(8)
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
			if a.Key() != b.Key() || a.Panic != b.Panic || a.WallClock != b.WallClock {
				t.Errorf("case %d entry %d: faulted results differ across pool sizes", i, j)
			}
		}
	}
}

// TestInjectedSlowFaultDeviates: an injected hang on a fuel-hungry case
// aborts the faulted behaviour class via its countdown watchdog while the
// healthy classes finish — exactly one deviant wall-clock timeout, so the
// case classifies as a timeout finding.
func TestInjectedSlowFaultDeviates(t *testing.T) {
	plan := faultinject.New(faultinject.Config{Seed: 1, SlowEvery: 1, SlowProbes: 1})
	cfg := faultCfg(2, plan)
	cfg.Fuel = 5_000_000 // room for the loop to finish on healthy classes
	// Heavy enough to cross several watchdog-probe strides.
	srcs := []string{`var s = 0; for (var i = 0; i < 50000; i++) s += i; print(s);`}
	s := New(cfg)
	outcomes := collect(t, s, srcs)
	if len(outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	oc := outcomes[0]
	if oc.Result.Verdict != difftest.VerdictTimeout {
		t.Fatalf("verdict = %v, want timeout (one class hung, rest finished)", oc.Result.Verdict)
	}
	var wall, finished int
	for _, e := range oc.Entries() {
		if e.Result.WallClock {
			wall++
		} else if e.Result.Outcome != engines.OutcomeTimeout {
			finished++
		}
	}
	if wall == 0 || finished == 0 {
		t.Fatalf("expected one hung class among finishers: %d wall-clock, %d finished", wall, finished)
	}
	if s.Stats().WallTimeouts == 0 {
		t.Error("wall-timeout counter did not move")
	}
}

// TestCaseDeadlineWatchdog drives the real wall-clock path with an
// injected clock: a case that hangs past the deadline is classified as a
// timeout instead of stalling its worker.
func TestCaseDeadlineWatchdog(t *testing.T) {
	var ticks atomic.Int64
	cfg := schedCfg(2)
	cfg.Fuel = 50_000_000 // far beyond the loop's appetite: only the clock can stop it
	cfg.CaseDeadline = time.Second
	cfg.Clock = func() time.Time {
		// Each probe advances the fake clock, so the second probe of any
		// run is past the deadline. Clocks share time.Now's contract:
		// they are called concurrently from worker goroutines.
		return time.Unix(0, ticks.Add(1)*int64(600*time.Millisecond))
	}
	srcs := []string{`while (true) {}`}
	outcomes := collect(t, New(cfg), srcs)
	if len(outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	if v := outcomes[0].Result.Verdict; v != difftest.VerdictAllTimeout {
		t.Fatalf("hung case verdict = %v, want all-timeout (every testbed hangs)", v)
	}
	for _, e := range outcomes[0].Entries() {
		if e.Result.Outcome != engines.OutcomeTimeout || !e.Result.WallClock {
			t.Fatalf("entry not a wall-clock timeout: %+v", e.Result)
		}
	}
}

// TestContiguousPrefixUnderFaults: cancellation mid-stream with faults
// armed still yields a contiguous prefix of in-order outcomes.
func TestContiguousPrefixUnderFaults(t *testing.T) {
	plan := faultinject.New(faultinject.Config{Seed: 9, PanicEvery: 2})
	s := New(faultCfg(4, plan))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srcs := make([]string, 200)
	for i := range srcs {
		srcs[i] = testSrcs[i%len(testSrcs)]
	}
	n := 0
	for oc := range s.Run(ctx, FromSlice(ctx, srcs)) {
		if oc.Index != n {
			t.Fatalf("outcome %d has index %d — hole in the prefix", n, oc.Index)
		}
		n++
		if n == 20 {
			cancel()
		}
	}
	if n < 20 || n >= 200 {
		t.Errorf("cancelled faulted run emitted %d outcomes", n)
	}
}
