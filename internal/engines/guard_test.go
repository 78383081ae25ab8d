package engines

import (
	"strings"
	"testing"

	"comfort/internal/js/interp"
)

// TestInjectedPanicBecomesCrashResult pins the panic-isolation contract:
// an injected evaluator panic never escapes — it surfaces as a classified,
// deterministic crash result.
func TestInjectedPanicBecomesCrashResult(t *testing.T) {
	tb := ReferenceTestbed(false)
	opts := RunOptions{Fuel: 100000, Seed: 1, InjectPanic: true}
	r := tb.Run(`print(1);`, opts)
	if r.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v, want crash", r.Outcome)
	}
	if !r.Panic || r.ErrName != "panic" {
		t.Errorf("crash not marked as recovered panic: %+v", r)
	}
	if !strings.Contains(r.Error, "injected evaluator panic") {
		t.Errorf("panic message lost: %q", r.Error)
	}
	again := tb.Run(`print(1);`, opts)
	if r.Key() != again.Key() || r.Error != again.Error || r.Output != again.Output {
		t.Errorf("recovered panic not deterministic:\n%+v\nvs\n%+v", r, again)
	}
}

// TestHookPanicRecoveredMidRun: a panic from deep inside a real execution
// (a defect hook here, standing in for an evaluator bug) is recovered with
// the partial output and fuel reading intact.
func TestHookPanicRecoveredMidRun(t *testing.T) {
	d := &Defect{
		ID: "TEST-PANIC", Engine: "Test",
		Hook: &Hook{Site: interp.HookBuiltin, Name: "Array.prototype.push", Fn: func(*interp.HookCtx) *interp.Override {
			panic("synthetic evaluator bug")
		}},
	}
	src := `print("before"); var a = []; a.push(1); print("after");`
	r := NewDefectRunner(d, false).Run(src, RunOptions{Fuel: 100000, Seed: 1})
	if r.Outcome != OutcomeCrash || !r.Panic {
		t.Fatalf("hook panic not classified as crash: %+v", r)
	}
	if !strings.Contains(r.Output, "before") || strings.Contains(r.Output, "after") {
		t.Errorf("partial output not captured: %q", r.Output)
	}
	if !strings.Contains(r.Error, "synthetic evaluator bug") {
		t.Errorf("panic value lost: %q", r.Error)
	}
	if r.FuelUsed == 0 {
		t.Error("fuel reading lost on recovered panic")
	}
	again := NewDefectRunner(d, false).Run(src, RunOptions{Fuel: 100000, Seed: 1})
	if r.Key() != again.Key() || r.Output != again.Output || r.FuelUsed != again.FuelUsed {
		t.Errorf("recovered mid-run panic not deterministic")
	}
}

// TestWatchdogTimeoutClassified: a firing watchdog surfaces as a timeout
// result with the WallClock marker (the classifier treats it as deviant
// unconditionally, unlike fuel timeouts).
func TestWatchdogTimeoutClassified(t *testing.T) {
	probes := 0
	r := ReferenceTestbed(false).Run(`while (true) {}`, RunOptions{
		Fuel: 100 * interp.WatchdogStride, Seed: 1,
		Watchdog: func() bool { probes++; return probes >= 2 },
	})
	if r.Outcome != OutcomeTimeout || !r.WallClock {
		t.Fatalf("watchdog abort not classified as wall-clock timeout: %+v", r)
	}
	if r.ErrName != "timeout" {
		t.Errorf("ErrName = %q", r.ErrName)
	}
}

// TestPanicAndWallClockExcludedFromKey: the robustness markers must not
// perturb behaviour keys for otherwise-identical results (Key drives
// majority voting and dedup).
func TestPanicMarkerInvisibleToSemantics(t *testing.T) {
	a := ExecResult{Outcome: OutcomeCrash, Error: "panic: x", ErrName: "panic", Panic: true}
	b := ExecResult{Outcome: OutcomeCrash, Error: "panic: x", ErrName: "panic", FuelUsed: 99}
	if a.Key() != b.Key() {
		t.Errorf("Panic/FuelUsed leaked into Key: %q vs %q", a.Key(), b.Key())
	}
}
