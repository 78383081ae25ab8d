// The end-to-end verdict tests drive the Figure-5 classifier through the
// exec scheduler's one-shot Execute — the fan-out behind comfort.DiffTest
// — from an external test package, since exec imports difftest.
package difftest_test

import (
	"testing"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
)

// run executes src on every testbed through the scheduler and returns the
// classified case (fuel 0 means DefaultFuel).
func run(src string, tbs []engines.Testbed, fuel int64) difftest.CaseResult {
	return exec.New(exec.Config{Testbeds: tbs, Fuel: fuel}).Execute(src).Result
}

func testbedsFor(t *testing.T, specs ...[2]string) []engines.Testbed {
	t.Helper()
	var out []engines.Testbed
	for _, s := range specs {
		v, ok := engines.FindVersion(s[0], s[1])
		if !ok {
			t.Fatalf("unknown version %v", s)
		}
		out = append(out, engines.Testbed{Version: v})
	}
	return out
}

func TestPassVerdict(t *testing.T) {
	tbs := engines.LatestTestbeds()
	cr := run(`print(1 + 1);`, tbs, 0)
	if cr.Verdict != difftest.VerdictPass {
		t.Errorf("verdict: %s", cr.Verdict)
	}
}

func TestInvalidVerdict(t *testing.T) {
	tbs := engines.LatestTestbeds()
	cr := run(`var = broken(`, tbs, 0)
	if cr.Verdict != difftest.VerdictInvalid {
		t.Errorf("verdict: %s", cr.Verdict)
	}
}

func TestConsistentExceptionIsPass(t *testing.T) {
	tbs := engines.LatestTestbeds()
	cr := run(`null.x;`, tbs, 0)
	if cr.Verdict != difftest.VerdictPass {
		t.Errorf("a uniformly thrown TypeError is a pass, got %s", cr.Verdict)
	}
}

func TestWrongOutputIsolatesDeviant(t *testing.T) {
	// The Figure-2 substr witness on Rhino v1.7.12 vs clean engines.
	tbs := testbedsFor(t,
		[2]string{"Rhino", "v1.7.12"},
		[2]string{"V8", "d891c59"},
		[2]string{"SpiderMonkey", "v78.0"},
		[2]string{"QuickJS", "1722758"},
	)
	src := `print("Name: Albert".substr(6, undefined));`
	cr := run(src, tbs, 0)
	if cr.Verdict != difftest.VerdictWrongOutput {
		t.Fatalf("verdict: %s", cr.Verdict)
	}
	if len(cr.Deviations) != 1 || cr.Deviations[0].Testbed.Version.Engine != "Rhino" {
		t.Errorf("deviant should be Rhino alone: %+v", cr.Deviations)
	}
}

func TestCrashVerdict(t *testing.T) {
	// The Listing-9 QuickJS crash.
	tbs := testbedsFor(t,
		[2]string{"QuickJS", "9ccefbf"},
		[2]string{"V8", "d891c59"},
		[2]string{"SpiderMonkey", "v78.0"},
	)
	src := `"".normalize(true);`
	cr := run(src, tbs, 0)
	if cr.Verdict != difftest.VerdictCrash {
		t.Fatalf("verdict: %s", cr.Verdict)
	}
	if len(cr.Deviations) != 1 || cr.Deviations[0].Testbed.Version.Engine != "QuickJS" {
		t.Errorf("crash deviant: %+v", cr.Deviations)
	}
}

func TestTimeoutTwoXRule(t *testing.T) {
	// The Hermes reverse-fill slowdown against fast engines.
	tbs := testbedsFor(t,
		[2]string{"Hermes", "3ed8340"},
		[2]string{"V8", "d891c59"},
		[2]string{"SpiderMonkey", "v78.0"},
	)
	src := `var foo = function(size) {
  var array = new Array(size);
  while (size--) { array[size] = 0; }
};
foo(30000);
print("done");`
	// The budget must exceed 2× what the conforming engines consume for
	// the 2× rule to separate the slow engine from ordinary variance.
	cr := run(src, tbs, 2000000)
	if cr.Verdict != difftest.VerdictTimeout {
		t.Fatalf("verdict: %s", cr.Verdict)
	}
	if len(cr.Deviations) != 1 || cr.Deviations[0].Testbed.Version.Engine != "Hermes" {
		t.Errorf("timeout deviant: %+v", cr.Deviations)
	}
}

func TestAllTimeoutIgnored(t *testing.T) {
	tbs := engines.LatestTestbeds()[:3]
	cr := run(`while (true) {}`, tbs, 20000)
	if cr.Verdict != difftest.VerdictAllTimeout {
		t.Errorf("infinite loops must be ignored, got %s", cr.Verdict)
	}
}

func TestParseInconsistency(t *testing.T) {
	// ChakraCore's parser rejects binary literals (ch-007).
	tbs := testbedsFor(t,
		[2]string{"ChakraCore", "v1.11.19"},
		[2]string{"V8", "d891c59"},
		[2]string{"QuickJS", "1722758"},
	)
	cr := run(`print(0b101);`, tbs, 0)
	if cr.Verdict != difftest.VerdictParseInconsistent {
		t.Fatalf("verdict: %s", cr.Verdict)
	}
	if len(cr.Deviations) != 1 || cr.Deviations[0].Testbed.Version.Engine != "ChakraCore" {
		t.Errorf("parse deviant: %+v", cr.Deviations)
	}
}

func TestStrictAndNormalPoolsVoteSeparately(t *testing.T) {
	// Sloppy/strict behaviour differences are NOT bugs: a program that
	// legitimately behaves differently in strict mode must not produce
	// deviants when both modes are present.
	var tbs []engines.Testbed
	for _, e := range engines.All() {
		tbs = append(tbs, engines.Testbed{Version: e.Latest()},
			engines.Testbed{Version: e.Latest(), Strict: true})
	}
	// The this-binding of a plain function call differs legitimately
	// between modes and touches no seeded-defect site.
	src := `function f() { return this === undefined; }
print(f());`
	cr := run(src, tbs, 0)
	if cr.Verdict.IsBuggy() {
		t.Errorf("legitimate strict/sloppy difference flagged as bug: %s (%d deviations)",
			cr.Verdict, len(cr.Deviations))
	}
}
