package exec

import (
	"context"
	"math/rand"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
	"comfort/internal/js/parser"
)

// preParseSamples are valid programs that some testbed's pre-parse
// interceptor rejects, so the groups holding those testbeds deliver a
// parser rejection next to probe fan-out in the same case.
var preParseSamples = []string{
	"var x = 0o17; print(x);",
	"for (let i = 0; i < 2; i++) print(i);",
	"var a = null ?? 5; print(a);",
	"print(0b101);",
	"function f(a, ) { return a; } print(f(1));",
	`print("\u{41}");`,
	"var f = (a) => a * 2; print(f(3));",
	"var o = { get x() { return 1; } }; print(o.x);",
	"print(2 ** 10);",
	"for (var v of [1, 2]) print(v);",
}

// earlyErrorSamples are statically invalid programs: the early-error gate
// rejects them before any interpreter, probe or class, runs.
var earlyErrorSamples = []string{
	"let a = 1; let a = 2; print(a);",
	"const c = 1; c = 2; print(c);",
	"x: { continue x; }",
	"function f(p) { let p = 1; } f(0);",
}

// lenientSamples are programs the base parser of their mode rejects at a
// site a lenient parser option decides: legacy octal, a duplicate
// parameter and deleting an identifier, each in strict code.
var lenientSamples = []string{
	`"use strict"; var x = 017; print(x);`,
	`"use strict"; print(0777 + 1);`,
	`"use strict"; function f(a, a) { return a; } print(f(1, 2));`,
	`"use strict"; var z = 1; delete z; print(z);`,
}

// collapseInputs is the collapse oracle's case stream: the corpus, every
// catalog witness (the grid runs each on both modes), a fixed stream of
// 300 cases from each of the six fuzzers, and the pre-parse and
// early-error samples.
func collapseInputs() []string {
	srcs := append([]string(nil), corpus.Programs()...)
	for _, d := range engines.Catalog() {
		srcs = append(srcs, d.Witness)
	}
	for fi, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(int64(300 + fi)))
		n := 0
		for n < 300 {
			batch := f.Next(rng)
			if len(batch) == 0 {
				break
			}
			if len(batch) > 300-n {
				batch = batch[:300-n]
			}
			srcs = append(srcs, batch...)
			n += len(batch)
		}
	}
	srcs = append(srcs, preParseSamples...)
	return append(srcs, earlyErrorSamples...)
}

// checkCollapse runs srcs through a scheduler built from cfg and compares
// every delivered entry with a direct tb.Prepare().Run of its testbed.
// An entry of the class an injected fault targets may instead carry the
// injected outcome, and must carry an injected panic whenever the program
// reaches an interpreter; every other entry must match byte for byte. It
// returns the scheduler for its counters and the number of faulted
// entries that deviated.
func checkCollapse(t *testing.T, cfg Config, srcs []string) (*Scheduler, int) {
	t.Helper()
	s := New(cfg)
	opts := engines.RunOptions{Fuel: cfg.Fuel, Seed: cfg.Seed}
	faultedDeviants := 0
	delivered := 0
	ctx := context.Background()
	for oc := range s.Run(ctx, FromSlice(ctx, srcs)) {
		delivered++
		fault, target := s.fault(oc.Case)
		var inTarget map[int]bool
		if target >= 0 {
			inTarget = map[int]bool{}
			for _, i := range s.classes[target] {
				inTarget[i] = true
			}
		}
		for i, e := range oc.Entries() {
			tb := cfg.Testbeds[i]
			if e.Testbed.ID() != tb.ID() {
				t.Fatalf("case %d entry %d is %s, want %s", oc.Index, i, e.Testbed.ID(), tb.ID())
			}
			want := tb.Prepare().Run(oc.Src, opts)
			injected := inTarget[i] && ((fault == faultinject.FaultPanic && e.Result.Panic) ||
				(fault == faultinject.FaultSlow && e.Result.WallClock))
			if inTarget[i] && fault == faultinject.FaultPanic && want.Outcome != engines.OutcomeParseError && !injected {
				t.Fatalf("case %d on %s: the faulted class did not run with its injected panic: %+v",
					oc.Index, tb.ID(), e.Result)
			}
			if injected {
				faultedDeviants++
				continue
			}
			if e.Result == want {
				continue
			}
			t.Fatalf("case %d on %s: scheduler entry differs from a direct run\nscheduler: %+v\ndirect:    %+v\nprogram:\n%s",
				oc.Index, tb.ID(), e.Result, want, oc.Src)
		}
	}
	if delivered != len(srcs) {
		t.Fatalf("scheduler delivered %d of %d cases", delivered, len(srcs))
	}
	return s, faultedDeviants
}

// TestCollapseOracle pins the probe-group collapse: every entry the
// scheduler delivers — a probe result fanned out, a physical class run,
// a pre-parse rejection or an early error — equals a direct run of its
// testbed, over the corpus, all catalog witnesses, six fuzzers' case
// streams and the pre-parse and early-error samples. The collapse must
// also actually happen: fewer physical runs than behaviour classes per
// case, and some classes re-run because a witness's hook matched.
func TestCollapseOracle(t *testing.T) {
	srcs := collapseInputs()
	s, _ := checkCollapse(t, schedCfg(4), srcs)
	st := s.Stats()
	compiled, fallback := st.Compiled, st.Fallback
	runs := compiled + fallback
	if len(s.groups) >= s.Classes() {
		t.Fatalf("%d probe groups for %d classes: nothing to collapse", len(s.groups), s.Classes())
	}
	if max := int64(len(srcs) * s.Classes()); runs >= max/2 {
		t.Errorf("%d physical runs for %d cases × %d classes: the probes collapsed too little",
			runs, len(srcs), s.Classes())
	}
	if min := int64(len(srcs) * len(s.groups)); runs <= min/2 {
		t.Errorf("%d physical runs for %d cases × %d groups: no class ran physically",
			runs, len(srcs), len(s.groups))
	}
}

// TestCollapseOracleWithFaults reruns the collapse oracle over part of the
// stream with an aggressive fault plan: the class an injected fault
// targets runs physically with the fault armed and must be the only
// deviant — every other entry of the case, fanned out from the probe or
// not, still equals a direct run.
func TestCollapseOracleWithFaults(t *testing.T) {
	srcs := collapseInputs()
	srcs = append(srcs[:200], srcs[len(srcs)-len(preParseSamples)-len(earlyErrorSamples):]...)
	cfg := schedCfg(4)
	cfg.Faults = faultinject.New(faultinject.Config{Seed: 3, PanicEvery: 2, SlowEvery: 3, SlowProbes: 1})
	_, deviants := checkCollapse(t, cfg, srcs)
	if deviants == 0 {
		t.Fatal("no injected fault surfaced; the faulted-class check is vacuous")
	}
}

// TestGroupsPartitionClasses pins the probe-group structure over the full
// testbed set: groups partition the classes, every class in a group
// shares its mode, a probe exists exactly for multi-class groups, and
// there is exactly one group per mode.
func TestGroupsPartitionClasses(t *testing.T) {
	s := New(schedCfg(1))
	seen := make([]bool, s.Classes())
	for g, grp := range s.groups {
		if (grp.probe != nil) != (len(grp.classes) > 1) {
			t.Errorf("group %d: %d classes, probe %v", g, len(grp.classes), grp.probe != nil)
		}
		for _, k := range grp.classes {
			if seen[k] {
				t.Errorf("class %d in two groups", k)
			}
			seen[k] = true
			if s.classRep[k].Testbed.Strict != s.classRep[grp.classes[0]].Testbed.Strict {
				t.Errorf("group %d mixes modes", g)
			}
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("class %d in no group", k)
		}
	}
	if len(s.groups) != 2 {
		t.Errorf("%d groups for the two modes", len(s.groups))
	}
	for g, grp := range s.groups {
		if strict := s.classRep[grp.classes[0]].Testbed.Strict; grp.base.Testbed.Strict != strict {
			t.Errorf("group %d: base parser of the other mode", g)
		}
	}
}

// TestCollapseOracleOneClassGroups reruns the collapse oracle on a testbed
// set in which each mode is one behaviour class with lenient parser
// options: Rhino v1.7.11, which accepts legacy octal in strict code. Such
// a group has no probe, so runGroup runs its class physically, on the
// mode's base parse or, where the base parser rejected the case at a
// lenient site, on the class's own parse.
func TestCollapseOracleOneClassGroups(t *testing.T) {
	cfg := schedCfg(2)
	cfg.Testbeds = nil
	for _, tb := range engines.Testbeds() {
		if tb.Version.Engine == "Rhino" && tb.Version.Name == "v1.7.11" {
			cfg.Testbeds = append(cfg.Testbeds, tb)
		}
	}
	s, _ := checkCollapse(t, cfg, append(collapseInputs(), lenientSamples...))
	if len(s.groups) != 2 {
		t.Fatalf("%d probe groups for the two modes", len(s.groups))
	}
	for g, grp := range s.groups {
		rep := s.classRep[grp.classes[0]]
		if len(grp.classes) != 1 || grp.probe != nil {
			t.Fatalf("group %d: %d classes, probe %v; want one class and no probe", g, len(grp.classes), grp.probe != nil)
		}
		if rep.ParseOptions() == (parser.Options{Strict: rep.Testbed.Strict}) {
			t.Fatalf("group %d: %s parses with the base options", g, rep.Testbed.ID())
		}
	}
	// Each sample must reach the class's own parse, and some must be
	// accepted there: otherwise the lenient path went untested.
	accepted := 0
	for _, src := range lenientSamples {
		for _, tb := range cfg.Testbeds {
			if _, err := parser.ParseWith(src, parser.Options{Strict: tb.Strict}); !parser.LenientMayAccept(err) {
				t.Fatalf("the base parser does not reject %q at a lenient site (%v)", src, err)
			}
		}
		for _, e := range s.Execute(src).Entries() {
			if e.Result.Outcome != engines.OutcomeParseError {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no lenient sample was accepted: the classes never ran on their own parse")
	}
}
