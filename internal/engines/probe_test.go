package engines

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

var probeOpts = RunOptions{Fuel: 200000, Seed: 42}

// TestProbeMarksWitnessDefect pins the trigger half of the hook contract:
// probing a defect's witness in its witness mode, under the defect's own
// parser options, marks the defect's hook fired. A trigger
// that missed its own witness would let the scheduler hand a firing
// class the probe's healthy result. The identifier-write defects are
// named, so none of them can drop out of the loop unseen.
func TestProbeMarksWitnessDefect(t *testing.T) {
	probed := map[string]bool{}
	for _, d := range Catalog() {
		r := NewDefectRunner(d, d.WitnessStrict)
		if r.baseCfg.Hook == nil {
			continue // a parser-only defect, or a strict-only hook with a normal-mode witness
		}
		if msg := r.PreParseError(d.Witness); msg != "" {
			t.Errorf("%s: witness rejected before its hook can run: %s", d.ID, msg)
			continue
		}
		probed[d.ID] = true
		pr := newProbe(r.baseCfg, [][]*Defect{{d}})
		prog, err := r.Parse(d.Witness)
		if _, fired := pr.ExecParsed(prog, err, probeOpts); pr.Quiet(0, fired) {
			t.Errorf("%s: probing its witness did not mark the hook fired\nwitness:\n%s", d.ID, d.Witness)
		}
	}
	for _, id := range []string{"he-002", "rh-005", "rh-038"} {
		if !probed[id] {
			t.Errorf("%s: witness not probed", id)
		}
	}
}

// TestProbeIsPure pins the purity half of the hook contract: a probe over
// every catalog hook leaves each witness's and each corpus program's
// result identical to a run whose hook always returns nil. A trigger
// predicate with a side effect (fuel, output, object state) shows up
// here as a diverging result.
func TestProbeIsPure(t *testing.T) {
	srcs := append([]string(nil), corpus.Programs()...)
	for _, d := range Catalog() {
		srcs = append(srcs, d.Witness)
	}
	for _, strict := range []bool{false, true} {
		cfg := interp.Config{Strict: strict}
		hooks := hookDefects(Catalog(), strict)
		pr := newProbe(cfg, [][]*Defect{hooks})
		quiet := cfg
		quiet.Hook = func(*interp.HookCtx) *interp.Override { return nil }
		fired := 0
		for i, src := range srcs {
			prog, err := parseProgram(src, parser.Options{}).Mode(strict)
			got, f := pr.ExecParsed(prog, err, probeOpts)
			want, static := staticResult(prog, err)
			if !static {
				want = runRealm(quiet, prog, probeOpts)
			}
			if got != want {
				t.Fatalf("strict=%v program %d: the probe changed the run\nprobe: %+v\nquiet: %+v\nprogram:\n%s",
					strict, i, got, want, src)
			}
			if !pr.Quiet(0, f) {
				fired++
			}
		}
		if fired == 0 {
			t.Errorf("strict=%v: no program matched any trigger; the comparison is vacuous", strict)
		}
	}
}

// TestQuietHookAllocatesLikeNoHook pins that a hooked run takes the
// unhooked run's paths: on one realm, reset between runs, a run under a
// hook that always returns nil allocates exactly as often as a run with
// no hook. The programs are the interp-loops workload's and the first
// corpus programs; two hooked-only allocations remain outside them, the
// "new " name of a native constructor call and a regex site's argument
// slice. Mallocs is read with the collector off, so no collection runs
// inside the measured window.
func TestQuietHookAllocatesLikeNoHook(t *testing.T) {
	srcs := append(append([]string(nil), probeLoops...), corpus.Programs()[:5]...)
	opts := RunOptions{Fuel: 2_000_000, Seed: 1}
	cfg := realmConfig(interp.Config{}, opts)
	in := builtins.NewRuntime(cfg)
	quiet := func(*interp.HookCtx) *interp.Override { return nil }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	mallocs := func(prog *ast.Program, hook interp.Hook) uint64 {
		c := cfg
		c.Hook = hook
		builtins.ResetRuntime(in, c)
		runtime.ReadMemStats(&before)
		if res := execRealm(in, prog, opts); res.Outcome != OutcomePass {
			t.Fatalf("run failed: %+v", res)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i, src := range srcs {
		prog, err := parseProgram(src, parser.Options{}).Mode(false)
		if err != nil {
			t.Fatal(err)
		}
		mallocs(prog, nil) // grows the realm's slot arrays and sections once
		if bare, hooked := mallocs(prog, nil), mallocs(prog, quiet); hooked != bare {
			t.Errorf("program %d: %d allocations under a quiet hook, %d with no hook\nprogram:\n%s", i, hooked, bare, src)
		}
	}
}

// TestParserOptsKeepStrict: a defect's ParserOpts may set only lenient
// parser flags, never Strict, so every member of a probe parses in the
// probe's mode.
func TestParserOptsKeepStrict(t *testing.T) {
	for _, d := range Catalog() {
		if d.ParserOpts == nil {
			continue
		}
		for _, strict := range []bool{false, true} {
			po := parser.Options{Strict: strict}
			d.ParserOpts(&po)
			if po.Strict != strict {
				t.Errorf("%s: ParserOpts changes Strict", d.ID)
			}
		}
	}
}

// isolatedRun executes src with exactly one defect installed (none for a
// nil d), written out from the defect's fields rather than through
// prepare: the ParserOpts delta, the hook at its key (keyedHook) only when
// it runs in this mode, the pre-parse gate, then the shared parse pipeline and
// realm. It is the oracle NewDefectRunner and Attribute are checked
// against.
func isolatedRun(d *Defect, strict bool, src string, opts RunOptions) ExecResult {
	cfg := interp.Config{Strict: strict}
	po := parser.Options{Strict: strict}
	if d != nil {
		if d.ParserOpts != nil {
			d.ParserOpts(&po)
		}
		if d.Hook != nil && (!d.StrictOnly || strict) {
			cfg.Hook = keyedHook(d.Hook)
		}
		if d.PreParse != nil {
			if msg := d.PreParse(src); msg != "" {
				return PreParseResult("SyntaxError: " + msg)
			}
		}
	}
	prog, err := parseProgram(src, po).Mode(strict)
	if res, static := staticResult(prog, err); static {
		return res
	}
	return runRealm(cfg, prog, opts)
}

// keyedHook is h on its own, written out without a dispatch table: Fn
// is asked only at sites of h's key.
func keyedHook(h *Hook) interp.Hook {
	return func(ctx *interp.HookCtx) *interp.Override {
		if ctx.Site != h.Site {
			return nil
		}
		if (h.Site == interp.HookBuiltin || h.Site == interp.HookRegexExec) && ctx.Name != h.Name {
			return nil
		}
		return h.Fn(ctx)
	}
}

// TestDefectRunnerMatchesIsolatedRun pins the single-defect runner, a
// PreparedTestbed over one defect, to the written-out isolatedRun: for the
// reference and every catalog defect in both modes, over the defect's
// witness and a fixed corpus slice.
func TestDefectRunnerMatchesIsolatedRun(t *testing.T) {
	corpusSlice := corpus.Programs()[:20]
	defects := append([]*Defect{nil}, Catalog()...)
	for _, d := range defects {
		srcs := corpusSlice
		name := "reference"
		if d != nil {
			srcs = append([]string{d.Witness}, corpusSlice...)
			name = d.ID
		}
		for _, strict := range []bool{false, true} {
			r := NewDefectRunner(d, strict)
			for i, src := range srcs {
				got, want := r.Run(src, probeOpts), isolatedRun(d, strict, src, probeOpts)
				if got != want {
					t.Errorf("%s strict=%v program %d: runner %+v, isolated %+v", name, strict, i, got, want)
				}
			}
		}
	}
}

// attributeFull is the reference attribution: every active defect re-run
// in isolation against the defect-free reference, with no probe.
func attributeFull(src string, tb Testbed, opts RunOptions) []*Defect {
	ref := isolatedRun(nil, tb.Strict, src, opts)
	var out []*Defect
	for _, d := range ActiveDefects(tb.Version) {
		if isolatedRun(d, tb.Strict, src, opts).Key() != ref.Key() {
			out = append(out, d)
		}
	}
	return out
}

// TestAttributeMatchesFullIsolation is the attribution oracle: for every
// witness and every testbed in its mode on which it deviates from the
// reference, Attribute (which skips hook-only defects the reference probe
// never triggered) returns exactly the defects the full isolation loop
// does, in the same order.
func TestAttributeMatchesFullIsolation(t *testing.T) {
	deviants := 0
	for _, d := range Catalog() {
		ref := Reference(d.Witness, d.WitnessStrict, probeOpts)
		for _, tb := range Testbeds() {
			if tb.Strict != d.WitnessStrict || tb.Run(d.Witness, probeOpts).Key() == ref.Key() {
				continue
			}
			deviants++
			got, want := Attribute(d.Witness, tb, probeOpts), attributeFull(d.Witness, tb, probeOpts)
			if defectIDs(got) != defectIDs(want) {
				t.Errorf("%s on %s: Attribute = [%s], full isolation = [%s]",
					d.ID, tb.ID(), defectIDs(got), defectIDs(want))
			}
		}
	}
	if deviants == 0 {
		t.Fatal("no witness deviated on any testbed; the oracle is vacuous")
	}
}

func defectIDs(ds []*Defect) string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return strings.Join(ids, " ")
}
