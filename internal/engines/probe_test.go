package engines

import (
	"reflect"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

var probeOpts = RunOptions{Fuel: 200000, Seed: 42}

// TestProbeMarksWitnessDefect pins the trigger half of the hook contract:
// probing a defect's witness in its witness mode, under the defect's own
// config and parser options, marks the defect's hook fired. A trigger
// that missed its own witness would let the scheduler hand a firing
// class the probe's healthy result.
func TestProbeMarksWitnessDefect(t *testing.T) {
	for _, d := range Catalog() {
		r := NewDefectRunner(d, d.WitnessStrict)
		if r.baseCfg.Hook == nil {
			continue // no hook, or a strict-only hook with a normal-mode witness
		}
		if msg := r.PreParseError(d.Witness); msg != "" {
			t.Errorf("%s: witness rejected before its hook can run: %s", d.ID, msg)
			continue
		}
		pr := newProbe(r.baseCfg, [][]*Defect{{d}}, []bool{false})
		prog, err := r.Parse(d.Witness)
		if _, fired := pr.ExecParsed(prog, err, probeOpts); pr.Quiet(0, fired) {
			t.Errorf("%s: probing its witness did not mark the hook fired\nwitness:\n%s", d.ID, d.Witness)
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
		pr := newProbe(cfg, [][]*Defect{hooks}, []bool{false})
		quiet := cfg
		quiet.Hook = func(*interp.HookCtx) *interp.Override { return nil }
		fired := 0
		for i, src := range srcs {
			prog, err := parseProgram(src, parser.Options{Strict: strict})
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

// TestConfigReadIsSound pins the fact the probe's config half rests on
// (Probe.Quiet): a base-config run that reached no Configure-flag site
// (interp.Interp.ConfigRead) runs identically with either flag set. Over
// every witness and every corpus program in both modes, the base run is
// compared with a MutableFuncName run and a SloppyStrictAssign run
// whenever it read no flag; a flag site that did not record its read
// shows up as a diverging result.
func TestConfigReadIsSound(t *testing.T) {
	srcs := append([]string(nil), corpus.Programs()...)
	for _, d := range Catalog() {
		srcs = append(srcs, d.Witness)
	}
	for _, strict := range []bool{false, true} {
		base := interp.Config{Strict: strict}
		mutableName, sloppyAssign := base, base
		mutableName.MutableFuncName = true
		sloppyAssign.SloppyStrictAssign = true
		reads := 0
		for i, src := range srcs {
			prog, err := parseProgram(src, parser.Options{Strict: strict})
			if _, static := staticResult(prog, err); static {
				continue
			}
			var read bool
			opts := probeOpts
			opts.configRead = &read
			want := runRealm(base, prog, opts)
			if read {
				reads++
				continue
			}
			for _, cfg := range []interp.Config{mutableName, sloppyAssign} {
				if got := runRealm(cfg, prog, probeOpts); got != want {
					t.Fatalf("strict=%v program %d read no config flag, yet %+v changes its run\nbase:    %+v\nflagged: %+v\nprogram:\n%s",
						strict, i, cfg, want, got, src)
				}
			}
		}
		if reads == 0 {
			t.Errorf("strict=%v: no program reached a config-flag site; the comparison is vacuous", strict)
		}
	}
}

// TestConfigureTouchesOnlyRecordedFlags guards the config half of the
// probe against drift, in the style of parser's
// TestFingerprintCoversEveryOption. Every catalog Configure may set only
// MutableFuncName and SloppyStrictAssign, the two flags whose sites
// record a read, and every ParserOpts may set only lenient parser flags,
// never Strict. A new interp.Config flag fails the bool-field count until
// its sites record their reads and the count is raised.
func TestConfigureTouchesOnlyRecordedFlags(t *testing.T) {
	typ := reflect.TypeOf(interp.Config{})
	const bools = 4 // Strict, MutableFuncName, SloppyStrictAssign, DisableShapes
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Bool {
			n++
		}
	}
	if n != bools {
		t.Fatalf("interp.Config has %d bool fields, this guard knows %d — a new flag a defect can set needs "+
			"its sites to record interp.Interp.ConfigRead, and this count updated", n, bools)
	}
	recorded := map[string]bool{"MutableFuncName": true, "SloppyStrictAssign": true}
	configured := 0
	for _, d := range Catalog() {
		for _, strict := range []bool{false, true} {
			if d.ParserOpts != nil {
				po := parser.Options{Strict: strict}
				d.ParserOpts(&po)
				if po.Strict != strict {
					t.Errorf("%s: ParserOpts changes Strict", d.ID)
				}
			}
			if d.Configure == nil {
				continue
			}
			configured++
			base := interp.Config{Strict: strict}
			cfg := base
			d.Configure(&cfg)
			bv, cv := reflect.ValueOf(base), reflect.ValueOf(cfg)
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				if !recorded[name] && !reflect.DeepEqual(bv.Field(i).Interface(), cv.Field(i).Interface()) {
					t.Errorf("%s: Configure changes interp.Config.%s, which no site records as read", d.ID, name)
				}
			}
		}
	}
	if configured == 0 {
		t.Fatal("no catalog defect has a Configure delta; the guard is vacuous")
	}
}

// isolatedRun executes src with exactly one defect installed (none for a
// nil d), written out from the defect's fields rather than through
// prepare: the Configure and ParserOpts deltas, the hook only when it runs
// in this mode, the pre-parse gate, then the shared parse pipeline and
// realm. It is the oracle NewDefectRunner and Attribute are checked
// against.
func isolatedRun(d *Defect, strict bool, src string, opts RunOptions) ExecResult {
	cfg := interp.Config{Strict: strict}
	po := parser.Options{Strict: strict}
	if d != nil {
		if d.Configure != nil {
			d.Configure(&cfg)
		}
		if d.ParserOpts != nil {
			d.ParserOpts(&po)
		}
		if d.Hook != nil && (!d.StrictOnly || strict) {
			cfg.Hook = d.Hook
		}
		if d.PreParse != nil {
			if msg := d.PreParse(src); msg != "" {
				return PreParseResult("SyntaxError: " + msg)
			}
		}
	}
	prog, err := parseProgram(src, po)
	if res, static := staticResult(prog, err); static {
		return res
	}
	return runRealm(cfg, prog, opts)
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
