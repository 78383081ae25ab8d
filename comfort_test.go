package comfort

import (
	"reflect"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/difftest"
)

func TestPublicAPISurface(t *testing.T) {
	if len(Engines()) != 10 {
		t.Errorf("engines: %d", len(Engines()))
	}
	if len(Testbeds()) != 104 {
		t.Errorf("testbeds: %d", len(Testbeds()))
	}
	if len(Catalog()) != 158 {
		t.Errorf("catalog: %d", len(Catalog()))
	}
	if len(Fuzzers()) != 6 {
		t.Errorf("fuzzers: %d", len(Fuzzers()))
	}
	if SpecDatabase().CoverageRate() < 0.7 {
		t.Error("spec coverage too low")
	}
}

func TestRunReferenceAndTestbed(t *testing.T) {
	src := `print("Name: Albert".substr(6, undefined));`
	ref := RunReference(src, false, 100000, 1)
	if strings.TrimSpace(ref.Output) != "Albert" {
		t.Errorf("reference output: %q", ref.Output)
	}
	var rhino Testbed
	for _, e := range Engines() {
		if e.Name == "Rhino" {
			rhino = Testbed{Version: e.Latest()}
		}
	}
	buggy := RunTestbed(rhino, src, 100000, 1)
	if buggy.Key() == ref.Key() {
		t.Error("Rhino latest must exhibit the Figure-2 substr defect")
	}
}

func TestMutateTestDataPublic(t *testing.T) {
	variants := MutateTestData(`print("abcdef".substr(1, 2));`, 8, 1)
	if len(variants) == 0 {
		t.Fatal("no variants")
	}
}

// TestMutateTestDataNonPositiveCap pins that a zero or negative variant
// cap means the default of 12 instead of slicing out of range.
func TestMutateTestDataNonPositiveCap(t *testing.T) {
	const src = `var s = "abc"; print(s.substr(1, 2));`
	def := MutateTestData(src, 12, 1)
	if len(def) == 0 {
		t.Fatal("no variants at the default cap")
	}
	want := strings.Join(def, "\n<EOF>\n")
	for _, max := range []int{0, -1, -4} {
		if got := strings.Join(MutateTestData(src, max, 1), "\n<EOF>\n"); got != want {
			t.Errorf("maxVariants %d: variants differ from the default cap of 12", max)
		}
	}
}

func TestReduceTestCasePublic(t *testing.T) {
	src := "var noise = 1;\nprint(\"KEY\");\nvar more = 2;"
	out := ReduceTestCase(src, func(s string) bool { return strings.Contains(s, "KEY") })
	if strings.Contains(out, "noise") {
		t.Errorf("reduction kept noise: %s", out)
	}
}

func TestDiffTestPublic(t *testing.T) {
	var tbs []Testbed
	for _, e := range Engines() {
		tbs = append(tbs, Testbed{Version: e.Latest()})
	}
	cr := DiffTest(`print(1);`, tbs, 100000, 1)
	if cr.Verdict.IsBuggy() {
		t.Errorf("trivial program flagged buggy: %v", cr.Verdict)
	}
}

// TestDiffTestNoTestbeds pins the public API's empty case: no testbeds
// give no entries and an invalid verdict — never the scheduler's default
// testbed set.
func TestDiffTestNoTestbeds(t *testing.T) {
	if entries := ExecuteCase(`print(1);`, nil, 100000, 1); len(entries) != 0 {
		t.Errorf("ExecuteCase with no testbeds returned %d entries", len(entries))
	}
	cr := DiffTest(`print(1);`, []Testbed{}, 100000, 1)
	if cr.Verdict != difftest.VerdictInvalid || len(cr.Deviations) != 0 {
		t.Errorf("DiffTest with no testbeds = %v with %d deviations, want invalid with none",
			cr.Verdict, len(cr.Deviations))
	}
}

// TestDiffTestMatchesClassifyCase pins the public API's two paths to one
// verdict: DiffTest classifies the scheduler's weighted results, and
// classifying ExecuteCase's per-testbed entries must give the same
// result, deviation order included — over the corpus and every catalog
// witness, on a 10-testbed subset and on all testbeds.
func TestDiffTestMatchesClassifyCase(t *testing.T) {
	srcs := append([]string(nil), corpus.Programs()...)
	for _, d := range Catalog() {
		srcs = append(srcs, d.Witness)
	}
	all := Testbeds()
	var subset []Testbed
	for i := 0; i < len(all); i += len(all) / 10 {
		subset = append(subset, all[i])
	}
	for _, tbs := range [][]Testbed{subset[:10], all} {
		buggy := 0
		for _, src := range srcs {
			got := DiffTest(src, tbs, 100000, 1)
			if want := ClassifyCase(ExecuteCase(src, tbs, 100000, 1)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d testbeds: DiffTest %+v, ClassifyCase %+v\nprogram:\n%s", len(tbs), got, want, src)
			}
			if got.Verdict.IsBuggy() {
				buggy++
			}
		}
		if buggy == 0 {
			t.Errorf("%d testbeds: no buggy verdict to compare deviations on", len(tbs))
		}
	}
}
