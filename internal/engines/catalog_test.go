package engines

import (
	"fmt"
	"testing"

	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// Table 2 of the paper: per-engine submitted / verified / fixed / Test262.
var wantTable2 = map[string][4]int{
	"V8":           {4, 4, 3, 1},
	"ChakraCore":   {7, 7, 5, 1},
	"JSC":          {12, 11, 11, 3},
	"SpiderMonkey": {3, 3, 3, 0},
	"Rhino":        {44, 29, 29, 4},
	"Nashorn":      {18, 12, 2, 1},
	"Hermes":       {16, 16, 15, 4},
	"JerryScript":  {35, 31, 31, 3},
	"QuickJS":      {17, 14, 14, 4},
	"Graaljs":      {2, 2, 2, 0},
}

func TestCatalogTable2Marginals(t *testing.T) {
	got := map[string][4]int{}
	for _, d := range Catalog() {
		row := got[d.Engine]
		row[0]++
		if d.Verified {
			row[1]++
		}
		if d.DevFixed {
			row[2]++
		}
		if d.Test262 {
			row[3]++
		}
		got[d.Engine] = row
	}
	for engine, want := range wantTable2 {
		if got[engine] != want {
			t.Errorf("Table 2 %s: got %v want %v", engine, got[engine], want)
		}
	}
	var totS, totV, totF, totT int
	for _, row := range got {
		totS += row[0]
		totV += row[1]
		totF += row[2]
		totT += row[3]
	}
	if totS != 158 || totV != 129 || totF != 115 || totT != 21 {
		t.Errorf("Table 2 totals: got %d/%d/%d/%d want 158/129/115/21", totS, totV, totF, totT)
	}
}

// Table 3 of the paper: per engine-version submitted / verified / fixed / new.
var wantTable3 = map[string][4]int{
	"V8/V8.5":             {4, 4, 3, 4},
	"ChakraCore/v1.11.16": {3, 3, 1, 3},
	"ChakraCore/v1.11.13": {1, 1, 1, 0},
	"ChakraCore/v1.11.12": {1, 1, 1, 1},
	"ChakraCore/v1.11.8":  {2, 2, 2, 2},
	"JSC/261782":          {1, 1, 1, 1},
	"JSC/251631":          {2, 1, 1, 1},
	"JSC/246135":          {8, 8, 8, 6},
	"JSC/244445":          {1, 1, 1, 0},
	"SpiderMonkey/v52.9":  {1, 1, 1, 0},
	"SpiderMonkey/v38.3":  {1, 1, 1, 0},
	"SpiderMonkey/v1.7":   {1, 1, 1, 0},
	"Rhino/v1.7.12":       {25, 19, 19, 19},
	"Rhino/v1.7.11":       {17, 8, 8, 4},
	"Rhino/v1.7.10":       {2, 2, 2, 2},
	"Nashorn/v13.0.1":     {4, 4, 0, 4},
	"Nashorn/v12.0.1":     {14, 8, 2, 7},
	"Hermes/v0.6.0":       {2, 2, 2, 2},
	"Hermes/v0.4.0":       {1, 1, 0, 1},
	"Hermes/v0.3.0":       {6, 6, 6, 5},
	"Hermes/v0.1.1":       {7, 7, 7, 4},
	"JerryScript/v2.3.0":  {2, 2, 2, 2},
	"JerryScript/v2.2.0":  {18, 16, 16, 15},
	"JerryScript/v2.1.0":  {6, 5, 5, 4},
	"JerryScript/v2.0":    {8, 7, 7, 7},
	"JerryScript/v1.0":    {1, 1, 1, 1},
	"QuickJS/2020-04-12":  {1, 1, 1, 1},
	"QuickJS/2020-01-05":  {2, 2, 2, 2},
	"QuickJS/2019-10-27":  {4, 3, 3, 3},
	"QuickJS/2019-09-18":  {3, 1, 1, 1},
	"QuickJS/2019-09-01":  {4, 4, 4, 4},
	"QuickJS/2019-07-09":  {3, 3, 3, 1},
	"Graaljs/v20.1.0":     {2, 2, 2, 2},
}

func TestCatalogTable3Marginals(t *testing.T) {
	got := map[string][4]int{}
	for _, d := range Catalog() {
		key := d.Engine + "/" + d.AttrVersion
		row := got[key]
		row[0]++
		if d.Verified {
			row[1]++
		}
		if d.DevFixed {
			row[2]++
		}
		if d.New {
			row[3]++
		}
		got[key] = row
	}
	if len(got) != len(wantTable3) {
		t.Errorf("Table 3 rows: got %d want %d", len(got), len(wantTable3))
	}
	for key, want := range wantTable3 {
		if got[key] != want {
			t.Errorf("Table 3 %s: got %v want %v", key, got[key], want)
		}
	}
	newTotal := 0
	for _, d := range Catalog() {
		if d.New {
			newTotal++
		}
	}
	if newTotal != 109 {
		t.Errorf("Table 3 new-bug total: got %d want 109", newTotal)
	}
}

// Table 4: submitted / confirmed / fixed / Test262 per discovery channel.
func TestCatalogTable4Marginals(t *testing.T) {
	var gen, spec [4]int
	for _, d := range Catalog() {
		row := &gen
		if d.Channel == ChannelSpecData {
			row = &spec
		}
		row[0]++
		if d.Verified {
			row[1]++
		}
		if d.DevFixed {
			row[2]++
		}
		if d.Test262 {
			row[3]++
		}
	}
	if gen != [4]int{97, 78, 67, 5} {
		t.Errorf("Table 4 generation channel: got %v want [97 78 67 5]", gen)
	}
	if spec != [4]int{61, 51, 48, 16} {
		t.Errorf("Table 4 spec-guided channel: got %v want [61 51 48 16]", spec)
	}
}

// Table 5: top-10 buggy API object types (submitted / confirmed / fixed).
var wantTable5 = map[string][3]int{
	"Object":     {23, 21, 18},
	"String":     {22, 20, 19},
	"Array":      {17, 12, 9},
	"TypedArray": {8, 5, 5},
	"Number":     {5, 4, 4},
	"eval":       {4, 4, 4},
	"DataView":   {4, 2, 2},
	"JSON":       {3, 3, 2},
	"RegExp":     {2, 2, 1},
	"Date":       {2, 1, 1},
	"other":      {68, 55, 50},
}

func TestCatalogTable5Marginals(t *testing.T) {
	got := map[string][3]int{}
	for _, d := range Catalog() {
		row := got[d.APIType]
		row[0]++
		if d.Verified {
			row[1]++
		}
		if d.DevFixed {
			row[2]++
		}
		got[d.APIType] = row
	}
	for at, want := range wantTable5 {
		if got[at] != want {
			t.Errorf("Table 5 %s: got %v want %v", at, got[at], want)
		}
	}
}

// Figure 7: confirmed and fixed bugs per compiler component.
func TestCatalogFigure7Marginals(t *testing.T) {
	wantConfirmed := map[Component]int{
		CodeGen: 49, Implementation: 45, ParserComp: 15,
		RegexEngine: 9, StrictModeComp: 8, Optimizer: 3,
	}
	wantFixed := map[Component]int{
		CodeGen: 42, Implementation: 41, ParserComp: 13,
		RegexEngine: 8, StrictModeComp: 8, Optimizer: 3,
	}
	gotConfirmed := map[Component]int{}
	gotFixed := map[Component]int{}
	for _, d := range Catalog() {
		if d.Verified {
			gotConfirmed[d.Component]++
		}
		if d.DevFixed {
			gotFixed[d.Component]++
		}
	}
	for _, c := range Components() {
		if gotConfirmed[c] != wantConfirmed[c] {
			t.Errorf("Figure 7 confirmed %s: got %d want %d", c, gotConfirmed[c], wantConfirmed[c])
		}
		if gotFixed[c] != wantFixed[c] {
			t.Errorf("Figure 7 fixed %s: got %d want %d", c, gotFixed[c], wantFixed[c])
		}
	}
}

func TestCatalogBasicHygiene(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Catalog() {
		if seen[d.ID] {
			t.Errorf("duplicate defect ID %s", d.ID)
		}
		seen[d.ID] = true
		if d.Witness == "" {
			t.Errorf("%s: missing witness", d.ID)
		}
		if d.Hook == nil && d.ParserOpts == nil && d.PreParse == nil {
			t.Errorf("%s: defect has no behavioural realisation", d.ID)
		}
		if _, ok := FindVersion(d.Engine, d.AttrVersion); !ok {
			t.Errorf("%s: unknown attributed version %s/%s", d.ID, d.Engine, d.AttrVersion)
		}
		if d.FixedIn != "" {
			if _, ok := FindVersion(d.Engine, d.FixedIn); !ok {
				t.Errorf("%s: unknown fixed-in version %s/%s", d.ID, d.Engine, d.FixedIn)
			}
		}
		if d.DevFixed && !d.Verified {
			t.Errorf("%s: fixed but not verified", d.ID)
		}
	}
}

// runWitness executes src on a runtime with exactly one defect installed
// (when active) or none (reference).
func runWitness(t *testing.T, d *Defect, active bool, strict bool) ExecResult {
	t.Helper()
	cfg := interp.Config{Seed: 42, Strict: strict, Fuel: 500000}
	parseOpts := parser.Options{Strict: strict}
	if active {
		if d.ParserOpts != nil {
			d.ParserOpts(&parseOpts)
		}
		if d.Hook != nil && (!d.StrictOnly || strict) {
			cfg.Hook = keyedHook(d.Hook)
		}
		if d.PreParse != nil {
			if msg := d.PreParse(d.Witness); msg != "" {
				return ExecResult{Outcome: OutcomeParseError, Error: msg, ErrName: "SyntaxError"}
			}
		}
	}
	in := builtins.NewRuntime(cfg)
	prog, err := parser.ParseWith(d.Witness, parseOpts)
	if err != nil {
		return ExecResult{Outcome: OutcomeParseError, Error: err.Error(), ErrName: "SyntaxError"}
	}
	runErr := in.Run(prog)
	res := ExecResult{Output: in.Out.String(), FuelUsed: in.FuelUsed()}
	switch e := runErr.(type) {
	case nil:
		res.Outcome = OutcomePass
	case *interp.Throw:
		res.Outcome = OutcomeException
		res.ErrName = interp.ErrorName(e.Val)
	case *interp.Abort:
		if e.Kind == interp.AbortCrash {
			res.Outcome = OutcomeCrash
			res.ErrName = "crash"
		} else {
			res.Outcome = OutcomeTimeout
			res.ErrName = "timeout"
		}
	}
	return res
}

// TestEveryDefectWitnessDiverges proves that each seeded defect is a real,
// observable conformance divergence: its witness behaves differently with
// the defect installed than on the defect-free reference runtime.
func TestEveryDefectWitnessDiverges(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			buggy := runWitness(t, d, true, d.WitnessStrict)
			ref := runWitness(t, d, false, d.WitnessStrict)
			if buggy.Key() == ref.Key() {
				t.Errorf("witness does not diverge:\n  buggy: %s\n  ref:   %s\n  witness:\n%s",
					buggy.Key(), ref.Key(), d.Witness)
			}
		})
	}
}

// TestWitnessOnRealTestbeds runs every witness on the earliest buggy
// testbed (full defect profile) and expects divergence from the reference,
// and — for defects with a FixedIn version whose own hook is gone — ensures
// the defect's single-hook behaviour disappears after the fix.
func TestWitnessOnRealTestbeds(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			v, ok := FindVersion(d.Engine, d.AttrVersion)
			if !ok {
				t.Fatalf("version not found")
			}
			if !d.ActiveIn(v) {
				t.Fatalf("defect not active in its attributed version")
			}
			if d.FixedIn != "" {
				fixed, ok := FindVersion(d.Engine, d.FixedIn)
				if !ok {
					t.Fatalf("fixed version not found")
				}
				if d.ActiveIn(fixed) {
					t.Errorf("defect still active in fixed version %s", d.FixedIn)
				}
			}
			tb := Testbed{Version: v, Strict: d.WitnessStrict}
			res := tb.Run(d.Witness, RunOptions{Fuel: 500000, Seed: 42})
			ref := Reference(d.Witness, d.WitnessStrict, RunOptions{Fuel: 500000, Seed: 42})
			if res.Key() == ref.Key() {
				t.Errorf("witness agrees with reference on buggy testbed %s:\n  %s", tb.ID(), res.Key())
			}
		})
	}
}

func TestVersionInventory(t *testing.T) {
	count := 0
	for _, e := range All() {
		count += len(e.Versions)
		for i, v := range e.Versions {
			if v.rank != i {
				t.Errorf("%s: bad rank", v.ID())
			}
		}
	}
	// 51 configurations in the paper's Table 1 plus the JerryScript v1.0
	// build referenced by Table 3.
	if count != 52 {
		t.Errorf("version inventory: got %d want 52", count)
	}
	if len(Testbeds()) != count*2 {
		t.Errorf("testbeds: got %d want %d", len(Testbeds()), count*2)
	}
}

func TestActiveDefectDistribution(t *testing.T) {
	// Every engine must have at least one active defect in some tested
	// version (the paper found bugs in all ten engines). SpiderMonkey's
	// bugs all live in previous releases — its latest build is clean,
	// matching the paper's observation.
	for _, e := range All() {
		any := false
		for _, v := range e.Versions {
			if len(ActiveDefects(v)) > 0 {
				any = true
				break
			}
		}
		if !any {
			t.Errorf("%s has no active defects in any version", e.Name)
		}
	}
	if n := len(ActiveDefects(mustVersion(t, "SpiderMonkey", "v78.0"))); n != 0 {
		t.Errorf("SpiderMonkey latest should be clean, has %d defects", n)
	}
	// The reference engine must have none.
	ref := Version{Engine: "Reference", Name: "spec"}
	if n := len(ActiveDefects(ref)); n != 0 {
		t.Errorf("reference engine has %d active defects", n)
	}
}

// TestHermesGrowMarkIsNotAProperty: he-001, a performance defect, keeps
// its low-water mark off the array's property table, so a script that
// lists the array's properties prints what the reference prints, while
// the reverse fill still costs the defect's extra fuel.
func TestHermesGrowMarkIsNotAProperty(t *testing.T) {
	src := `var a = new Array(2000);
for (var i = 1999; i >= 1990; i--) a[i] = i;
print(Object.getOwnPropertyNames(a).indexOf("__hermes_min_written__"));`
	opts := RunOptions{Fuel: 1 << 20}
	got := Testbed{Version: mustVersion(t, "Hermes", "v0.1.1")}.Prepare().Run(src, opts)
	ref := Reference(src, false, opts)
	if got.Output != "-1\n" || got.Key() != ref.Key() {
		t.Errorf("Hermes v0.1.1: %q, reference %q; want both to print -1", got.Key(), ref.Key())
	}
	if got.FuelUsed <= ref.FuelUsed {
		t.Errorf("Hermes v0.1.1 used %d fuel, reference %d: the reverse fill no longer costs extra", got.FuelUsed, ref.FuelUsed)
	}
}

func mustVersion(t *testing.T, engine, version string) Version {
	t.Helper()
	v, ok := FindVersion(engine, version)
	if !ok {
		t.Fatalf("version %s/%s not found", engine, version)
	}
	return v
}

func ExampleCatalog() {
	fmt.Println(len(Catalog()))
	// Output: 158
}
