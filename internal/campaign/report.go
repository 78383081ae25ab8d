package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/js/cov"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
)

// engineOrder fixes the row order of the paper's tables.
var engineOrder = []string{
	"V8", "ChakraCore", "JSC", "SpiderMonkey", "Rhino", "Nashorn",
	"Hermes", "JerryScript", "QuickJS", "Graaljs",
}

// tw is a minimal text-table writer.
type tw struct {
	b      strings.Builder
	widths []int
	rows   [][]string
}

func (t *tw) row(cells ...string) {
	for i, c := range cells {
		if i >= len(t.widths) {
			t.widths = append(t.widths, 0)
		}
		if len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *tw) render(title string) string {
	t.b.WriteString(title + "\n")
	for r, cells := range t.rows {
		for i, c := range cells {
			fmt.Fprintf(&t.b, "%-*s", t.widths[i]+2, c)
		}
		t.b.WriteString("\n")
		if r == 0 {
			total := 0
			for _, w := range t.widths {
				total += w + 2
			}
			t.b.WriteString(strings.Repeat("-", total) + "\n")
		}
	}
	return t.b.String()
}

// Table1 renders the engine-version inventory of the paper's Table 1.
func Table1() string {
	t := &tw{}
	t.row("JS Engine", "Version", "Build No.", "Release Date", "Supported ES Spec.")
	for _, e := range engines.All() {
		for i := len(e.Versions) - 1; i >= 0; i-- {
			v := e.Versions[i]
			t.row(e.Name, v.Name, v.Build, v.Release, v.ES)
		}
	}
	return t.render("Table 1: JS engine versions under test")
}

// triage tallies submitted/verified/fixed/test262 for a defect set.
type triage struct{ s, v, f, t, n int }

func tally(defects []*Defect) map[string]*triage {
	out := map[string]*triage{}
	bump := func(key string, d *Defect) {
		tr := out[key]
		if tr == nil {
			tr = &triage{}
			out[key] = tr
		}
		tr.s++
		if d.Verified {
			tr.v++
		}
		if d.DevFixed {
			tr.f++
		}
		if d.Test262 {
			tr.t++
		}
		if d.New {
			tr.n++
		}
	}
	for _, d := range defects {
		bump(d.Engine, d)
	}
	return out
}

// Table2 renders per-engine bug statistics: ground truth (the paper's
// numbers, exactly) next to what the campaign discovered.
func Table2(found []*Defect) string {
	paper := tally(engines.Catalog())
	measured := tally(found)
	t := &tw{}
	t.row("JS Engine", "#Submitted", "#Verified", "#Fixed", "#Acc. by Test262",
		"| found", "f.verified", "f.fixed", "f.test262")
	var tot, ftot triage
	for _, e := range engineOrder {
		p := paper[e]
		if p == nil {
			// An engine with no catalog defects still gets a row (Table3-5
			// and Figure7 already tolerate absent keys; keep Table2
			// consistent instead of dereferencing a nil map entry).
			p = &triage{}
		}
		m := measured[e]
		if m == nil {
			m = &triage{}
		}
		t.row(e, fmt.Sprint(p.s), fmt.Sprint(p.v), fmt.Sprint(p.f), fmt.Sprint(p.t),
			fmt.Sprintf("| %d", m.s), fmt.Sprint(m.v), fmt.Sprint(m.f), fmt.Sprint(m.t))
		tot.s += p.s
		tot.v += p.v
		tot.f += p.f
		tot.t += p.t
		ftot.s += m.s
		ftot.v += m.v
		ftot.f += m.f
		ftot.t += m.t
	}
	t.row("Total", fmt.Sprint(tot.s), fmt.Sprint(tot.v), fmt.Sprint(tot.f), fmt.Sprint(tot.t),
		fmt.Sprintf("| %d", ftot.s), fmt.Sprint(ftot.v), fmt.Sprint(ftot.f), fmt.Sprint(ftot.t))
	return t.render("Table 2: bug statistics per engine (paper ground truth | campaign-found)")
}

// Table3 renders per-version bug counts (paper | found).
func Table3(found []*Defect) string {
	foundSet := map[string]bool{}
	for _, d := range found {
		foundSet[d.ID] = true
	}
	type row struct{ s, v, f, n, fs int }
	rows := map[string]*row{}
	var keys []string
	for _, d := range engines.Catalog() {
		key := d.Engine + " " + d.AttrVersion
		r := rows[key]
		if r == nil {
			r = &row{}
			rows[key] = r
			keys = append(keys, key)
		}
		r.s++
		if d.Verified {
			r.v++
		}
		if d.DevFixed {
			r.f++
		}
		if d.New {
			r.n++
		}
		if foundSet[d.ID] {
			r.fs++
		}
	}
	sort.Strings(keys)
	t := &tw{}
	t.row("Engine Version", "#Submitted", "#Verified", "#Fixed", "#New", "| found")
	for _, k := range keys {
		r := rows[k]
		t.row(k, fmt.Sprint(r.s), fmt.Sprint(r.v), fmt.Sprint(r.f), fmt.Sprint(r.n),
			fmt.Sprintf("| %d", r.fs))
	}
	return t.render("Table 3: bugs per engine version (paper ground truth | campaign-found)")
}

// Table4 renders the discovery-channel breakdown of Table 4.
func Table4(found []*Defect) string {
	type row struct{ s, v, f, t, fs int }
	rows := map[engines.Channel]*row{
		engines.ChannelGen:      {},
		engines.ChannelSpecData: {},
	}
	foundSet := map[string]bool{}
	for _, d := range found {
		foundSet[d.ID] = true
	}
	for _, d := range engines.Catalog() {
		r := rows[d.Channel]
		r.s++
		if d.Verified {
			r.v++
		}
		if d.DevFixed {
			r.f++
		}
		if d.Test262 {
			r.t++
		}
		if foundSet[d.ID] {
			r.fs++
		}
	}
	t := &tw{}
	t.row("Category", "#Submitted", "#Confirmed", "#Fixed", "#Acc. by Test262", "| found")
	for _, ch := range []engines.Channel{engines.ChannelGen, engines.ChannelSpecData} {
		r := rows[ch]
		t.row(ch.String(), fmt.Sprint(r.s), fmt.Sprint(r.v), fmt.Sprint(r.f), fmt.Sprint(r.t),
			fmt.Sprintf("| %d", r.fs))
	}
	return t.render("Table 4: bug statistics per discovery channel (paper | campaign-found)")
}

// Table5 renders the top-10 buggy API object types.
func Table5(found []*Defect) string {
	order := []string{"Object", "String", "Array", "TypedArray", "Number",
		"eval", "DataView", "JSON", "RegExp", "Date"}
	type row struct{ s, v, f, fs int }
	rows := map[string]*row{}
	foundSet := map[string]bool{}
	for _, d := range found {
		foundSet[d.ID] = true
	}
	for _, d := range engines.Catalog() {
		r := rows[d.APIType]
		if r == nil {
			r = &row{}
			rows[d.APIType] = r
		}
		r.s++
		if d.Verified {
			r.v++
		}
		if d.DevFixed {
			r.f++
		}
		if foundSet[d.ID] {
			r.fs++
		}
	}
	t := &tw{}
	t.row("API Type", "#Submitted", "#Confirmed", "#Fixed", "| found")
	for _, at := range order {
		r := rows[at]
		if r == nil {
			r = &row{}
		}
		t.row(at, fmt.Sprint(r.s), fmt.Sprint(r.v), fmt.Sprint(r.f), fmt.Sprintf("| %d", r.fs))
	}
	return t.render("Table 5: top-10 buggy object types (paper | campaign-found)")
}

// Figure7 renders the per-component bug counts.
func Figure7(found []*Defect) string {
	type row struct{ confirmed, fixed, foundC int }
	rows := map[engines.Component]*row{}
	foundSet := map[string]bool{}
	for _, d := range found {
		foundSet[d.ID] = true
	}
	for _, d := range engines.Catalog() {
		r := rows[d.Component]
		if r == nil {
			r = &row{}
			rows[d.Component] = r
		}
		if d.Verified {
			r.confirmed++
		}
		if d.DevFixed {
			r.fixed++
		}
		if foundSet[d.ID] && d.Verified {
			r.foundC++
		}
	}
	t := &tw{}
	t.row("Component", "Confirmed", "Fixed", "| found-confirmed")
	for _, c := range engines.Components() {
		r := rows[c]
		if r == nil {
			r = &row{}
		}
		t.row(c.String(), fmt.Sprint(r.confirmed), fmt.Sprint(r.fixed), fmt.Sprintf("| %d", r.foundC))
	}
	return t.render("Figure 7: bugs per compiler component (paper | campaign-found)")
}

// ReductionSummary renders the witness-reduction statistics of a campaign
// next to the tables: total shrinkage plus min/median/mean reduced sizes.
func ReductionSummary(res *Result) string {
	if res == nil || res.Reduction == nil {
		// Reduction is nil both when Config.ReduceWitnesses was off and
		// when the campaign simply found nothing to reduce.
		return "Reduction: no reduced witnesses (no findings, or Config.ReduceWitnesses disabled)\n"
	}
	s := res.Reduction
	t := &tw{}
	t.row("Findings", "Orig bytes", "Reduced bytes", "Kept", "Min", "Median", "Mean")
	kept := "-"
	if s.OrigBytes > 0 {
		kept = fmt.Sprintf("%.0f%%", 100*float64(s.ReducedBytes)/float64(s.OrigBytes))
	}
	t.row(fmt.Sprint(s.Findings), fmt.Sprint(s.OrigBytes), fmt.Sprint(s.ReducedBytes),
		kept, fmt.Sprint(s.MinBytes), fmt.Sprintf("%.1f", s.MedianBytes),
		fmt.Sprintf("%.1f", s.MeanBytes))
	return t.render("Reduction: witness sizes after Section-3.5 ddmin (bytes)")
}

// FuzzerComparison holds one fuzzer's Figure-8 measurements.
type FuzzerComparison struct {
	Name      string
	Found     int
	Confirmed int
	Fixed     int
}

// Figure8 runs the six-fuzzer comparison with an equal test-case budget per
// fuzzer over all engines' latest builds (the paper's 72-hour experiment,
// scaled) and renders the chart data.
func Figure8(casesPerFuzzer int, seed int64) (string, []FuzzerComparison) {
	return Figure8With(Config{}, casesPerFuzzer, seed)
}

// Figure8With runs the fuzzer comparison with base supplying scheduler
// options (Workers, Fuel, Context, Progress); Fuzzer/Testbeds/Cases/Seed
// are overridden per comparison run.
func Figure8With(base Config, casesPerFuzzer int, seed int64) (string, []FuzzerComparison) {
	var comparisons []FuzzerComparison
	testbeds := figure8Testbeds()
	for _, f := range fuzzers.All() {
		cfg := base
		cfg.Fuzzer = f
		cfg.Testbeds = testbeds
		cfg.Cases = casesPerFuzzer
		cfg.Seed = seed
		res := Run(cfg)
		c := FuzzerComparison{Name: f.Name()}
		for _, finding := range res.Found { //detlint:order — order-independent counting
			c.Found++
			if finding.Defect.Verified {
				c.Confirmed++
			}
			if finding.Defect.DevFixed {
				c.Fixed++
			}
		}
		comparisons = append(comparisons, c)
	}
	t := &tw{}
	t.row("Fuzzer", "Submitted", "Confirmed", "Fixed")
	for _, c := range comparisons {
		t.row(c.Name, fmt.Sprint(c.Found), fmt.Sprint(c.Confirmed), fmt.Sprint(c.Fixed))
	}
	return t.render("Figure 8: bugs found per fuzzer under an equal test-case budget"), comparisons
}

// figure8Testbeds: the bug-richest version of every engine, normal+strict,
// excluding Nashorn (dropped from the paper's comparison experiment).
func figure8Testbeds() []engines.Testbed {
	var out []engines.Testbed
	for _, e := range engines.All() {
		if e.Name == "Nashorn" {
			continue
		}
		best := e.Latest()
		bestN := len(engines.ActiveDefects(best))
		for _, v := range e.Versions {
			if n := len(engines.ActiveDefects(v)); n > bestN {
				best, bestN = v, n
			}
		}
		out = append(out, engines.Testbed{Version: best},
			engines.Testbed{Version: best, Strict: true})
	}
	return out
}

// QualityMetrics holds one fuzzer's Figure-9 measurements.
type QualityMetrics struct {
	Name        string
	PassingRate float64
	StmtCov     float64
	FuncCov     float64
	BranchCov   float64
}

// Figure9 measures syntax passing rate and statement/function/branch
// coverage per fuzzer over n generated programs.
func Figure9(n int, seed int64) (string, []QualityMetrics) {
	var all []QualityMetrics
	for _, f := range fuzzers.All() {
		rng := rand.New(rand.NewSource(seed))
		valid := 0
		var merged cov.Profile
		for i := 0; i < n; i++ {
			src := generateForQuality(f, rng)
			prog, err := parser.Parse(src)
			if err != nil {
				continue
			}
			valid++
			c := interp.NewCoverage()
			_ = engines.Reference(src, false, engines.RunOptions{Fuel: 150000, Seed: seed, Cov: c})
			merged = cov.Merge(merged, cov.Measure(prog, c))
		}
		m := QualityMetrics{
			Name:        f.Name(),
			PassingRate: float64(valid) / float64(n),
			StmtCov:     merged.StmtRate(),
			FuncCov:     merged.FuncRate(),
			BranchCov:   merged.BranchRate(),
		}
		all = append(all, m)
	}
	t := &tw{}
	t.row("Fuzzer", "Passing Rate", "Statement Cov.", "Function Cov.", "Branch Cov.")
	for _, m := range all {
		t.row(m.Name, pct(m.PassingRate), pct(m.StmtCov), pct(m.FuncCov), pct(m.BranchCov))
	}
	return t.render("Figure 9: test-case quality per fuzzer"), all
}

// generateForQuality returns a single raw generated program (the quality
// metrics evaluate generation, not data mutation).
func generateForQuality(f fuzzers.Fuzzer, rng *rand.Rand) string {
	if c, ok := f.(*fuzzers.Comfort); ok {
		return c.GenerateOnly(rng)
	}
	batch := f.Next(rng)
	return batch[0]
}

// pct renders a ratio as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
