package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"comfort/internal/campaign"
	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
)

// Workload names, as passed to --workload.
const (
	wCampaign = "comfort-campaign"
	wInterp   = "interp-loops"
	wTriage   = "witness-triage"
	wJobs     = "comfortd-jobs"
)

var workloadNames = []string{wCampaign, wInterp, wTriage, wJobs}

// Per-rep sizes. One rep is one campaign (or, for comfortd-jobs, one batch
// of jobs); a run repeats reps of identical input until --seconds is spent.
const (
	campaignCases   = 1000 // comfort-campaign cases per rep
	interpBatches   = 8    // interp-loops cycles per rep (loops + one witness each)
	triageCkptEvery = 16   // witness-triage checkpoint cadence, in cases
	interpFuel      = 2_000_000
	jobsPerRep      = 4   // comfortd-jobs jobs per rep, split over the clients
	jobClients      = 2   // comfortd-jobs closed-loop HTTP clients
	jobCases        = 320 // cases per comfortd job
	progressEvery   = 64  // progress cadence, the comfortd default
)

// workers is the benchmark's parallelism: worker, generator-shard, pool
// slot and client counts never exceed the host's CPU count.
func workers() int { return runtime.NumCPU() }

// loopProgram is one evaluator-bound program of the interp-loops cycle; %d
// is the seeded loop bound.
type loopProgram struct {
	src  string
	base int
}

// interpLoops are arithmetic, call, dense-array, string and
// poly/megamorphic property traffic. Work happens inside functions, the
// slot-resolved and compiled evaluator's target.
var interpLoops = []loopProgram{
	{`function w(n){ var a = 0, b = 1; for (var i = 0; i < n; i++) { var t = a + b; a = b; b = t % 99991; } return a; } print(w(%d));`, 3000},
	{`function leaf(x){ return x + 1; } function w(n){ var acc = 0; for (var i = 0; i < n; i++) { acc += leaf(i) % 17; } return acc; } print(w(%d));`, 1500},
	{`function w(n){ var a = []; for (var i = 0; i < n; i++) { a[i] = i; } var s = 0; for (var j = 0; j < n; j++) { s += a[j]; } return s; } print(w(%d));`, 1200},
	{`function w(n){ var s = ""; for (var i = 0; i < n; i++) { s = s + "ab"; } var acc = 0; for (var j = 0; j < s.length; j = j + 7) { acc = acc + s.charCodeAt(j); } return acc + s.length; } print(w(%d));`, 600},
	{`function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.sum = function() { return this.x + this.y; };
function tagged(i) { if (i % 2 === 0) { return {kind: 1, x: i, y: i + 1}; } return {kind: 2, x: i, y: i - 1, z: i}; }
function mega(i) {
  switch (i % 6) {
  case 0: return {m: i, a0: 0};
  case 1: return {m: i, a1: 0};
  case 2: return {m: i, a2: 0};
  case 3: return {m: i, a3: 0};
  case 4: return {m: i, a4: 0};
  default: return {m: i, a5: 0};
  }
}
function w(n) {
  var p = new Point(0, 0), acc = 0;
  for (var i = 0; i < n; i++) {
    p.x = p.x + 1; p.y = p.y + 2;
    var o = tagged(i);
    acc = acc + o.kind + o.x - o.y + p.sum() + mega(i).m % 13;
    if (acc > 1000000000) { acc = acc % 1000000; }
  }
  return acc;
}
print(w(%d));`, 800},
}

// loopFuzzer emits the interp-loops cycle: each batch is every loop
// program (bounds drawn once from the workload seed, within ±2% of the
// base) followed by one catalog witness, so triage stays live and the run
// has findings to check while evaluation dominates. Batches are identical
// up to the witness, taken from a fixed catalog prefix in order.
type loopFuzzer struct {
	loops     []string
	witnesses []string
	next      int
}

func newLoopFuzzer(seed int64) *loopFuzzer {
	rng := rand.New(rand.NewSource(seed))
	f := &loopFuzzer{}
	for _, p := range interpLoops {
		n := p.base*49/50 + rng.Intn(p.base/25+1)
		f.loops = append(f.loops, fmt.Sprintf(p.src, n))
	}
	for _, d := range engines.Catalog() {
		if len(f.witnesses) == interpBatches {
			break
		}
		if !d.WitnessStrict {
			f.witnesses = append(f.witnesses, d.Witness)
		}
	}
	return f
}

func (f *loopFuzzer) Name() string { return wInterp }

func (f *loopFuzzer) Next(_ *rand.Rand) []string {
	out := append([]string(nil), f.loops...)
	out = append(out, f.witnesses[f.next%len(f.witnesses)])
	f.next++
	return out
}

// triageFuzzer emits every catalog witness once, in catalog order, each
// followed by a seeded corpus program as filler for the reducer to strip.
type triageFuzzer struct {
	cases []string
	next  int
}

func newTriageFuzzer(seed int64) *triageFuzzer {
	rng := rand.New(rand.NewSource(seed))
	progs := corpus.Programs()
	f := &triageFuzzer{}
	for _, d := range engines.Catalog() {
		filler := progs[rng.Intn(len(progs))]
		f.cases = append(f.cases, d.Witness+"\n"+filler)
	}
	return f
}

func (f *triageFuzzer) Name() string { return wTriage }

func (f *triageFuzzer) Next(_ *rand.Rand) []string {
	if f.next >= len(f.cases) {
		return nil
	}
	f.next++
	return []string{f.cases[f.next-1]}
}

// campaignConfig builds one rep's campaign for the three in-process
// workloads. Each call returns a fresh fuzzer, so every rep of a run sees
// the same case stream. dir receives witness-triage's checkpoints.
func campaignConfig(workload string, seed int64, dir string) campaign.Config {
	cfg := campaign.Config{
		Testbeds:      engines.Testbeds(),
		Seed:          seed,
		Workers:       workers(),
		GenShards:     workers(),
		ProgressEvery: progressEvery,
	}
	switch workload {
	case wCampaign:
		cfg.Fuzzer = fuzzers.NewComfort()
		cfg.Cases = campaignCases
	case wInterp:
		f := newLoopFuzzer(seed)
		cfg.Fuzzer = f
		cfg.Cases = interpBatches * (len(f.loops) + 1)
		cfg.Fuel = interpFuel
	case wTriage:
		cfg.Fuzzer = newTriageFuzzer(seed)
		cfg.Cases = len(engines.Catalog())
		cfg.ReduceWitnesses = true
		cfg.Checkpoint = dir + "/triage.ckpt"
		cfg.CheckpointEvery = triageCkptEvery
	default:
		panic("campaignConfig: " + workload)
	}
	return cfg
}

// jobSeed derives the seed of job i of a comfortd-jobs run.
func jobSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func workloadList() string { return strings.Join(workloadNames, ", ") }
