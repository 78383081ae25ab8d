package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/difftest"
	"comfort/internal/engines"
	"comfort/internal/fuzzers"
	"comfort/internal/spec"
)

// setupRuns is how many fresh processes time the set-up per run; the
// reported setup_s is their median.
const setupRuns = 5

// setupOnce times the one-time cost before a workload's first case in
// this (fresh) process: COMFORT's LM training, testbed preparation and the
// spec DB, plus, for comfortd-jobs, opening a store and starting a
// supervisor with its HTTP handler.
func setupOnce(workload, workdir string) (float64, error) {
	start := time.Now()
	fuzzers.NewComfort()
	for _, tb := range engines.Testbeds() {
		tb.Prepare()
	}
	spec.Default()
	if workload == wJobs {
		dir, err := os.MkdirTemp(workdir, "setup-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		d, err := startDaemon(dir)
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(start).Seconds()
		d.stop()
		return elapsed, nil
	}
	return time.Since(start).Seconds(), nil
}

// measureSetup runs setupRuns fresh child processes of this binary and
// returns the median of their set-up times.
func measureSetup(workload string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", workload)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		samples = append(samples, s)
	}
	return median(samples), nil
}

// rep is one measured repetition of a workload.
type rep struct {
	wall     time.Duration
	executed int
	mallocs  uint64
	bytes    uint64
	peakHeap uint64
}

// heapSampler tracks the peak live heap (as of the latest GC) while a rep
// runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.peak = max(h.peak, sample[0].Value.Uint64())
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// measured wraps one rep's body with wall time, allocation and heap
// accounting. body returns the delivered executions.
func measured(body func() (int, error)) (rep, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hs := startHeapSampler()
	start := time.Now()
	executed, err := body()
	wall := time.Since(start)
	peak := hs.finish()
	runtime.ReadMemStats(&after)
	return rep{
		wall:     wall,
		executed: executed,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		peakHeap: peak,
	}, err
}

// runCampaignRep runs one measured in-process campaign.
func runCampaignRep(cfg campaign.Config) (*campaign.Result, rep) {
	var res *campaign.Result
	r, _ := measured(func() (int, error) {
		res = campaign.Run(cfg)
		return res.Executed, nil
	})
	return res, r
}

// runMeasured is the untraced run: set-up timing in fresh processes, a
// small warm-up, then timed reps of identical input until the budget is
// spent (two at least). The first timed rep is the reference every later
// rep's accounting must match; its findings' witnesses are checked after
// timing.
func runMeasured(workload string, seed int64, seconds int, workdir string) (report, error) {
	setup, err := measureSetup(workload)
	if err != nil {
		return report{}, err
	}
	if _, err := setupOnce(workload, workdir); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	var t tally
	var reps []rep
	var latencies []float64
	budget := time.Duration(seconds) * time.Second
	if workload == wJobs {
		d, err := startDaemon(dir)
		if err != nil {
			return report{}, err
		}
		defer d.stop()
		warm := jobSpec(seed, -1)
		warm.Cases = probeJobCases
		if _, _, err := d.runJob(warm, false); err != nil {
			return report{}, err
		}
		var ref jobsRep
		for start := time.Now(); time.Since(start) < budget || len(reps) < 2; {
			jr, r, err := runJobsRep(d, seed, &t, false)
			if err != nil {
				return report{}, err
			}
			if len(reps) == 0 {
				ref = jr
			} else {
				t.check(jr.sameAs(ref), "comfortd-jobs rep accounting differs from the first rep")
			}
			reps = append(reps, r)
			for _, j := range jr.jobs {
				latencies = append(latencies, j.latency.Seconds())
			}
		}
	} else {
		warm := campaignConfig(workload, seed, dir)
		warm.Cases = min(warm.Cases, progressEvery)
		campaign.Run(warm)
		var ref *campaign.Result
		var refCfg campaign.Config
		for start := time.Now(); time.Since(start) < budget || len(reps) < 2; {
			cfg := campaignConfig(workload, seed, dir)
			res, r := runCampaignRep(cfg)
			checkCampaign(&t, cfg, res)
			if ref == nil {
				ref, refCfg = res, cfg
			} else {
				t.check(accountingKey(res) == accountingKey(ref), "%s rep accounting differs from the first rep", workload)
			}
			reps = append(reps, r)
			latencies = append(latencies, r.wall.Seconds())
		}
		checkWitnesses(&t, refCfg, ref)
	}

	var rates, allocs, bytes, heaps []float64
	for _, r := range reps {
		rates = append(rates, float64(r.executed)/r.wall.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.executed))
		bytes = append(bytes, float64(r.bytes)/float64(r.executed))
		heaps = append(heaps, float64(r.peakHeap)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d reps, %d job latencies\n",
		workload, seed, len(reps), len(latencies))
	return report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"execs_per_s":       {median(rates), "1/s"},
			"setup_s":           {setup, "s"},
			"allocs_per_exec":   {median(allocs), "count"},
			"bytes_per_exec":    {median(bytes), "B"},
			"peak_heap_mb":      {median(heaps), "MB"},
			"job_latency_p50_s": {median(latencies), "s"},
		},
	}, nil
}

// checkCampaign counts an incomplete (case × testbed) grid as a failure.
func checkCampaign(t *tally, cfg campaign.Config, res *campaign.Result) {
	t.check(res.CasesRun == cfg.Cases && res.Executed == res.CasesRun*len(cfg.Testbeds),
		"grid incomplete: %d cases, %d executed, want %d × %d", res.CasesRun, res.Executed, cfg.Cases, len(cfg.Testbeds))
}

// checkWitnesses counts every found defect whose witness (the reduced one
// when present) does not diverge between the defect alone and the
// reference, in either mode, as a failure.
func checkWitnesses(t *tally, cfg campaign.Config, res *campaign.Result) {
	fuel := cfg.Fuel
	if fuel == 0 {
		fuel = difftest.DefaultFuel
	}
	opts := engines.RunOptions{Fuel: fuel, Seed: cfg.Seed}
	for _, id := range sortedKeys(res.Found) {
		f := res.Found[id]
		w := f.TestCase
		if f.Reduced != "" {
			w = f.Reduced
		}
		diverges := false
		for _, strict := range []bool{false, true} {
			got := engines.NewDefectRunner(f.Defect, strict).Run(w, opts)
			ref := engines.NewDefectRunner(nil, strict).Run(w, opts)
			if got.Key() != ref.Key() {
				diverges = true
				break
			}
		}
		t.check(diverges, "found defect %s: witness shows no divergence", id)
	}
}

// accountingKey renders the deterministic part of a campaign result: the
// found IDs (with reduced witnesses), verdict histogram, executions,
// duplicates filtered and unattributed findings.
func accountingKey(res *campaign.Result) string {
	var b strings.Builder
	for _, id := range sortedKeys(res.Found) {
		fmt.Fprintf(&b, "%s:%d;", id, len(res.Found[id].Reduced))
	}
	verdicts := make([]string, 0, len(res.Verdicts))
	for v, n := range res.Verdicts {
		verdicts = append(verdicts, fmt.Sprintf("%s=%d", v, n))
	}
	sort.Strings(verdicts)
	fmt.Fprintf(&b, "|%s|executed=%d|dups=%d|unattributed=%d",
		strings.Join(verdicts, ","), res.Executed, res.DuplicatesFiltered, res.UnattributedFindings)
	return b.String()
}
