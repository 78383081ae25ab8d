package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/corpus"
	"comfort/internal/engines"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
	"comfort/internal/lm"
	"comfort/internal/server"
)

// reconcileTolerance bounds the replay's unaccounted share of wall time on
// the workloads whose reconciliation is checked.
const reconcileTolerance = 0.10

// probeJobCases is the size of the comfortd jobs the server probe runs on
// workloads that do not drive comfortd themselves.
const probeJobCases = 64

// runTraced is the traced run. It alternates plain and instrumented runs of
// the workload (the instrumented accounting must match the plain one; the
// rate difference is the tracing overhead), replays the workload's case
// stream on one goroutine inside layer spans, probes the layers the stream
// does not reach, and reports the per-layer metrics.
func runTraced(workload string, seed int64, seconds int, workdir string) (report, error) {
	if _, err := setupOnce(workload, workdir); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(workdir, "trace-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	var t tally
	m := map[string]metric{}

	start := time.Now()
	g := lm.Train(corpus.Programs(), corpus.Headers(), lm.Config{Arch: lm.ArchGPT2})
	m["lm.train_s"] = metric{time.Since(start).Seconds(), "s"}

	// Plain against instrumented runs take half the budget, so the whole
	// traced run, replay included, stays near --seconds.
	budget := time.Duration(seconds) * time.Second / 2
	var wr wrapped
	if workload == wJobs {
		if wr, err = tracedJobs(&t, seed, budget, dir); err != nil {
			return report{}, err
		}
	} else {
		wr = tracedCampaign(&t, workload, seed, budget, dir)
	}
	m["trace.execs_per_s"] = metric{median(wr.tracedRates), "1/s"}
	m["trace.overhead_frac"] = metric{1 - median(wr.tracedRates)/median(wr.plainRates), "ratio"}
	in := wr.in
	m["fuzzers.next_us"] = metric{mean(in.next.values(time.Microsecond)), "us"}
	m["fuzzers.busy_frac"] = metric{ratio(sum(in.next.values(time.Second)),
		wr.wall.Seconds()*float64(workers())*float64(wr.campaigns)), "ratio"}
	m["exec.slot_wait_us_p50"] = metric{median(in.gate.waits.values(time.Microsecond)), "us"}
	m["exec.busy_frac"] = metric{in.gate.busyFrac(wr.wall, workers()), "ratio"}
	m["exec.cache_hit_ratio"] = metric{ratio(float64(wr.cacheHits), float64(wr.cacheHits+wr.cacheMisses)), "ratio"}
	m["exec.runs"] = metric{float64(wr.runs), "count"}
	m["exec.early_error_skips"] = metric{float64(wr.earlySkips), "count"}
	m["interp.ic_hit_ratio"] = metric{ratio(float64(wr.icHits), float64(wr.icAll)), "ratio"}
	m["dedup.filtered"] = metric{float64(wr.filtered), "count"}
	m["campaign.defects_found"] = metric{float64(wr.found), "count"}

	// The single-goroutine replay, then probes for layers it missed.
	tr := newTracer()
	fuel := int64(0)
	if workload == wInterp {
		fuel = interpFuel
	}
	rp := newReplayer(tr, fuel, g)
	realmUS, realmAllocs := rp.realmFloors()
	m["builtins.realm_us"] = metric{realmUS, "us"}
	m["builtins.realm_allocs"] = metric{realmAllocs, "count"}
	root := tr.begin("replay")
	replayFound := replay(rp, workload, seed, dir)
	wall := tr.end()
	t.check(replayFound == wr.foundIDs, "replay found %q, campaign found %q", replayFound, wr.foundIDs)
	counters := rp.c
	replayStats := tr.stats(root)
	splitExec(replayStats, counters.realm)
	writeSelfTimes(os.Stderr, workload+" replay", replayStats, wall)
	unaccounted := ratio(float64(replayStats["unaccounted"].self), float64(wall))
	m["replay.wall_s"] = metric{wall.Seconds(), "s"}
	m["replay.unaccounted_frac"] = metric{unaccounted, "ratio"}
	if workload == wCampaign || workload == wTriage {
		t.check(unaccounted <= reconcileTolerance,
			"replay layer self times cover %.1f%% of wall time, want within %.0f%%",
			100*(1-unaccounted), 100*reconcileTolerance)
	}

	tr.begin("probe")
	all := tr.stats(-1)
	if all["gen.generate"] == nil {
		rp.probeGeneration(seed, 20)
	}
	if all["reduce"] == nil || all["engines.attribute"] == nil || all["campaign.ckpt_write"] == nil {
		rp.probeTriage(seed, 12, dir)
	}
	tr.end()
	t.check(rp.ckptFailures == 0, "%d replay checkpoint writes failed", rp.ckptFailures)
	if err := writeSpans(tr, filepath.Join(workdir, "trace-"+workload+".tsv")); err != nil {
		return report{}, err
	}
	layerMetrics(m, tr.stats(-1), rp, counters)
	if len(in.ckpt.ds) > 0 {
		m["campaign.ckpt_write_ms_p50"] = metric{median(in.ckpt.values(time.Millisecond)), "ms"}
		m["campaign.ckpt_bytes"] = metric{float64(in.ckptBytes.Load()), "B"}
		m["campaign.ckpts"] = metric{float64(len(in.ckpt.ds)), "count"}
	}

	// The server layer: comfortd-jobs measured it above; other workloads
	// probe it with two small jobs.
	if workload != wJobs {
		if wr.server, err = serverProbe(&t, seed, dir); err != nil {
			return report{}, err
		}
	}
	for k, v := range wr.server {
		m[k] = v
	}
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// wrapped is what the plain-versus-instrumented runs measured.
type wrapped struct {
	plainRates, tracedRates []float64
	in                      *instruments
	wall                    time.Duration // the last instrumented rep's wall time
	campaigns               int           // campaigns in that rep
	cacheHits, cacheMisses  int64
	runs, earlySkips        int64
	icHits, icAll           uint64
	filtered, found         int
	foundIDs                string
	server                  map[string]metric
}

// absorb folds one instrumented campaign's result counters in.
func (w *wrapped) absorb(res *campaign.Result) {
	w.cacheHits += res.CacheHits
	w.cacheMisses += res.CacheMisses
	w.runs += res.Compiled + res.Fallback
	w.earlySkips += res.EarlyErrorSkips
	w.icHits += res.ICHits
	w.icAll += res.ICHits + res.ICMisses + res.ICMega
	w.filtered += res.DuplicatesFiltered
	w.found += len(res.Found)
	w.foundIDs += fmt.Sprint(sortedKeys(res.Found))
}

// tracedCampaign alternates plain and instrumented campaigns until the
// budget is spent (one pair at least), checking that both account alike.
// The instrument and counter readings are the last instrumented run's.
func tracedCampaign(t *tally, workload string, seed int64, budget time.Duration, dir string) wrapped {
	var w wrapped
	for start := time.Now(); len(w.plainRates) == 0 || time.Since(start) < budget; {
		plain, pr := runCampaignRep(campaignConfig(workload, seed, dir))
		in := &instruments{}
		res, tr := runCampaignRep(wrapConfig(campaignConfig(workload, seed, dir), in, nil))
		t.check(accountingKey(res) == accountingKey(plain), "instrumented %s accounting differs from plain", workload)
		w = wrapped{
			plainRates:  append(w.plainRates, float64(pr.executed)/pr.wall.Seconds()),
			tracedRates: append(w.tracedRates, float64(tr.executed)/tr.wall.Seconds()),
			in:          in, wall: tr.wall, campaigns: 1,
		}
		w.absorb(res)
	}
	return w
}

// tracedJobs takes the server-layer timings from one comfortd-jobs rep
// whose clients also poll each job's status. server.Options takes no Gate,
// so the instruments cannot run inside comfortd: every other figure on this
// workload comes from an emulation that runs the rep's job campaigns as two
// concurrent closed loops over one shared gate, as the supervisor does, but
// without its HTTP, lease and fenced-write work. Plain and instrumented
// emulations alternate until the budget is spent (one pair at least). Each
// instrumented job must account like its plain run and, marshalled through
// server.Accounting, byte for byte like comfortd's job.
func tracedJobs(t *tally, seed int64, budget time.Duration, dir string) (wrapped, error) {
	var w wrapped
	d, err := startDaemon(filepath.Join(dir, "store"))
	if err != nil {
		return w, err
	}
	polled, _, err := runJobsRep(d, seed, t, true)
	d.stop()
	if err != nil {
		return w, err
	}
	srv := serverMetrics(polled, d.store)
	for start := time.Now(); len(w.plainRates) == 0 || time.Since(start) < budget; {
		plain, pr := emulateJobs(seed, dir, nil)
		in := &instruments{}
		res, tr := emulateJobs(seed, dir, in)
		w = wrapped{
			plainRates:  append(w.plainRates, float64(pr.executed)/pr.wall.Seconds()),
			tracedRates: append(w.tracedRates, float64(tr.executed)/tr.wall.Seconds()),
			in:          in, wall: tr.wall, campaigns: jobClients, server: srv,
		}
		for i := range res {
			t.check(accountingKey(res[i]) == accountingKey(plain[i]), "instrumented job %d accounting differs from plain", i)
			t.check(sameAccounting(res[i], polled.jobs[i].accounting),
				"job %d: emulated campaign accounting differs from comfortd's", i)
			w.absorb(res[i])
		}
	}
	return w, nil
}

// emulateJobs runs the campaigns of one comfortd-jobs rep in process: job
// i's campaign on client i mod jobClients, the clients concurrent, all over
// one gate of workers() slots. in, when non-nil, instruments every campaign
// and times the shared gate.
func emulateJobs(seed int64, dir string, in *instruments) ([]*campaign.Result, rep) {
	var gate exec.Gate = exec.NewGate(workers())
	var tg *timingGate
	if in != nil {
		tg = newTimingGate(gate)
	}
	cfgs := make([]campaign.Config, jobsPerRep)
	for i := range cfgs {
		cfgs[i] = jobCampaignConfig(jobSpec(seed, i), filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", i)))
		if in != nil {
			cfgs[i] = wrapConfig(cfgs[i], in, tg)
		} else {
			cfgs[i].Gate = gate
		}
	}
	results := make([]*campaign.Result, jobsPerRep)
	r, _ := measured(func() (int, error) {
		var wg sync.WaitGroup
		for c := 0; c < jobClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < jobsPerRep; i += jobClients {
					results[i] = campaign.Run(cfgs[i])
				}
			}(c)
		}
		wg.Wait()
		executed := 0
		for _, res := range results {
			executed += res.Executed
		}
		return executed, nil
	})
	return results, r
}

// sameAccounting reports whether res, distilled the way comfortd writes a
// job's result.json, marshals to the same bytes as comfortd's accounting.
func sameAccounting(res *campaign.Result, comfortd []byte) bool {
	var theirs server.Accounting
	if json.Unmarshal(comfortd, &theirs) != nil {
		return false
	}
	a, errA := json.Marshal(serverAccounting(res))
	b, errB := json.Marshal(&theirs)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// serverAccounting distils res into the accounting comfortd reports for a
// finished job: the seed-determined fields, findings in defect-ID order.
func serverAccounting(res *campaign.Result) *server.Accounting {
	a := &server.Accounting{
		Fuzzer:               res.FuzzerName,
		CasesRun:             res.CasesRun,
		Executed:             res.Executed,
		Verdicts:             map[string]int{},
		Found:                findingRecords(res.Found),
		Suppressed:           findingRecords(res.SuppressedNondet),
		DuplicatesFiltered:   res.DuplicatesFiltered,
		UnattributedFindings: res.UnattributedFindings,
		EarlyErrorCases:      res.EarlyErrorCases,
		FlaggedNondet:        res.FlaggedNondet,
		FeatureCounts:        res.FeatureCounts,
		FeaturesSeen:         res.FeaturesSeen,
	}
	for v, n := range res.Verdicts {
		a.Verdicts[v.String()] = n
	}
	return a
}

func findingRecords(m map[string]*campaign.Finding) []server.FindingRecord {
	out := make([]server.FindingRecord, 0, len(m))
	for _, id := range sortedKeys(m) {
		f := m[id]
		out = append(out, server.FindingRecord{
			DefectID: id, Verdict: f.Verdict.String(), Engine: f.Engine,
			Features: f.Features, Flags: f.Flags,
		})
	}
	return out
}

// jobCampaignConfig is the campaign comfortd's supervisor runs for sp.
func jobCampaignConfig(sp server.Spec, ckpt string) campaign.Config {
	f, _ := fuzzers.ByName(sp.Fuzzer)
	return campaign.Config{
		Fuzzer: f, Testbeds: engines.Testbeds(), Cases: sp.Cases, Seed: sp.Seed,
		Workers: sp.Workers, GenShards: sp.GenShards,
		Checkpoint: ckpt, ProgressEvery: progressEvery, Clock: time.Now,
	}
}

// replay runs the workload's case stream through the replayer and returns
// the found IDs of each replayed campaign, rendered like wrapped.foundIDs.
func replay(rp *replayer, workload string, seed int64, dir string) string {
	var found string
	switch workload {
	case wCampaign:
		st := rp.campaign(seed, campaignCases, false, func(j int) []string { return rp.comfortBatch(seed, j) })
		found = fmt.Sprint(sortedKeys(st.found))
	case wJobs:
		// comfortd jobs checkpoint at the campaign default cadence.
		rp.dir, rp.ckptEvery = dir, 256
		for i := 0; i < jobsPerRep; i++ {
			s := jobSeed(seed, i)
			st := rp.campaign(s, jobCases, false, func(j int) []string { return rp.comfortBatch(s, j) })
			found += fmt.Sprint(sortedKeys(st.found))
		}
	case wInterp, wTriage:
		cfg := campaignConfig(workload, seed, dir)
		if workload == wTriage {
			rp.dir, rp.ckptEvery = dir, triageCkptEvery
		}
		st := rp.campaign(seed, cfg.Cases, cfg.ReduceWitnesses, func(int) []string {
			var b []string
			rp.tr.do("fuzzers.next", func() { b = cfg.Fuzzer.Next(nil) })
			return b
		})
		found = fmt.Sprint(sortedKeys(st.found))
	}
	rp.dir = ""
	return found
}

// splitExec replaces the replay's engines.exec layer by its realm floor
// (builtins.realm) and the evaluation beyond it (interp.eval).
func splitExec(stats map[string]*layerStat, realm time.Duration) {
	ex := stats["engines.exec"]
	if ex == nil {
		return
	}
	delete(stats, "engines.exec")
	stats["builtins.realm"] = &layerStat{calls: ex.calls, self: realm, total: realm}
	stats["interp.eval"] = &layerStat{calls: ex.calls, self: ex.self - realm, total: ex.total - realm}
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(m map[string]metric, st map[string]*layerStat, rp *replayer, c replayCounters) {
	us, ms := time.Microsecond, time.Millisecond
	m["gen.generate_us"] = metric{st["gen.generate"].perCall(us), "us"}
	m["gen.valid_us"] = metric{st["gen.valid"].perCall(us), "us"}
	m["gen.valid_ratio"] = metric{ratio(float64(rp.c.genValid), float64(rp.c.genAttempts)), "ratio"}
	m["testgen.mutate_us"] = metric{st["testgen.mutate"].perCall(us), "us"}
	m["parser.parse_us"] = metric{st["parser.parse"].perCall(us), "us"}
	m["resolve.us"] = metric{st["resolve"].perCall(us), "us"}
	m["compile.us"] = metric{st["compile"].perCall(us), "us"}
	m["analyze.us"] = metric{st["analyze"].perCall(us), "us"}
	var runs []float64
	if cell := st["exec.cell"]; cell != nil {
		for _, d := range cell.durs {
			runs = append(runs, float64(d)/float64(us))
		}
	}
	m["exec.run_us_p50"] = metric{quantile(runs, 0.5), "us"}
	m["exec.run_us_p90"] = metric{quantile(runs, 0.9), "us"}
	m["interp.eval_us"] = metric{ratio(float64(c.eval)/float64(us), float64(c.runs)), "us"}
	m["interp.fuel_per_exec"] = metric{ratio(float64(c.fuel), float64(c.runs)), "count"}
	m["difftest.classify_us"] = metric{st["difftest.classify"].perCall(us), "us"}
	m["dedup.us"] = metric{ratio(float64(st["dedup"].inclusive())/float64(us), float64(rp.c.buggyCases)), "us"}
	m["engines.attribute_ms"] = metric{st["engines.attribute"].perCall(ms), "ms"}
	m["engines.attribute_calls"] = metric{float64(rp.c.attributeCalls), "count"}
	m["reduce.ms_per_finding"] = metric{st["reduce"].perCall(ms), "ms"}
	m["reduce.pred_calls"] = metric{float64(rp.predCalls.Load()), "count"}
	m["reduce.bytes_ratio"] = metric{ratio(float64(rp.c.reduceOut), float64(rp.c.reduceOrig)), "ratio"}
	var ckpt []float64
	if s := st["campaign.ckpt_write"]; s != nil {
		for _, d := range s.durs {
			ckpt = append(ckpt, float64(d)/float64(ms))
		}
	}
	m["campaign.ckpt_write_ms_p50"] = metric{median(ckpt), "ms"}
	m["campaign.ckpt_bytes"] = metric{float64(rp.c.ckptBytes), "B"}
	m["campaign.ckpts"] = metric{float64(len(ckpt)), "count"}
}

// inclusive is the layer's total span time; 0 for a layer never entered.
func (s *layerStat) inclusive() time.Duration {
	if s == nil {
		return 0
	}
	return s.total
}

// serverMetrics derives the server-layer timings from a rep whose clients
// polled job status, then times status and lease writes on its store.
func serverMetrics(r jobsRep, store *server.Store) map[string]metric {
	var queue, warmup, first, submit []float64
	var id string
	for i, j := range r.jobs {
		queue = append(queue, float64(max(j.running-j.submit, 0))/float64(time.Millisecond))
		warmup = append(warmup, float64(j.first-j.running)/float64(time.Millisecond))
		first = append(first, float64(j.first)/float64(time.Millisecond))
		submit = append(submit, float64(j.submit)/float64(time.Millisecond))
		if i == 0 {
			id = j.id
		}
	}
	var statusW, leaseW []float64
	if st, err := store.ReadStatus(id); err == nil {
		lease, _ := store.ReadLease(id)
		for i := 0; i < 20; i++ {
			start := time.Now()
			if store.WriteStatus(st) == nil {
				statusW = append(statusW, float64(time.Since(start))/float64(time.Millisecond))
			}
			if lease != nil {
				start = time.Now()
				if store.WriteLease(id, lease) == nil {
					leaseW = append(leaseW, float64(time.Since(start))/float64(time.Millisecond))
				}
			}
		}
	}
	return map[string]metric{
		"server.queue_wait_ms":   {median(queue), "ms"},
		"server.job_warmup_ms":   {median(warmup), "ms"},
		"server.first_sample_ms": {median(first), "ms"},
		"server.submit_ms":       {median(submit), "ms"},
		"server.store_write_ms":  {median(statusW), "ms"},
		"server.lease_write_ms":  {median(leaseW), "ms"},
	}
}

// serverProbe runs two small comfortd jobs, one after the other, with
// status polling, for workloads that do not drive comfortd themselves.
func serverProbe(t *tally, seed int64, dir string) (map[string]metric, error) {
	d, err := startDaemon(filepath.Join(dir, "probe-store"))
	if err != nil {
		return nil, err
	}
	var r jobsRep
	for i := 0; i < 2; i++ {
		sp := jobSpec(seed, i)
		sp.Cases = probeJobCases
		jr, ok, err := d.runJob(sp, true)
		if err != nil {
			d.stop()
			return nil, err
		}
		t.check(ok, "server probe job %d did not end done with parseable accounting", i)
		r.jobs = append(r.jobs, jr)
	}
	d.stop()
	return serverMetrics(r, d.store), nil
}

// writeSpans writes every recorded span, one per line: layer, parent
// index, start and end in microseconds since the tracer's origin.
func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tparent\tstart_us\tend_us")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.layer, s.parent, s.start.Microseconds(), s.end.Microseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
