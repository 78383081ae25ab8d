// Command comfort runs fuzzing campaigns and regenerates the paper's
// evaluation tables and figures.
//
// Usage:
//
//	comfort -cases 1000                 # full campaign + all tables
//	comfort -table 2 -cases 500         # one table
//	comfort -figure 8 -cases 300        # fuzzer comparison
//	comfort -figure 9 -n 200            # quality metrics
//	comfort -cases 2000 -workers 16     # wider scheduler pool
//	comfort -cases 5000 -gen-shards 4 -progress -progress-every 500
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/engines"
	"comfort/internal/faultinject"
	"comfort/internal/fuzzers"
)

// Exit codes: 0 success, 1 usage/config error, 3 interrupted (partial
// results flushed; resumable), 4 fault-injected kill (CI soak runs).
const (
	exitInterrupted = 3
	exitFaultKill   = 4
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-5); 0 = all")
		figure   = flag.Int("figure", 0, "regenerate one figure (7-9); 0 = all")
		cases    = flag.Int("cases", 600, "test-case budget for campaigns")
		n        = flag.Int("n", 150, "programs per fuzzer for figure 9")
		seed     = flag.Int64("seed", 2021, "campaign seed")
		fuzzer   = flag.String("fuzzer", "COMFORT", "fuzzer for single-fuzzer campaigns")
		workers  = flag.Int("workers", 0, "scheduler worker pool size; 0 = default")
		genShard = flag.Int("gen-shards", 0, "generator shards for forkable fuzzers; 0 = default (stream is shard-count independent)")
		fuel     = flag.Int64("fuel", 0, "interpreter step budget per execution; 0 = default")
		progress = flag.Bool("progress", false, "print campaign progress to stderr")
		progEach = flag.Int("progress-every", 100, "cases between progress samples (1 = every case)")
		reduceW  = flag.Bool("reduce", false, "reduce each finding's witness after the campaign (Section 3.5)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		ckptPath = flag.String("checkpoint", "", "periodically persist campaign state to this file (atomic writes)")
		resume   = flag.Bool("resume", false, "resume the campaign from the -checkpoint file")
		ckptEach = flag.Int("checkpoint-every", 0, "cases between checkpoint writes; 0 = default (256)")
		ckptIvl  = flag.Duration("checkpoint-interval", 0, "also checkpoint when this much wall time has passed (0 = off)")
		deadline = flag.Duration("case-deadline", 0, "wall-clock watchdog per execution; hung cases become timeout findings (0 = off)")
		faultStr = flag.String("faults", "", "deterministic fault-injection spec, e.g. \"seed=7,panic=100,slow=150,kill=2\" (testing/CI)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context — the sink drains, flushes a final checkpoint and the partial
	// report prints below — and a second signal force-quits.
	ctx, cancelCampaign := context.WithCancel(context.Background())
	defer cancelCampaign()
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "\ninterrupted: draining pipeline, flushing checkpoint and partial report (signal again to force quit)")
		interrupted.Store(true)
		cancelCampaign()
		<-sigCh
		os.Exit(130)
	}()

	// base carries the scheduler options every campaign in this invocation
	// shares (including the per-fuzzer campaigns behind -figure 8).
	// ReduceWitnesses stays out of base: Figure 8 only reads Found counts,
	// so reducing inside its six campaigns would be silent wasted work —
	// the flag applies to the main campaign, whose summary is printed.
	base := campaign.Config{
		Workers: *workers, Fuel: *fuel,
		GenShards: *genShard, ProgressEvery: *progEach,
		Context: ctx,
	}
	if *progress {
		// The sampling cadence lives in ProgressEvery now: the campaign only
		// reads the cache counters and invokes this callback on sampled
		// cases, so large campaigns stop paying per-case progress overhead.
		base.Progress = func(p campaign.Progress) {
			fmt.Fprintf(os.Stderr, "  %d/%d cases (program cache: %d hits, %d misses, %d evicted; execs: %d compiled, %d tree; IC: %d hit, %d miss, %d mega; analyze: %d cached, %d early-error skips, %d nondet-flagged, %d features; robustness: %d panics, %d wall-timeouts, %d checkpoints)\n",
				p.Done, p.Total, p.CacheHits, p.CacheMisses, p.CacheEvictions, p.Compiled, p.Fallback,
				p.ICHits, p.ICMisses, p.ICMega,
				p.Analyzed, p.EarlyErrorSkips, p.FlaggedNondet, p.FeaturesSeen,
				p.Panics, p.WallTimeouts, p.Checkpoints)
		}
	}

	needCampaign := *table >= 2 || *figure == 7 ||
		(*table == 0 && *figure == 0)
	var res *campaign.Result
	if needCampaign {
		f, ok := fuzzers.ByName(*fuzzer)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown fuzzer %q\n", *fuzzer)
			os.Exit(1)
		}
		fmt.Printf("running %s campaign: %d cases over %d testbeds...\n\n",
			f.Name(), *cases, len(engines.Testbeds()))
		cfg := base
		cfg.Fuzzer = f
		cfg.Testbeds = engines.Testbeds()
		cfg.Cases = *cases
		cfg.Seed = *seed
		cfg.ReduceWitnesses = *reduceW
		cfg.Checkpoint = *ckptPath
		cfg.CheckpointEvery = *ckptEach
		cfg.CheckpointInterval = *ckptIvl
		cfg.CaseDeadline = *deadline
		cfg.Clock = time.Now
		if *faultStr != "" {
			fcfg, err := faultinject.Parse(*faultStr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			plan := faultinject.New(fcfg)
			plan.Kill = func() {
				// Die exactly as a crash would: no final flush, no report.
				fmt.Fprintln(os.Stderr, "faultinject: killing process after checkpoint write")
				os.Exit(exitFaultKill)
			}
			cfg.Faults = plan
		}
		if *resume {
			if *ckptPath == "" {
				fmt.Fprintln(os.Stderr, "-resume requires -checkpoint <path>")
				os.Exit(1)
			}
			st, err := campaign.LoadState(*ckptPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "resume: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("resuming from %s: %d/%d cases already accounted\n\n", *ckptPath, st.CasesDone, *cases)
			res, err = campaign.Resume(cfg, st)
			if err != nil {
				fmt.Fprintf(os.Stderr, "resume: %v\n", err)
				os.Exit(1)
			}
		} else {
			res = campaign.Run(cfg)
		}
		fmt.Printf("campaign done: %d cases, %d findings, %d duplicates filtered, %d nondet-suppressed, %d early-error cases, %d recovered panics, %d wall-timeouts, %d checkpoints\n\n",
			res.CasesRun, len(res.Found), res.DuplicatesFiltered,
			len(res.SuppressedNondet), res.EarlyErrorCases,
			res.Panics, res.WallTimeouts, res.Checkpoints)
		if *reduceW {
			fmt.Println(campaign.ReductionSummary(res))
		}
	}
	found := []*campaign.Defect{}
	if res != nil {
		found = res.FoundDefects()
	}

	// show renders one artifact when it is selected (-table/-figure id) or
	// when no specific selection was made.
	all := *table == 0 && *figure == 0
	showTable := func(id int, render func() string) {
		if *table == id || all {
			fmt.Println(render())
		}
	}
	showFigure := func(id int, render func() string) {
		if *figure == id || all {
			fmt.Println(render())
		}
	}
	showTable(1, campaign.Table1)
	showTable(2, func() string { return campaign.Table2(found) })
	showTable(3, func() string { return campaign.Table3(found) })
	showTable(4, func() string { return campaign.Table4(found) })
	showTable(5, func() string { return campaign.Table5(found) })
	showFigure(7, func() string { return campaign.Figure7(found) })
	if *figure == 8 {
		out, _ := campaign.Figure8With(base, *cases, *seed)
		fmt.Println(out)
	}
	if *figure == 9 {
		out, _ := campaign.Figure9(*n, *seed)
		fmt.Println(out)
	}
	if interrupted.Load() {
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "interrupted: partial results above; continue with -resume -checkpoint %s\n", *ckptPath)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted: partial results above (run with -checkpoint to make interrupts resumable)")
		}
		pprof.StopCPUProfile() // deferred handlers are skipped by os.Exit
		os.Exit(exitInterrupted)
	}
}
