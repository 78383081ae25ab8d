package main

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/campaign"
	"comfort/internal/exec"
	"comfort/internal/fuzzers"
)

// instruments are the pass-through timing wrappers a traced campaign runs
// under: the fuzzer, the execution gate and the checkpoint writer. They
// time calls into the layers and never change what the campaign computes
// (neutral_test.go pins that).
type instruments struct {
	next *durations
	gate *timingGate
	ckpt *durations
	// ckptBytes is the size of the last checkpoint written.
	ckptBytes atomic.Int64
}

// durations is a concurrency-safe list of call durations.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x)
	d.mu.Unlock()
}

// values returns the durations in the given unit.
func (d *durations) values(unit time.Duration) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, len(d.ds))
	for i, x := range d.ds {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// wrapConfig returns cfg with every instrument installed and a gate of
// cfg.Workers slots (shared when gate is non-nil). The checkpoint writer
// is wrapped only when cfg checkpoints, so the wrapped campaign does the
// same work as the plain one.
func wrapConfig(cfg campaign.Config, in *instruments, gate *timingGate) campaign.Config {
	if in.next == nil {
		in.next = &durations{}
		in.ckpt = &durations{}
	}
	if gate == nil {
		gate = newTimingGate(exec.NewGate(cfg.Workers))
	}
	in.gate = gate
	cfg.Fuzzer = wrapFuzzer(cfg.Fuzzer, in.next)
	cfg.Gate = gate
	if path := cfg.Checkpoint; path != "" {
		cfg.WriteCheckpoint = func(st *campaign.State) error {
			start := time.Now()
			err := campaign.WriteState(path, st)
			in.ckpt.add(time.Since(start))
			if fi, serr := os.Stat(path); serr == nil {
				in.ckptBytes.Store(fi.Size())
			}
			return err
		}
	}
	return cfg
}

// timingFuzzer times every Next call of the fuzzer it wraps.
type timingFuzzer struct {
	inner fuzzers.Fuzzer
	rec   *durations
}

func (f *timingFuzzer) Name() string { return f.inner.Name() }

func (f *timingFuzzer) Next(rng *rand.Rand) []string {
	start := time.Now()
	out := f.inner.Next(rng)
	f.rec.add(time.Since(start))
	return out
}

// forkableTimingFuzzer is the timingFuzzer of a Forkable fuzzer; its
// forks are timed into the same record, so generator shards keep running
// concurrently under the wrapper.
type forkableTimingFuzzer struct{ timingFuzzer }

func (f *forkableTimingFuzzer) Fork(shardSeed int64) fuzzers.Fuzzer {
	return &timingFuzzer{inner: f.inner.(fuzzers.Forkable).Fork(shardSeed), rec: f.rec}
}

// wrapFuzzer wraps f, staying Forkable exactly when f is.
func wrapFuzzer(f fuzzers.Fuzzer, rec *durations) fuzzers.Fuzzer {
	tf := timingFuzzer{inner: f, rec: rec}
	if _, ok := f.(fuzzers.Forkable); ok {
		return &forkableTimingFuzzer{tf}
	}
	return &tf
}

// timingGate passes slots through to an inner gate, recording how long
// each Acquire waited and integrating the number of held slots over time.
type timingGate struct {
	inner exec.Gate
	waits durations

	mu   sync.Mutex
	held int
	last time.Time
	busy time.Duration // slot-time held
}

func newTimingGate(inner exec.Gate) *timingGate { return &timingGate{inner: inner} }

func (g *timingGate) Acquire(ctx context.Context) error {
	start := time.Now()
	if err := g.inner.Acquire(ctx); err != nil {
		return err
	}
	now := time.Now()
	g.waits.add(now.Sub(start))
	g.mu.Lock()
	g.advance(now)
	g.held++
	g.mu.Unlock()
	return nil
}

func (g *timingGate) Release() {
	g.mu.Lock()
	g.advance(time.Now())
	g.held--
	g.mu.Unlock()
	g.inner.Release()
}

// advance accumulates held slot-time up to now; callers hold mu.
func (g *timingGate) advance(now time.Time) {
	if !g.last.IsZero() {
		g.busy += time.Duration(g.held) * now.Sub(g.last)
	}
	g.last = now
}

// busyFrac is the share of slot capacity held over wall time wall.
func (g *timingGate) busyFrac(wall time.Duration, slots int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return ratio(float64(g.busy), float64(wall)*float64(slots))
}
