// Stage 1 of the campaign pipeline: test-case generation. Fuzzers that
// implement fuzzers.Forkable generate as N concurrent shards — shard s
// owns batch indices j ≡ s (mod N), every batch j draws from an RNG
// derived deterministically from (campaign seed, j), and a reorder buffer
// (the per-shard lookahead channels below, the same receipt-order merge
// idea as internal/exec's outcome collector) splices the batches back
// into index order. Because each batch is a pure function of (seed, j),
// the emitted case stream is byte-identical for every shard count;
// fuzzers without Fork keep the legacy single-RNG serial path, whose
// stream is unchanged from previous releases.
package campaign

import (
	"context"
	"math/rand"
	"runtime"

	"comfort/internal/exec"
	"comfort/internal/fuzzers"
)

// genLookahead bounds each shard's unconsumed batches, so one slow batch
// never lets the other shards race arbitrarily far ahead of the merge
// point (memory stays bounded by shards × lookahead batches).
const genLookahead = 4

// defaultGenShards picks the shard count when Config.GenShards is 0.
func defaultGenShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// batchSeed derives batch j's RNG seed from the campaign seed via a
// splitmix64 round — consecutive indices land on uncorrelated streams,
// and the derivation depends only on (seed, j), never on the shard
// layout.
func batchSeed(seed int64, j int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(j+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// genStart is a generator restart position from a checkpoint: resume
// emission at global case index `index`, which sits at offset `off` into
// batch `batch`. The zero value is a fresh start. batch == -1 marks a
// serial-path position: the stream is replayed from case 0 with emission
// suppressed below `index`, because a stateful fuzzer's RNG cannot be
// fast-forwarded — the replay is the fast part of a resumed campaign
// (generation only; no executions).
type genStart struct {
	batch, off, index int
}

// generateCases produces the campaign's deterministic case stream on out,
// closing it when the budget is met, the fuzzer is exhausted (an empty
// batch), or ctx is cancelled. Because batch j is a pure function of
// (seed, j) on the forkable path, resuming at (batch, off) re-generates
// the exact suffix of the fresh run's stream, for every shard count. Each
// shard reseeds one RNG per batch instead of allocating one: a reseeded
// rand.Rand yields the same streams as a new one (Seed also resets Read's
// buffer), and a forkable Next keeps no reference to the rng it is given.
func generateCases(ctx context.Context, cfg Config, shards int, start genStart, out chan<- exec.Case) {
	defer close(out)
	forkable, ok := cfg.Fuzzer.(fuzzers.Forkable)
	if !ok {
		generateSerial(ctx, cfg, start, out)
		return
	}
	if start.batch < 0 {
		// Fingerprints pin the fuzzer, so a serial-format position never
		// reaches the forkable path; tolerate it as a fresh start anyway.
		start = genStart{}
	}
	// Shard ctx: cancelled when the merge loop returns, so producer
	// goroutines blocked on a full lookahead channel always drain.
	shardCtx, stop := context.WithCancel(ctx)
	defer stop()
	chans := make([]chan []string, shards)
	for s := 0; s < shards; s++ {
		ch := make(chan []string, genLookahead)
		chans[s] = ch
		go func(s int, f fuzzers.Fuzzer) {
			defer close(ch)
			rng := rand.New(rand.NewSource(0))
			for j := start.batch + s; ; j += shards {
				rng.Seed(batchSeed(cfg.Seed, j))
				batch := f.Next(rng)
				select {
				case <-shardCtx.Done():
					return
				case ch <- batch:
					if len(batch) == 0 {
						return // exhausted; the merger stops at this index
					}
				}
			}
		}(s, forkable.Fork(batchSeed(cfg.Seed, -1-s)))
	}
	emit := newEmitter(ctx, cfg, start.index, 0, out)
	for j := start.batch; ; j++ {
		batch, ok := <-chans[(j-start.batch)%shards]
		if !ok || len(batch) == 0 || !emit(j, batch, startSkip(start, j)) {
			return
		}
	}
}

// startSkip is the number of already-consumed cases to drop from batch j:
// the resume offset for the restart batch, zero for every later one.
func startSkip(start genStart, j int) int {
	if j == start.batch {
		return start.off
	}
	return 0
}

// generateSerial is the legacy path: one RNG advanced batch to batch — the
// determinism anchor for fuzzers whose state evolves across Next calls. A
// resume replays the stream from the beginning, suppressing emission below
// the restart index.
func generateSerial(ctx context.Context, cfg Config, start genStart, out chan<- exec.Case) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	emit := newEmitter(ctx, cfg, 0, start.index, out)
	for {
		batch := cfg.Fuzzer.Next(rng)
		if len(batch) == 0 || !emit(-1, batch, 0) {
			return
		}
	}
}

// newEmitter returns a closure that forwards one batch's cases to the
// scheduler under the campaign budget, reporting false when generation
// should stop (budget met or context cancelled). produced is the global
// index of the next case the emitter will see; cases below suppressBelow
// are generated but not emitted (the serial replay resume). Each emitted
// case carries its (batch, offset) position so the sink can checkpoint an
// exact restart point.
func newEmitter(ctx context.Context, cfg Config, produced, suppressBelow int, out chan<- exec.Case) func(int, []string, int) bool {
	return func(j int, batch []string, skip int) bool {
		for off, src := range batch {
			if off < skip {
				continue
			}
			if produced >= cfg.Cases {
				return false
			}
			if produced < suppressBelow {
				produced++
				continue
			}
			select {
			case <-ctx.Done():
				return false
			case out <- exec.Case{Index: produced, Src: src, Batch: j, Off: off}:
				produced++
			}
		}
		return produced < cfg.Cases
	}
}
