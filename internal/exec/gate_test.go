package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingGate wraps a Gate and tracks the high-water mark of
// concurrently-held slots.
type countingGate struct {
	inner Gate
	held  atomic.Int32
	peak  atomic.Int32
}

func (g *countingGate) Acquire(ctx context.Context) error {
	if err := g.inner.Acquire(ctx); err != nil {
		return err
	}
	h := g.held.Add(1)
	for {
		p := g.peak.Load()
		if h <= p || g.peak.CompareAndSwap(p, h) {
			break
		}
	}
	return nil
}

func (g *countingGate) Release() {
	g.held.Add(-1)
	g.inner.Release()
}

// TestGateDoesNotChangeOutcomes: a scheduler squeezed through a 1-slot
// gate delivers exactly the outcomes of an ungated run — the gate bounds
// concurrency, never results or order.
func TestGateDoesNotChangeOutcomes(t *testing.T) {
	want := collect(t, New(schedCfg(8)), testSrcs)

	cfg := schedCfg(8)
	gate := &countingGate{inner: NewGate(1)}
	cfg.Gate = gate
	got := collect(t, New(cfg), testSrcs)

	if len(got) != len(want) {
		t.Fatalf("gated run delivered %d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Src != want[i].Src {
			t.Fatalf("outcome %d differs under gating", i)
		}
		we, ge := want[i].Entries(), got[i].Entries()
		for j := range we {
			w, g := we[j].Result, ge[j].Result
			if w.Outcome != g.Outcome || w.Output != g.Output || w.FuelUsed != g.FuelUsed {
				t.Errorf("outcome %d entry %d differs under gating:\n%+v\nvs\n%+v", i, j, w, g)
			}
		}
	}
	if peak := gate.peak.Load(); peak > 1 {
		t.Errorf("1-slot gate admitted %d concurrent executions", peak)
	}
}

// TestGateBoundsSharedConcurrency: two schedulers sharing one gate never
// exceed the gate's slot count in combined physical executions.
func TestGateBoundsSharedConcurrency(t *testing.T) {
	gate := &countingGate{inner: NewGate(2)}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cfg := schedCfg(4)
		cfg.Gate = gate
		s := New(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range s.Run(context.Background(), FromSlice(context.Background(), testSrcs)) {
			}
		}()
	}
	wg.Wait()
	if peak := gate.peak.Load(); peak > 2 {
		t.Errorf("2-slot gate admitted %d concurrent executions across schedulers", peak)
	}
	if peak := gate.peak.Load(); peak == 0 {
		t.Error("gate was never acquired")
	}
}

// TestGateCancellationUnblocks: workers blocked on a fully-held gate see
// the context cancellation and the outcome stream still terminates (the
// blocked cases are dropped under the contiguous-prefix contract).
func TestGateCancellationUnblocks(t *testing.T) {
	gate := NewGate(1)
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer gate.Release() // held for the whole test: every Acquire must block

	cfg := schedCfg(2)
	cfg.Gate = gate
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	out := s.Run(ctx, FromSlice(ctx, testSrcs))
	time.AfterFunc(50*time.Millisecond, cancel)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range out {
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock gate-starved workers")
	}
}
