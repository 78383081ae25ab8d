package main

import (
	"testing"
	"time"

	"comfort/internal/fuzzers"
)

// TestInstrumentsAreNeutral runs each campaign workload plain and under
// the timing fuzzer, gate and checkpoint-writer wrappers at the same seed:
// found IDs, verdict histogram, executions, duplicates filtered and
// unattributed findings must be identical.
func TestInstrumentsAreNeutral(t *testing.T) {
	for _, workload := range []string{wCampaign, wTriage} {
		t.Run(workload, func(t *testing.T) {
			dir := t.TempDir()
			cfg := campaignConfig(workload, 7, dir)
			if workload == wCampaign {
				cfg.Cases = 300
			}
			plain, _ := runCampaignRep(cfg)

			var in instruments
			wcfg := campaignConfig(workload, 7, dir)
			wcfg.Cases = cfg.Cases
			wrapped, _ := runCampaignRep(wrapConfig(wcfg, &in, nil))

			if got, want := accountingKey(wrapped), accountingKey(plain); got != want {
				t.Errorf("instrumented accounting differs:\n got %s\nwant %s", got, want)
			}
			if wrapped.UnattributedFindings != plain.UnattributedFindings || len(wrapped.Found) == 0 {
				t.Errorf("unattributed %d vs %d, found %d", wrapped.UnattributedFindings,
					plain.UnattributedFindings, len(wrapped.Found))
			}
			if len(in.next.ds) == 0 || len(in.gate.waits.ds) == 0 {
				t.Errorf("instruments recorded nothing: %d Next calls, %d acquires",
					len(in.next.ds), len(in.gate.waits.ds))
			}
			if (cfg.Checkpoint != "") != (len(in.ckpt.ds) > 0) {
				t.Errorf("checkpoint writes timed: %d, campaign checkpoints: %v", len(in.ckpt.ds), cfg.Checkpoint != "")
			}
		})
	}
}

// TestWrapFuzzerKeepsForkability checks that the timing wrapper is
// Forkable exactly when the wrapped fuzzer is, so a wrapped campaign keeps
// its generator shards (or its serial path).
func TestWrapFuzzerKeepsForkability(t *testing.T) {
	rec := &durations{}
	if _, ok := wrapFuzzer(fuzzers.NewComfort(), rec).(fuzzers.Forkable); !ok {
		t.Error("wrapped COMFORT is not Forkable")
	}
	if _, ok := wrapFuzzer(newTriageFuzzer(1), rec).(fuzzers.Forkable); ok {
		t.Error("wrapped serial fuzzer became Forkable")
	}
}

// TestTracerSelfTime checks that a span's self time excludes its children
// and that the root's self time is reported as the unaccounted layer.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("replay")
	tr.do("outer", func() {
		time.Sleep(2 * time.Millisecond)
		tr.do("inner", func() { time.Sleep(5 * time.Millisecond) })
	})
	wall := tr.end()
	st := tr.stats(root)
	if st["inner"].self < 5*time.Millisecond || st["outer"].self != st["outer"].total-st["inner"].total {
		t.Errorf("self times: outer %v of %v, inner %v", st["outer"].self, st["outer"].total, st["inner"].self)
	}
	var covered time.Duration
	for _, s := range st {
		covered += s.self
	}
	if covered != wall || st["unaccounted"] == nil {
		t.Errorf("self times sum to %v, wall %v", covered, wall)
	}
}
