package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"comfort/internal/exec"
	"comfort/internal/fuzzers"
)

// TestCaseStreamsPinned pins every fuzzer's first 20,000 seed-1 cases by
// hash. The case sources are the determinism anchor of checkpoints,
// dedup and the golden outputs, so a change to generation, Algorithm 1's
// mutator or the parser/printer underneath them must leave these hashes
// alone unless it means to change the stream. Two shards also run the
// mutator concurrently, which the race detector checks in CI.
func TestCaseStreamsPinned(t *testing.T) {
	want := map[string]string{
		"COMFORT":       "0fae706d12e2afc9",
		"DIE":           "70287f3fcef11309",
		"Fuzzilli":      "fc6a945a0232b808",
		"Montage":       "abcfd20ee9d53497",
		"DeepSmith":     "7b8e2939e32c2708",
		"CodeAlchemist": "3327a855fbb8a527",
	}
	const cases = 20000
	for _, f := range fuzzers.All() {
		ch := make(chan exec.Case)
		go generateCases(context.Background(), Config{Fuzzer: f, Cases: cases, Seed: 1}, 2, genStart{}, ch)
		h := sha256.New()
		n := 0
		for c := range ch {
			fmt.Fprintf(h, "%d\x00%s\x00", c.Index, c.Src)
			n++
		}
		if n != cases {
			t.Errorf("%s: %d cases, want %d", f.Name(), n, cases)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want[f.Name()] {
			t.Errorf("%s: stream hash %s, want %s", f.Name(), got, want[f.Name()])
		}
	}
}
