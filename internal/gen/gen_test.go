package gen

import (
	"math/rand"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/lint"
	"comfort/internal/lm"
)

func pipeline() *Pipeline {
	return New(lm.Train(corpus.Programs(), corpus.Headers(), lm.Config{Arch: lm.ArchGPT2}))
}

func TestBatchKeepsSomeInvalid(t *testing.T) {
	p := pipeline()
	rng := rand.New(rand.NewSource(3))
	valid, invalid := 0, 0
	for i := 0; i < 300; i++ {
		prog := p.Next(rng)
		if prog.Valid != lint.Valid(prog.Source) {
			t.Error("Valid flag disagrees with the linter")
		}
		if prog.Valid {
			valid++
		} else {
			invalid++
		}
	}
	if valid == 0 {
		t.Error("no valid programs")
	}
	// The paper keeps ~20% of invalid generations for parser fuzzing; with
	// a mostly-valid generator some invalid programs must still slip in.
	if invalid == 0 {
		t.Error("the 20%-invalid-kept rule produced nothing")
	}
	t.Logf("batch: %d valid, %d invalid", valid, invalid)
}

func TestNextDeterminism(t *testing.T) {
	p := pipeline()
	a := p.Next(rand.New(rand.NewSource(9)))
	b := p.Next(rand.New(rand.NewSource(9)))
	if a.Source != b.Source || a.Valid != b.Valid {
		t.Error("Next must be deterministic per seed")
	}
}
