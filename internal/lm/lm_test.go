package lm

import (
	"math/rand"
	"strings"
	"testing"

	"comfort/internal/corpus"
	"comfort/internal/js/lint"
)

func TestTokenizeRoundTrip(t *testing.T) {
	for _, src := range corpus.Programs()[:10] {
		tokens := TokenizeCode(src)
		var b strings.Builder
		for _, tok := range tokens {
			b.WriteString(tok)
		}
		// Space runs collapse; everything else must round-trip.
		norm := func(s string) string {
			for strings.Contains(s, "  ") {
				s = strings.ReplaceAll(s, "  ", " ")
			}
			return strings.ReplaceAll(s, "\t", " ")
		}
		if norm(b.String()) != norm(src) {
			t.Errorf("tokenize round trip failed:\n%q\n%q", norm(src), norm(b.String()))
		}
	}
}

func trainDefault(t *testing.T, arch Arch) *Generator {
	t.Helper()
	return Train(corpus.Programs(), corpus.Headers(), Config{Arch: arch})
}

func TestGeneratorProducesParseableCode(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	rng := rand.New(rand.NewSource(7))
	valid := 0
	const n = 200
	for i := 0; i < n; i++ {
		src := g.Generate(rng)
		if src == "" {
			t.Fatal("empty generation")
		}
		if lint.Valid(src) {
			valid++
		}
	}
	rate := float64(valid) / n
	// The paper reports ~80% syntactic validity for the GPT-2 generator.
	if rate < 0.6 {
		t.Errorf("GPT-2-substitute validity %.2f, expected >= 0.6", rate)
	}
	t.Logf("gpt2 validity: %.2f", rate)
}

func TestLongContextBeatsShortContext(t *testing.T) {
	gpt := trainDefault(t, ArchGPT2)
	lstm := trainDefault(t, ArchLSTM)
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	const n = 150
	validGPT, validLSTM := 0, 0
	for i := 0; i < n; i++ {
		if lint.Valid(gpt.Generate(rngA)) {
			validGPT++
		}
		if lint.Valid(lstm.Generate(rngB)) {
			validLSTM++
		}
	}
	if validGPT <= validLSTM {
		t.Errorf("long-context model should beat short-context: gpt2 %d vs lstm %d of %d",
			validGPT, validLSTM, n)
	}
	t.Logf("validity gpt2=%d/%d lstm=%d/%d", validGPT, n, validLSTM, n)
}

func TestGenerationDeterminism(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	a := g.Generate(rand.New(rand.NewSource(3)))
	b := g.Generate(rand.New(rand.NewSource(3)))
	if a != b {
		t.Error("generation must be deterministic under a fixed seed")
	}
}

// montageHeader is the priming prefix Montage's LSTM samples expression
// fragments from: an ad-hoc header outside the seed set, so the frozen
// path primes it on the fly instead of from the train-time table.
const montageHeader = "var x = "

// TestFrozenMatchesMapGenerator is the generator-level differential
// oracle: for both architectures, programs generated on the frozen
// token-ID path must be byte-identical — same text, same sampled-token
// count, same RNG consumption — to the map-backed reference sampler,
// across many consecutive generations from one shared RNG (so any drift
// in draw counts desynchronises the streams and fails loudly). Each
// seed-header generation is followed by one from Montage's expression
// priming header.
func TestFrozenMatchesMapGenerator(t *testing.T) {
	headers := corpus.Headers()
	for _, arch := range []Arch{ArchGPT2, ArchLSTM} {
		g := trainDefault(t, arch)
		for _, seed := range []int64{1, 42, 2021} {
			rngF := rand.New(rand.NewSource(seed))
			rngM := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				for _, header := range []string{headers[i%len(headers)], montageHeader} {
					f, fn := g.GenerateFromN(header, rngF)
					m, mn := g.generateMap(header, rngM)
					if f != m {
						t.Fatalf("%s seed %d gen %d header %q: frozen and map programs differ:\n%q\nvs\n%q",
							arch, seed, i, header, f, m)
					}
					if fn != mn {
						t.Fatalf("%s seed %d gen %d header %q: sampled-token counts differ: %d vs %d",
							arch, seed, i, header, fn, mn)
					}
				}
			}
		}
	}
}

// TestFrozenHandlesUnknownHeaderTokens pins the out-of-vocabulary path:
// a header whose identifiers never occur in the corpus must round-trip
// its own text and still generate identically on both samplers, as must
// Montage's ad-hoc priming header.
func TestFrozenHandlesUnknownHeaderTokens(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	lstm := trainDefault(t, ArchLSTM)
	const header = "var zzUnknownZZ = qqNeverTrainedQQ + "
	for seed := int64(0); seed < 10; seed++ {
		f := g.GenerateFrom(header, rand.New(rand.NewSource(seed)))
		m, _ := g.generateMap(header, rand.New(rand.NewSource(seed)))
		if f != m {
			t.Fatalf("seed %d: unknown-header generations differ:\n%q\nvs\n%q", seed, f, m)
		}
		if !strings.HasPrefix(f, "var zzUnknownZZ = qqNeverTrainedQQ") {
			t.Fatalf("seed %d: header text lost through ID detokenization: %q", seed, f)
		}
		f = lstm.GenerateFrom(montageHeader, rand.New(rand.NewSource(seed)))
		m, _ = lstm.generateMap(montageHeader, rand.New(rand.NewSource(seed)))
		if f != m {
			t.Fatalf("seed %d: Montage-header generations differ:\n%q\nvs\n%q", seed, f, m)
		}
	}
}

func TestGenerationTerminates(t *testing.T) {
	g := trainDefault(t, ArchGPT2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		src := g.Generate(rng)
		if len(TokenizeCode(src)) > g.MaxTokens+64 {
			t.Errorf("generation exceeded the token cap: %d tokens", len(TokenizeCode(src)))
		}
	}
}
