// BenchmarkLM measures raw token-sampling throughput — the generator's
// innermost loop — on the frozen token-ID sampler against the map-backed
// model train froze it from, for both architectures. EXPERIMENTS.md
// records the measured speedups; the acceptance bar is ≥ 5× on the frozen path.
package lm

import (
	"math/rand"
	"testing"

	"comfort/internal/corpus"
)

func BenchmarkLM(b *testing.B) {
	for _, arch := range []Arch{ArchGPT2, ArchLSTM} {
		g, model := train(corpus.Programs(), corpus.Headers(), Config{Arch: arch})
		header := corpus.Headers()[0]
		prefix := g.encodeTokens(TokenizeCode(header))

		b.Run(arch.String()+"/frozen", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ids := make([]int32, len(prefix), len(prefix)+512)
			for i, tok := range prefix {
				ids[i] = g.frozen.TokenID(tok)
			}
			base := len(ids)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, ok := g.frozen.SampleID(ids, topK, rng)
				if !ok {
					b.Fatal("sample failed")
				}
				ids = append(ids, id)
				if len(ids) >= base+400 || id == g.frozen.EOF() {
					ids = ids[:base]
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
		})

		b.Run(arch.String()+"/map", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			stream := append([]string(nil), prefix...)
			base := len(stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, ok := model.Sample(stream, topK, rng)
				if !ok {
					b.Fatal("sample failed")
				}
				stream = append(stream, tok)
				if len(stream) >= base+400 || tok == "<EOF>" {
					stream = stream[:base]
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
		})
	}
}
