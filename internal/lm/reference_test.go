package lm

import (
	"math/rand"
	"strings"

	"comfort/internal/lm/bpe"
)

// generateMap is the reference sampler the frozen token-ID path is checked
// against: it walks the map-backed ngram.Model with string tokens exactly
// as the generator did before freezing, re-deriving every context's
// continuation order per draw. It must return the same program and
// sampled-token count as GenerateFromN, consuming the same RNG draws.
func (g *Generator) generateMap(header string, rng *rand.Rand) (string, int) {
	stream := g.encodeTokens(TokenizeCode(header))
	prefix := len(stream)
	depth := 0
	for _, t := range stream {
		switch t {
		case "{":
			depth++
		case "}":
			depth--
		}
	}
	sawBrace := strings.Contains(header, "{")
	for len(stream) < g.MaxTokens {
		tok, ok := g.model.Sample(stream, g.topK, rng)
		if !ok || tok == "<EOF>" {
			break
		}
		stream = append(stream, tok)
		switch tok {
		case "{":
			depth++
			sawBrace = true
		case "}":
			depth--
			if sawBrace && depth <= 0 {
				return bpe.Decode(stream) + trailerFor(header), len(stream) - prefix
			}
		}
	}
	return bpe.Decode(stream), len(stream) - prefix
}
