// Package gen implements the test-program generation stage: sample the
// language model, check syntax with the parser (the JSHint substitute),
// and keep 20% of the syntactically invalid programs for parser testing
// (Section 4.3).
package gen

import (
	"math/rand"

	"comfort/internal/js/parser"
	"comfort/internal/lm"
)

// keepInvalid is the fraction of syntactically invalid programs kept for
// parser fuzzing (the paper keeps 20%).
const keepInvalid = 0.2

// Program is one generated test program.
type Program struct {
	Source string
	Valid  bool
}

// Pipeline couples a trained generator with the syntax filter. The
// generator is immutable after training and the filter is stateless, so
// one Pipeline may generate concurrently; Next stays a pure function of
// the rng argument — the property campaign generator shards rely on.
type Pipeline struct {
	Gen *lm.Generator
}

// New builds a pipeline over a trained generator.
func New(g *lm.Generator) *Pipeline {
	return &Pipeline{Gen: g}
}

// Next produces the next test program that survives the filter.
func (p *Pipeline) Next(rng *rand.Rand) Program {
	for {
		src := p.Gen.Generate(rng)
		if _, err := parser.Parse(src); err == nil {
			return Program{Source: src, Valid: true}
		}
		if rng.Float64() < keepInvalid {
			return Program{Source: src, Valid: false}
		}
	}
}
