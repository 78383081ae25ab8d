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

// Program is one generated test program.
type Program struct {
	Source string
	Valid  bool
}

// Pipeline couples a trained generator with the syntax filter.
type Pipeline struct {
	Gen *lm.Generator
	// KeepInvalid is the fraction of syntactically invalid programs kept
	// for parser fuzzing (the paper keeps 20%).
	KeepInvalid float64
}

// New builds a pipeline with the paper's defaults.
func New(g *lm.Generator) *Pipeline {
	return &Pipeline{Gen: g, KeepInvalid: 0.2}
}

// Fork returns a pipeline sharing this one's trained generator and filter
// configuration. The generator is immutable after training and the syntax
// filter is stateless, so forks may generate concurrently; Next stays a
// pure function of the rng argument — the property campaign generator
// shards rely on.
func (p *Pipeline) Fork() *Pipeline {
	cp := *p
	return &cp
}

// Next produces the next test program that survives the filter.
func (p *Pipeline) Next(rng *rand.Rand) Program {
	for {
		src := p.Gen.Generate(rng)
		if _, err := parser.Parse(src); err == nil {
			return Program{Source: src, Valid: true}
		}
		if rng.Float64() < p.KeepInvalid {
			return Program{Source: src, Valid: false}
		}
	}
}

// Batch produces n filtered programs.
func (p *Pipeline) Batch(n int, rng *rand.Rand) []Program {
	out := make([]Program, 0, n)
	for len(out) < n {
		out = append(out, p.Next(rng))
	}
	return out
}
