// Package lm assembles the program generator of the paper's Section 3.2:
// code tokenisation, BPE subword encoding, a long-context language model
// (the GPT-2 substitute), and top-k sampling with the paper's termination
// conditions (bracket balance, <EOF>, 5,000-token cap).
package lm

import (
	"math/rand"
	"strings"

	"comfort/internal/lm/bpe"
	"comfort/internal/lm/ngram"
)

// Arch selects the model family; the architectural difference is context
// length, which is exactly the property the paper contrasts.
type Arch int

// Model architectures.
const (
	// ArchGPT2 is the long-context Transformer substitute (order 8).
	ArchGPT2 Arch = iota
	// ArchLSTM is the short-context RNN substitute used by the DeepSmith
	// and Montage baselines (order 2).
	ArchLSTM
)

func (a Arch) order() int {
	if a == ArchLSTM {
		return 2
	}
	return 8
}

func (a Arch) String() string {
	if a == ArchLSTM {
		return "lstm"
	}
	return "gpt2"
}

// Generator is a trained code generator. Generation runs on the frozen
// token-ID sampler (interned int32 vocabulary, precomputed per-context
// candidate lists, zero allocations per token); the map-backed model it
// was frozen from stays as the reference the generator oracles sample
// against.
type Generator struct {
	arch   Arch
	vocab  *bpe.Vocab
	model  *ngram.Model
	frozen *ngram.Frozen
	detok  []string // token ID → decoded text (continuation marker stripped)
	lbrace int32    // interned "{", or -1
	rbrace int32    // interned "}", or -1
	// wordSubs memoises EncodeWord for every word seen while training
	// (corpus and headers), so priming a generation does not re-run the
	// merge rules per word. Read-only after Train — generator shards
	// consult it concurrently; unseen words fall back to EncodeWord
	// without populating it.
	wordSubs map[string][]string
	// primed precompiles each seed header's tokenised/interned prefix and
	// brace state once at train time (read-only afterwards), so the frozen
	// hot path starts a generation with one map hit and one ID copy.
	primed  map[string]*primedHeader
	headers []string
	topK    int
	// MaxTokens is the generation cap (the paper's 5,000-word limit).
	MaxTokens int
}

// Config parameterises training.
type Config struct {
	Arch      Arch
	TopK      int // 0 = the paper's k=10
	NumMerges int // BPE merges; 0 = 400
}

// Train builds a generator from a corpus of programs plus seed headers.
func Train(programs, headers []string, cfg Config) *Generator {
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	if cfg.NumMerges == 0 {
		cfg.NumMerges = 400
	}
	// Collect identifier-like words for the BPE vocabulary.
	var words []string
	for _, p := range programs {
		for _, tok := range TokenizeCode(p) {
			if isWordToken(tok) {
				words = append(words, tok)
			}
		}
	}
	vocab := bpe.Train(words, cfg.NumMerges)
	model := ngram.New(cfg.Arch.order())
	memo := map[string][]string{}
	for _, p := range programs {
		stream := encodeWith(vocab, memo, TokenizeCode(p), true)
		stream = append(stream, "<EOF>")
		model.Train(stream)
	}
	// Pre-warm the memo with the seed headers so generation priming never
	// misses on its own vocabulary.
	for _, h := range headers {
		encodeWith(vocab, memo, TokenizeCode(h), true)
	}
	g := &Generator{
		arch:      cfg.Arch,
		vocab:     vocab,
		model:     model,
		frozen:    model.Freeze(),
		wordSubs:  memo,
		headers:   headers,
		topK:      cfg.TopK,
		MaxTokens: 5000,
	}
	g.detok = make([]string, g.frozen.VocabSize())
	for id := range g.detok {
		g.detok[id] = bpe.Strip(g.frozen.Token(int32(id)))
	}
	g.lbrace = g.frozen.TokenID("{")
	g.rbrace = g.frozen.TokenID("}")
	g.primed = make(map[string]*primedHeader, len(headers))
	for _, h := range headers {
		if _, ok := g.primed[h]; !ok {
			g.primed[h] = g.primeHeader(h)
		}
	}
	return g
}

// primedHeader is one seed header's precompiled generation prefix.
type primedHeader struct {
	toks     []string
	ids      []int32
	depth    int
	sawBrace bool
}

// primeHeader tokenises, BPE-encodes and interns one header.
func (g *Generator) primeHeader(header string) *primedHeader {
	p := &primedHeader{
		toks:     g.encodeTokens(TokenizeCode(header)),
		sawBrace: strings.Contains(header, "{"),
	}
	p.ids = make([]int32, len(p.toks))
	for i, tok := range p.toks {
		p.ids[i] = g.frozen.TokenID(tok)
		switch tok {
		case "{":
			p.depth++
		case "}":
			p.depth--
		}
	}
	return p
}

// Vocab exposes the trained BPE vocabulary.
func (g *Generator) Vocab() *bpe.Vocab { return g.vocab }

// Contexts reports the number of learned generation contexts.
func (g *Generator) Contexts() int { return g.model.Contexts() }

// Generate produces one synthetic program, primed with a random seed
// header. Generation stops when the braces opened by the header are
// balanced again, when the model emits <EOF>, or at the token cap.
func (g *Generator) Generate(rng *rand.Rand) string {
	header := g.headers[rng.Intn(len(g.headers))]
	return g.GenerateFrom(header, rng)
}

// GenerateFrom produces a program from an explicit seed header.
func (g *Generator) GenerateFrom(header string, rng *rand.Rand) string {
	src, _ := g.GenerateFromN(header, rng)
	return src
}

// GenerateFromN produces a program from an explicit seed header and
// reports how many tokens the LM sampled for it (the generation
// benchmarks' token-throughput denominator).
//
// This is the token-ID hot path: the stream is an []int32, each token
// costs one hash lookup plus one rng draw, and the program text is
// materialised exactly once at the end through a pre-sized builder. Header
// tokens outside the trained vocabulary keep their ID as -1 — they can
// never extend a trained context, which is precisely the map model's
// failed-lookup backoff — and their text is recovered from the header's
// own token strings at detokenization.
func (g *Generator) GenerateFromN(header string, rng *rand.Rand) (string, int) {
	p, ok := g.primed[header]
	if !ok {
		p = g.primeHeader(header) // ad-hoc header (Montage's expression priming)
	}
	prefix := p.toks
	ids := make([]int32, len(p.ids), len(p.ids)+256)
	copy(ids, p.ids)
	depth := p.depth
	sawBrace := p.sawBrace
	eof := g.frozen.EOF()
	for len(ids) < g.MaxTokens {
		id, ok := g.frozen.SampleID(ids, g.topK, rng)
		if !ok || id == eof {
			break
		}
		ids = append(ids, id)
		if id == g.lbrace {
			depth++
			sawBrace = true
		} else if id == g.rbrace {
			depth--
			if sawBrace && depth <= 0 {
				return g.detokenizeIDs(prefix, ids) + trailerFor(header), len(ids) - len(prefix)
			}
		}
	}
	return g.detokenizeIDs(prefix, ids), len(ids) - len(prefix)
}

// detokenizeIDs renders an ID stream to source through one exactly-sized
// builder. IDs < 0 only occur in the header prefix (sampled tokens are
// always interned), so their text comes from the prefix tokens.
func (g *Generator) detokenizeIDs(prefix []string, ids []int32) string {
	n := 0
	for i, id := range ids {
		if id >= 0 {
			n += len(g.detok[id])
		} else {
			n += len(bpe.Strip(prefix[i]))
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, id := range ids {
		if id >= 0 {
			b.WriteString(g.detok[id])
		} else {
			b.WriteString(bpe.Strip(prefix[i]))
		}
	}
	return b.String()
}

// trailerFor closes the idiom the seed header opened: function-expression
// headers get invoked, declarations get called by name when obvious.
func trailerFor(header string) string {
	h := strings.TrimSpace(header)
	if strings.HasPrefix(h, "var ") && strings.Contains(h, "= function") {
		name := strings.TrimPrefix(h, "var ")
		if i := strings.IndexAny(name, " ="); i > 0 {
			name = name[:i]
		}
		return ";\n" + name + "();\n"
	}
	if strings.HasPrefix(h, "function ") {
		name := strings.TrimPrefix(h, "function ")
		if i := strings.IndexAny(name, " ("); i > 0 {
			name = name[:i]
		}
		if !strings.Contains(h, ",") && strings.Contains(h, "()") {
			return "\n" + name + "();\n"
		}
		return "\n"
	}
	return "\n"
}

// ---------- code tokenisation ----------

// TokenizeCode splits source into the generation alphabet: words, numbers,
// string/regex-ish literals, punctuation, and explicit space/newline tokens
// so that decoding reproduces layout.
func TokenizeCode(src string) []string {
	var out []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			out = append(out, "\n")
			i++
		case c == ' ' || c == '\t' || c == '\r':
			j := i
			for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\r') {
				j++
			}
			out = append(out, " ")
			i = j
		case isWordStart(c):
			j := i
			for j < len(src) && isWordPart(src[j]) {
				j++
			}
			out = append(out, src[i:j])
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (isWordPart(src[j]) || src[j] == '.') {
				j++
			}
			out = append(out, src[i:j])
			i = j
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(src) && src[j] != c {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(src) {
				j++
			}
			out = append(out, src[i:j])
			i = j
		default:
			out = append(out, string(c))
			i++
		}
	}
	return out
}

func isWordStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordPart(c byte) bool {
	return isWordStart(c) || (c >= '0' && c <= '9')
}

func isWordToken(tok string) bool {
	return len(tok) > 0 && isWordStart(tok[0])
}

// encode expands word tokens into BPE subwords; everything else passes
// through verbatim.
func encode(v *bpe.Vocab, tokens []string) []string {
	return encodeWith(v, nil, tokens, false)
}

// encodeWith is encode backed by a word→subwords memo: running the merge
// rules over a word costs O(merges × len), so repeated words — which is
// most of a corpus and every header — resolve through one map hit
// instead. learn populates the memo (training); generation passes false
// so the map stays read-only and shard-safe.
func encodeWith(v *bpe.Vocab, memo map[string][]string, tokens []string, learn bool) []string {
	out := make([]string, 0, len(tokens)+8)
	for _, t := range tokens {
		if !isWordToken(t) || len(t) == 1 {
			out = append(out, t)
			continue
		}
		subs, ok := memo[t]
		if !ok {
			subs = v.EncodeWord(t)
			if learn {
				memo[t] = subs
			}
		}
		out = append(out, subs...)
	}
	return out
}

// encodeTokens is the generation-time encoder: memo hits only.
func (g *Generator) encodeTokens(tokens []string) []string {
	return encodeWith(g.vocab, g.wordSubs, tokens, false)
}
