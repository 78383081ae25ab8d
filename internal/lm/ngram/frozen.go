package ngram

import (
	"math/rand"
	"sort"
	"strings"
)

// Frozen is the compiled, read-only form of a trained Model. Freezing
// interns the string vocabulary into dense int32 token IDs, lays every
// (order, context-tuple) out in an open-addressing hash table over a flat
// ID backing array, and precomputes each context's continuation list
// sorted by (count descending, token lexicographic) — exactly the order
// the map-backed Sample derives per call. Sampling therefore costs one
// hash lookup plus one rng.Intn with zero allocations, instead of the
// map model's per-token context join, map copy and full sort.
//
// A Frozen model is immutable and safe for concurrent samplers; the
// map-backed Model stays intact as the differential oracle's second
// implementation (the ngram and lm frozen-vs-map tests sample both).
type Frozen struct {
	order int
	vocab []string         // id → token
	ids   map[string]int32 // token → id
	// tables[k] indexes the k-token contexts; cands holds every context's
	// sorted continuation list, concatenated in table order.
	tables []ctxTable
	cands  []int32
	eof    int32 // id of "<EOF>", -1 when untrained
}

// ctxTable is the open-addressing index of one context order: slots maps
// hash probes to entry indices, ctxs stores entry e's tuple at
// [e*k : e*k+k], and entry e's continuations are cands[start[e]:][:n[e]].
type ctxTable struct {
	k     int
	mask  uint64
	slots []int32 // -1 = empty
	ctxs  []int32
	start []int32
	n     []int32
}

// unknownID is returned for tokens outside the trained vocabulary. It can
// never equal an interned ID, so a context tuple containing it matches no
// trained context — the same miss-and-back-off the string model gets when
// a map lookup fails on an unseen token.
const unknownID = int32(-1)

// Freeze compiles the trained model. The result is independent of map
// iteration order: vocabulary IDs are assigned lexicographically and every
// candidate list carries the map Sample's (count, token) sort.
func (m *Model) Freeze() *Frozen {
	f := &Frozen{order: m.Order, ids: map[string]int32{}, eof: unknownID}

	// Pass 1: the vocabulary. Every token observable at sampling time
	// appears as a continuation; context tokens are a subset (order ≥ 1
	// contexts are built from trained sequences) but are collected too so
	// TokenID covers them even on tiny corpora.
	var vocab []string
	add := func(tok string) {
		if _, ok := f.ids[tok]; !ok {
			f.ids[tok] = 0 // placeholder; real IDs assigned after the sort
			vocab = append(vocab, tok)
		}
	}
	for k := 0; k <= m.Order; k++ {
		for ctx, row := range m.counts[k] {
			if k > 0 {
				for _, tok := range splitCtx(ctx) {
					add(tok)
				}
			}
			for tok := range row {
				add(tok)
			}
		}
	}
	sort.Strings(vocab)
	f.vocab = vocab
	for i, tok := range vocab {
		f.ids[tok] = int32(i)
	}
	if id, ok := f.ids["<EOF>"]; ok {
		f.eof = id
	}

	// Pass 2: per-order context tables with precomputed candidate lists.
	f.tables = make([]ctxTable, m.Order+1)
	for k := 0; k <= m.Order; k++ {
		rows := m.counts[k]
		keys := make([]string, 0, len(rows))
		for ctx := range rows {
			keys = append(keys, ctx)
		}
		sort.Strings(keys)
		t := &f.tables[k]
		t.k = k
		size := tableSize(len(keys))
		t.mask = uint64(size - 1)
		t.slots = make([]int32, size)
		for i := range t.slots {
			t.slots[i] = -1
		}
		t.ctxs = make([]int32, 0, len(keys)*k)
		t.start = make([]int32, len(keys))
		t.n = make([]int32, len(keys))
		for e, ctx := range keys {
			base := len(t.ctxs)
			if k > 0 {
				for _, tok := range splitCtx(ctx) {
					t.ctxs = append(t.ctxs, f.ids[tok])
				}
			}
			t.start[e] = int32(len(f.cands))
			cands := sortedCandidates(rows[ctx])
			t.n[e] = int32(len(cands))
			for _, c := range cands {
				f.cands = append(f.cands, f.ids[c.tok])
			}
			h := hashIDs(t.ctxs[base:])
			for i := h & t.mask; ; i = (i + 1) & t.mask {
				if t.slots[i] < 0 {
					t.slots[i] = int32(e)
					break
				}
			}
		}
	}
	return f
}

// sortedCandidates orders a continuation row by count descending, token
// ascending — the exact comparator of the map model's Sample.
func sortedCandidates(row map[string]int) []candidate {
	cands := make([]candidate, 0, len(row))
	for tok, n := range row {
		cands = append(cands, candidate{tok, n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].tok < cands[j].tok
	})
	return cands
}

// splitCtx splits a joined context key back into its tokens.
func splitCtx(ctx string) []string { return strings.Split(ctx, sep) }

// tableSize picks a power-of-two capacity at most half full.
func tableSize(entries int) int {
	size := 4
	for size < 2*entries {
		size *= 2
	}
	return size
}

// hashIDs is FNV-1a over the tuple's IDs (one round per ID).
func hashIDs(ids []int32) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 0x100000001b3
	}
	return h
}

// find locates a context tuple's entry index.
func (t *ctxTable) find(ctx []int32) (int32, bool) {
	if len(t.start) == 0 {
		return 0, false
	}
	h := hashIDs(ctx)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e < 0 {
			return 0, false
		}
		base := int(e) * t.k
		match := true
		for j := 0; j < t.k; j++ {
			if t.ctxs[base+j] != ctx[j] {
				match = false
				break
			}
		}
		if match {
			return e, true
		}
	}
}

// SampleID draws the next token ID from the top-k continuations of the
// longest matching context suffix — semantically identical to the map
// model's Sample, including the backoff order, the candidate sort and the
// single rng.Intn draw, so the two implementations consume the RNG in
// lockstep and produce byte-identical streams.
func (f *Frozen) SampleID(ctx []int32, topK int, rng *rand.Rand) (int32, bool) {
	if topK < 1 {
		topK = 10
	}
	for k := f.order; k >= 0; k-- {
		if len(ctx) < k {
			continue
		}
		t := &f.tables[k]
		e, ok := t.find(ctx[len(ctx)-k:])
		if !ok {
			continue
		}
		n := int(t.n[e])
		if n > topK {
			n = topK
		}
		return f.cands[int(t.start[e])+rng.Intn(n)], true
	}
	return unknownID, false
}

// Sample is the string-level convenience wrapper over SampleID (tests and
// oracles; the generation hot path stays on IDs end to end).
func (f *Frozen) Sample(context []string, topK int, rng *rand.Rand) (string, bool) {
	ids := make([]int32, len(context))
	for i, tok := range context {
		ids[i] = f.TokenID(tok)
	}
	id, ok := f.SampleID(ids, topK, rng)
	if !ok {
		return "", false
	}
	return f.vocab[id], true
}

// TokenID interns a token, returning -1 for tokens outside the trained
// vocabulary.
func (f *Frozen) TokenID(tok string) int32 {
	if id, ok := f.ids[tok]; ok {
		return id
	}
	return unknownID
}

// Token returns the string form of an interned ID.
func (f *Frozen) Token(id int32) string { return f.vocab[id] }

// EOF reports the interned ID of the end-of-generation marker (-1 when
// the corpus never produced one).
func (f *Frozen) EOF() int32 { return f.eof }

// Order reports the model's context length.
func (f *Frozen) Order() int { return f.order }

// VocabSize reports the number of interned tokens.
func (f *Frozen) VocabSize() int { return len(f.vocab) }

// Contexts reports the number of distinct highest-order contexts — the
// same statistic as Model.Contexts, read from the frozen tables.
func (f *Frozen) Contexts() int { return len(f.tables[f.order].start) }
