package spec

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
)

// ParamRule is the Figure-4(b) record for one API parameter: its inferred
// type, the boundary values worth probing, the step indices where boundary
// scopes apply, and the mined conditions.
type ParamRule struct {
	Name       string   `json:"name"`
	Type       string   `json:"type"`
	Values     []string `json:"values"`
	Scopes     []int    `json:"scopes"`
	Conditions []string `json:"conditions"`
}

// APIRule is the extracted rule set for one API.
type APIRule struct {
	Name   string
	Params []ParamRule
}

// DB is the structured specification database of Figure 4: canonical API
// name → parameter rules.
type DB struct {
	Rules map[string][]ParamRule
	// Coverage statistics for the extraction pass.
	TotalClauses int
	MinedClauses int
}

// CoverageRate reports the fraction of clauses the extractor mined
// (the paper reports ~82% for the real ECMA-262).
func (db *DB) CoverageRate() float64 {
	if db.TotalClauses == 0 {
		return 0
	}
	return float64(db.MinedClauses) / float64(db.TotalClauses)
}

// Lookup finds the rules for a canonical API name.
func (db *DB) Lookup(name string) ([]ParamRule, bool) {
	r, ok := db.Rules[name]
	return r, ok
}

// LookupMethod resolves a bare method name (e.g. "substr") against the
// database, returning the canonical key — how the fuzzer maps a call site
// `x.substr(...)` to its specification.
func (db *DB) LookupMethod(method string) (string, []ParamRule, bool) {
	if r, ok := db.Rules[method]; ok {
		return method, r, true
	}
	var keys []string
	for k := range db.Rules {
		if strings.HasSuffix(k, "."+method) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", nil, false
	}
	sort.Strings(keys)
	return keys[0], db.Rules[keys[0]], true
}

// Names returns all canonical API names in sorted order.
func (db *DB) Names() []string {
	var out []string
	for k := range db.Rules {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarshalJSON renders the database in the Figure-4(b) JSON shape.
func (db *DB) MarshalJSON() ([]byte, error) {
	return json.Marshal(db.Rules)
}

// UnmarshalJSON loads a Figure-4(b) JSON database.
func (db *DB) UnmarshalJSON(data []byte) error {
	db.Rules = map[string][]ParamRule{}
	return json.Unmarshal(data, &db.Rules)
}

// Build runs the full extraction pipeline over an ECMA-262-style document.
func Build(html string) *DB {
	db := &DB{Rules: map[string][]ParamRule{}}
	clauses := ExtractClauses(html)
	db.TotalClauses = len(clauses)
	for _, c := range clauses {
		rule, ok := MineRules(c)
		if !ok {
			continue
		}
		db.MinedClauses++
		db.Rules[rule.Name] = rule.Params
	}
	return db
}

var (
	defaultOnce sync.Once
	defaultDB   *DB
)

// Default returns the database built from the embedded document.
func Default() *DB {
	defaultOnce.Do(func() { defaultDB = Build(Document) })
	return defaultDB
}
