// Package lint is the JSHint substitute's validity check: whether a
// synthesised program parses. Generation calls internal/js/parser
// directly (fuzzers.Comfort.Next keeps the tree it parses for Algorithm
// 1). Valid's only callers are perfbench/replay.go and this package's
// tests; it goes in the benchmark change that drops the perfbench import.
package lint

import "comfort/internal/js/parser"

// Valid reports only whether src parses.
func Valid(src string) bool {
	_, err := parser.Parse(src)
	return err == nil
}
