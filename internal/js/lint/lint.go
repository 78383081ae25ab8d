// Package lint is the JSHint substitute's validity check: whether a
// synthesised program parses. The generation pipeline calls
// internal/js/parser directly. Valid remains for perfbench/replay.go and
// a few tests; it goes in the benchmark change that drops the perfbench
// import.
package lint

import "comfort/internal/js/parser"

// Valid reports only whether src parses.
func Valid(src string) bool {
	_, err := parser.Parse(src)
	return err == nil
}
