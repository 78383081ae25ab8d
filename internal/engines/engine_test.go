package engines

import (
	"fmt"
	"testing"
)

// TestExecResultKeyRendering pins Key's byte format, which the majority
// vote, the reducer's predicates and attribution all compare: outcome,
// output and error name joined by '|', for every outcome including an
// out-of-range one.
func TestExecResultKeyRendering(t *testing.T) {
	for o := OutcomePass; o <= OutcomeTimeout+1; o++ {
		r := ExecResult{Outcome: o, Output: "1\na|b\n", ErrName: "TypeError"}
		if got, want := r.Key(), fmt.Sprintf("%s|%s|%s", o, r.Output, r.ErrName); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
	if got := (ExecResult{}).Key(); got != "pass||" {
		t.Errorf("zero Key() = %q, want %q", got, "pass||")
	}
}
