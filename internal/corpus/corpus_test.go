package corpus

import (
	"testing"

	"comfort/internal/js/parser"
)

func parses(src string) bool {
	_, err := parser.Parse(src)
	return err == nil
}

// Every corpus program must be syntactically valid and every header must
// open a function the generator can continue.
func TestCorpusProgramsAreValid(t *testing.T) {
	progs := Programs()
	if len(progs) < 40 {
		t.Fatalf("corpus too small: %d programs", len(progs))
	}
	for i, p := range progs {
		if _, err := parser.Parse(p); err != nil {
			t.Errorf("corpus program %d invalid: %v\n%s", i, err, p)
		}
	}
}

func TestHeaders(t *testing.T) {
	hs := Headers()
	if len(hs) < 10 {
		t.Fatalf("too few headers: %d", len(hs))
	}
	for _, h := range hs {
		if !parses(h+" return 1; };") && !parses(h+" return 1; }") {
			t.Errorf("header %q cannot be completed into a program", h)
		}
	}
}

func TestFragments(t *testing.T) {
	fs := Fragments()
	if len(fs) < 200 {
		t.Fatalf("too few fragments: %d", len(fs))
	}
	parseable := 0
	for _, f := range fs {
		if parses(f) {
			parseable++
		}
	}
	if parseable < len(fs)/4 {
		t.Errorf("too few standalone-parseable fragments: %d/%d", parseable, len(fs))
	}
}
