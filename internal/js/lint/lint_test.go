package lint

import (
	"testing"

	"comfort/internal/js/parser"
)

func TestValid(t *testing.T) {
	if !Valid(`var x = 1; print(x);`) {
		t.Error("valid program rejected")
	}
	if Valid(`var = 1;`) {
		t.Error("invalid program accepted")
	}
}

func TestCheckInvalid(t *testing.T) {
	const src = `for(;false;)`
	if Valid(src) {
		t.Error("truncated for statement accepted")
	}
	if _, err := parser.Parse(src); err == nil {
		t.Error("invalid program must carry the parse error")
	}
}
