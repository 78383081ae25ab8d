package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFigureRendersPinned pins the rendered Figure 8 and Figure 9 tables
// by hash. Figure 9 measures COMFORT's raw LM output through
// Comfort.GenerateOnly and Figure 8 runs a campaign per fuzzer, so a
// change to generation or to campaign accounting that should leave the
// figures alone must leave these hashes alone.
func TestFigureRendersPinned(t *testing.T) {
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:8])
	}
	f9, _ := Figure9(60, 1)
	if got, want := hash(f9), "a3d29a499d72b813"; got != want {
		t.Errorf("Figure9(60, 1) hash %s, want %s\n%s", got, want, f9)
	}
	f8, _ := Figure8(60, 2021)
	if got, want := hash(f8), "4d237160ffcad17f"; got != want {
		t.Errorf("Figure8(60, 2021) hash %s, want %s\n%s", got, want, f8)
	}
}
