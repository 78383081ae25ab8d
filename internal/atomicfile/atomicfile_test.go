package atomicfile

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// noTemps fails the test if any staged temp file is left in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestEncode pins the record encoding: one-space indented JSON in field
// order, plus a trailing newline.
func TestEncode(t *testing.T) {
	type rec struct {
		Format int            `json:"format"`
		Name   string         `json:"name"`
		Counts map[string]int `json:"counts"`
		List   []string       `json:"list"`
		Empty  []string       `json:"empty,omitempty"`
	}
	got, err := Encode(rec{Format: 1, Name: "a<b", Counts: map[string]int{"z": 2, "a": 1}, List: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
 "format": 1,
 "name": "a\u003cb",
 "counts": {
  "a": 1,
  "z": 2
 },
 "list": [
  "x"
 ]
}
`
	if string(got) != want {
		t.Errorf("Encode:\n%s\nwant:\n%s", got, want)
	}
	if _, err := Encode(func() {}); err == nil {
		t.Error("Encode of an unencodable value must fail")
	}
}

// TestReplaceNeverTears: concurrent readers of a file being replaced see
// either the old or the new bytes, whole, and the directory ends with only
// the target.
func TestReplaceNeverTears(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	old := bytes.Repeat([]byte("o"), 64<<10)
	next := bytes.Repeat([]byte("n"), 96<<10)
	if err := Replace(path, old); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := os.ReadFile(path)
			if err != nil {
				torn = err
				return
			}
			if !bytes.Equal(got, old) && !bytes.Equal(got, next) {
				torn = errors.New("read a mix of old and new bytes")
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		data := next
		if i%2 == 1 {
			data = old
		}
		if err := Replace(path, data); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if torn != nil {
		t.Fatal(torn)
	}
	noTemps(t, dir)
}

// TestReplaceFailureLeavesOld: a publish that cannot happen (the target is
// a non-empty directory, or its directory is missing) reports an error,
// leaves what was there and removes the staged temp file.
func TestReplaceFailureLeavesOld(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "rec")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "inner"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Replace(target, []byte("new"))
	var le *os.LinkError
	if !errors.As(err, &le) {
		t.Fatalf("replacing a directory: err=%v, want an *os.LinkError from the rename", err)
	}
	if got, _ := os.ReadFile(filepath.Join(target, "inner")); string(got) != "old" {
		t.Fatalf("failed replace disturbed the target: %q", got)
	}
	noTemps(t, dir)

	err = Replace(filepath.Join(dir, "missing", "rec"), []byte("new"))
	if err == nil || errors.As(err, &le) {
		t.Fatalf("replace into a missing directory: err=%v, want a staging error", err)
	}
	noTemps(t, dir)
}

// TestCreateIsExclusive: Create publishes when the path is free, refuses
// with fs.ErrExist when it is taken, and leaves no temp file either way.
func TestCreateIsExclusive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lease.json")
	if err := Create(path, []byte("first\n")); err != nil {
		t.Fatalf("first create: %v", err)
	}
	noTemps(t, dir)
	if err := Create(path, []byte("second\n")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second create: err=%v, want fs.ErrExist", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first\n" {
		t.Fatalf("losing create disturbed the record: %q", got)
	}
	noTemps(t, dir)
}
