package comfort

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGenerationDoesNotReachEngines guards against teaching to the test:
// no generation package, nor any package below one, may reach
// internal/engines — where the seeded defects and their triggers live —
// through its own imports or through any module package it imports.
// Test files are exempt; only what the generators are built from counts.
func TestGenerationDoesNotReachEngines(t *testing.T) {
	const module, forbidden = "comfort", "comfort/internal/engines"
	deps := map[string][]string{} // package → its module-internal imports
	load := func(pkg string) []string {
		if d, ok := deps[pkg]; ok {
			return d
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/")
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var d []string
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if path == module || strings.HasPrefix(path, module+"/") {
					d = append(d, path)
				}
			}
		}
		deps[pkg] = d
		return d
	}

	var roots []string
	for _, dir := range []string{"fuzzers", "testgen", "lm", "spec", "corpus"} {
		n := len(roots)
		err := filepath.WalkDir(filepath.Join("internal", dir), func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				roots = append(roots, module+"/"+filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil || len(roots) == n {
			t.Fatalf("generation package internal/%s not found: %v", dir, err)
		}
	}
	for _, root := range roots {
		// Breadth-first over the import graph, remembering how each
		// package was reached so a violation prints its import chain.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			if pkg == forbidden {
				chain := []string{pkg}
				for p := via[pkg]; p != ""; p = via[p] {
					chain = append([]string{p}, chain...)
				}
				t.Errorf("%s reaches %s: %s", root, forbidden, strings.Join(chain, " → "))
				break
			}
			for _, d := range load(pkg) {
				if _, seen := via[d]; !seen {
					via[d] = pkg
					queue = append(queue, d)
				}
			}
		}
	}
}
