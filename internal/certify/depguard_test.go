package certify

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCheckerIndependence is the depguard: the checker proper (every
// non-test file of this package) may import ONLY the standard library.
// In particular nothing from internal/cdg, internal/core,
// internal/route, or internal/topology — the engine code whose verdicts
// this package exists to double-check. Test files are exempt (the
// external test cross-validates against the engine on purpose).
func TestCheckerIndependence(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: import %s: %v", name, imp.Path.Value, err)
			}
			// Stdlib import paths never contain a dot in their first
			// element; module paths (github.com/..., and this module's own
			// internal packages) always do.
			first := path
			if i := strings.IndexByte(path, '/'); i >= 0 {
				first = path[:i]
			}
			if strings.Contains(first, ".") {
				t.Errorf("%s imports %q: checker must be stdlib-only (filepath %s)",
					name, path, filepath.Join("internal/certify", name))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files checked; depguard is vacuous")
	}
}
