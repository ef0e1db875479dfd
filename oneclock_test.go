package reachlab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneClock: outside benchmark/, testdata/ and internal/clock
// itself, no program file waits on the time package's own timers. A
// loop that waits for something a test drives reads internal/clock,
// which a test can replace with a fake it advances; the waits left on
// the wall clock are listed here by file and function, with why.
func TestOneClock(t *testing.T) {
	banned := map[string]bool{"Sleep": true, "After": true, "NewTimer": true, "NewTicker": true, "Tick": true, "AfterFunc": true}
	allowed := map[string]string{
		"internal/fleet/router.go forward":              "the 25 ms pause between retry rounds selects on the request's ctx and the fleet's stop; tests pay it in real time",
		"internal/fleet/chaos.go ServeHTTP":             "the injected latency spike is real time by design: it is what a chaos soak's clients wait through",
		"internal/bench/loadgen.go RunLoadgenEndpoints": "the load generator's write and disruption pacing is part of what it measures",
		"internal/bench/runner.go cutoff":               "an experiment's wall-clock cutoff is a measurement budget",
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (path == "benchmark" || path == filepath.Join("internal", "clock") ||
			d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		timeName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !banned[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName {
					key := filepath.ToSlash(path) + " " + fn
					if used[key] = allowed[key] != ""; !used[key] {
						t.Errorf("%s: time.%s in %s waits on the wall clock; use internal/clock", fset.Position(sel.Pos()), sel.Sel.Name, fn)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("the allowlist names %s, which no longer waits on the wall clock", key)
		}
	}
}
