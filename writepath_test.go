package reachlab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneDurableWritePath: outside benchmark/, examples/ and the seam
// itself, no program file creates, renames, truncates or fsyncs a file
// through package os. Every file reaches disk through internal/durable,
// whose every crash point the WAL and WriteFile crash tests enumerate.
func TestOneDurableWritePath(t *testing.T) {
	banned := map[string]bool{"Create": true, "CreateTemp": true, "OpenFile": true, "WriteFile": true, "Rename": true, "Truncate": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (path == "benchmark" || path == "examples" || path == filepath.Join("internal", "durable") ||
			d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		osName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		isOS := func(e ast.Expr, names ...string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == osName && (len(names) == 0 || slices.Contains(names, sel.Sel.Name))
		}
		// The names this file gives an *os.File: declared with that type,
		// or assigned from an os call that returns one.
		files := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if st, ok := n.Type.(*ast.StarExpr); ok && isOS(st.X, "File") {
					for _, id := range n.Names {
						files[id.Name] = true
					}
				}
			case *ast.AssignStmt:
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isOS(call.Fun, "Open", "NewFile", "Create", "OpenFile", "CreateTemp") {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						files[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := ""
			switch x := sel.X.(type) {
			case *ast.Ident:
				recv = x.Name
			case *ast.SelectorExpr:
				recv = x.Sel.Name
			}
			method := sel.Sel.Name == "Sync" || sel.Sel.Name == "Truncate"
			if isOS(sel) && banned[sel.Sel.Name] || method && (files[recv] || isOS(sel.X)) {
				t.Errorf("%s: %s.%s writes a file outside internal/durable", fset.Position(call.Pos()), recv, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
