package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapDet flags map iterations whose loop body performs an
// order-sensitive effect: appending to a slice that outlives the loop,
// writing to an encoder/writer, or sending a Pregel message — directly
// or through a same-package helper whose summary says it sends (the
// vertex programs' flood). Go randomizes map iteration order, so any
// such loop emits its effects in a different order on every run — the
// exact hazard class that breaks the byte-identical-to-TOL guarantee
// (Theorems 2–4).
//
// The canonical safe pattern — collect the keys, sort, then range the
// sorted slice — is recognized: an append whose target is later passed
// to a sort call in the same function is not flagged, and neither is a
// per-key write like m[k] = append(m[k], ...) whose destination is
// indexed by the loop key itself (each key's slot is independent of
// visit order).
var MapDet = &Analyzer{
	Name: "mapdet",
	Doc:  "order-sensitive effect (append/encode/send) inside a map iteration",
	Run:  runMapDet,
}

// Method names that write to an encoder, writer, or wire buffer.
var mapdetWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Flush": true,
}

// fmt helpers that stream into a writer.
var mapdetFmtFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapDet(pass *Pass) error {
	idx := buildIndex(pass)
	seen := map[string]bool{} // dedupe pos+message across nested map ranges
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			fnBody := enclosingFuncBody(f, rs.Pos())
			checkMapRange(pass, idx, rs, fnBody, seen)
			return true
		})
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function
// containing pos (for the sorted-afterwards check).
func enclosingFuncBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch d := n.(type) {
		case *ast.FuncDecl:
			body = d.Body
		case *ast.FuncLit:
			body = d.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body // innermost wins: Inspect descends outer-to-inner
		}
		return true
	})
	return best
}

func checkMapRange(pass *Pass, idx *pkgIndex, rs *ast.RangeStmt, fnBody *ast.BlockStmt, seen map[string]bool) {
	keyObj := rangeKeyObject(pass, rs)
	report := func(pos token.Pos, format string, args ...any) {
		d := pass.Fset.Position(pos)
		key := fmt.Sprintf("%s:%d:%d|%s", d.Filename, d.Line, d.Column, format)
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, format, args...)
	}
	mapName := exprString(rs.X)
	if mapName == "" {
		mapName = "map"
	}

	// A function literal in call position (invoked in place, or passed
	// as a callback argument) runs during the iteration and is part of
	// the loop body; one that escapes into a variable, field, or slice
	// runs later — typically after the collect-then-sort step — and is
	// not examined here.
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			invoked[lit] = true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !invoked[lit] {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isAppendLike(pass, call) || i >= len(x.Lhs) {
					continue
				}
				switch lhs := x.Lhs[i].(type) {
				case *ast.Ident:
					obj := pass.ObjectOf(lhs)
					if obj == nil || declaredWithin(obj, rs) {
						continue // loop-local accumulator dies with the iteration
					}
					if sortedAfterwards(pass, fnBody, rs, obj) {
						continue // collect-then-sort pattern
					}
					report(x.Pos(), "append to %q inside iteration over map %q: map order is random; sort the keys first or sort %q before use", lhs.Name, mapName, lhs.Name)
				case *ast.IndexExpr:
					if keyObj != nil && usesObject(pass, lhs.Index, keyObj) {
						continue // m[k] for the loop key: per-key slot, order-free
					}
					if baseDeclaredWithin(pass, lhs.X, rs) {
						continue
					}
					report(x.Pos(), "append through %q inside iteration over map %q: map order is random; the element order depends on it", exprStringOr(lhs, "indexed slice"), mapName)
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch {
				case sel.Sel.Name == "Send" || sel.Sel.Name == "Broadcast":
					report(x.Pos(), "%s.%s inside iteration over map %q: messages are emitted in random map order; iterate sorted keys instead", exprStringOr(sel.X, "worker"), sel.Sel.Name, mapName)
				case mapdetWriteMethods[sel.Sel.Name] && !isPackageQualifier(pass, sel.X):
					report(x.Pos(), "%s.%s inside iteration over map %q: bytes are written in random map order; iterate sorted keys instead", exprStringOr(sel.X, "writer"), sel.Sel.Name, mapName)
				}
			}
			if fn := staticCallee(pass, x); fn != nil {
				// Only this package's functions have a summary.
				if sum := idx.summaries[fn]; sum != nil && sum.sends {
					report(x.Pos(), "%s sends messages and is called inside iteration over map %q: they are emitted in random map order; iterate sorted keys instead", fn.Name(), mapName)
				}
			}
			if pkg, name, ok := pkgFuncName(pass.Info, x); ok && pkg == "fmt" && mapdetFmtFuncs[name] {
				report(x.Pos(), "fmt.%s inside iteration over map %q: output order is random; iterate sorted keys instead", name, mapName)
			}
		}
		return true
	})
}

// rangeKeyObject returns the object bound to the range key, or nil.
func rangeKeyObject(pass *Pass, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.ObjectOf(id)
}

// isAppendLike matches the predeclared append plus the repo's
// accumulator helpers (appendU32, appendResult, ...): functions whose
// name starts with "append"/"Append" and that return a value the
// caller reassigns.
func isAppendLike(pass *Pass, call *ast.CallExpr) bool {
	if isBuiltinAppend(pass.Info, call) {
		return true
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "append")
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

func baseDeclaredWithin(pass *Pass, e ast.Expr, node ast.Node) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.ObjectOf(x)
			return obj != nil && declaredWithin(obj, node)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// usesObject reports whether e mentions obj.
func usesObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfterwards reports whether obj is passed to a sort call
// anywhere in fn after the range loop begins — the collect-keys,
// sort, then iterate idiom.
func sortedAfterwards(pass *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.Pos() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall matches sort.* and slices.Sort* from the standard
// library, plus local helpers whose name mentions "sort".
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	if pkg, _, ok := pkgFuncName(pass.Info, call); ok {
		return pkg == "sort" || pkg == "slices"
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// isPackageQualifier reports whether e names an imported package
// (so pkg.Write-style calls are not treated as method calls).
func isPackageQualifier(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.ObjectOf(id).(*types.PkgName)
	return isPkg
}

func exprStringOr(e ast.Expr, fallback string) string {
	if s := exprString(e); s != "" {
		return s
	}
	return fallback
}
