package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared whole-package pass behind tornload, goleak
// and mapdet: a lightweight intra-package call graph plus one summary
// per declared function, closed transitively over same-package static
// calls. The summaries stand in for a real CFG — they answer "does
// calling this function load that atomic / reach a join point / emit
// a message", which is exactly the fact the caller-side analyzers
// need one hop away. Cross-package, interface, and func-value callees
// are left unresolved on purpose: an unknown callee contributes
// nothing, so the analyzers stay conservative instead of guessing.

// funcSummary aggregates the facts of one declared function that some
// analyzer reads, including everything reachable through same-package
// static calls.
type funcSummary struct {
	// loads holds the atomic.Pointer/atomic.Value variables and fields
	// the function calls .Load() on (tornload).
	loads map[types.Object]bool
	// joins: the function reaches a join point a spawner could use —
	// WaitGroup.Done, a channel operation, a select, or a close
	// (goleak).
	joins bool
	// sends: the function calls a Send or Broadcast method — it emits a
	// Pregel message, so calling it is order-sensitive (mapdet).
	sends bool
}

// pkgIndex is the per-package analysis index: declared functions, the
// static call graph between them, and their transitive summaries.
type pkgIndex struct {
	decls     map[*types.Func]*ast.FuncDecl
	callees   map[*types.Func][]*types.Func
	summaries map[*types.Func]*funcSummary
}

// buildIndex computes the index for the pass's package. The fixpoint
// is order-independent (facts only accumulate), so map iteration
// order does not matter.
func buildIndex(pass *Pass) *pkgIndex {
	idx := &pkgIndex{
		decls:     map[*types.Func]*ast.FuncDecl{},
		callees:   map[*types.Func][]*types.Func{},
		summaries: map[*types.Func]*funcSummary{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx.decls[fn] = fd
			idx.summaries[fn] = directFacts(pass, fd.Body)
			idx.callees[fn] = samePkgCallees(pass, fd.Body)
		}
	}
	// Transitive closure: propagate callee facts into callers until
	// nothing changes. Cycles terminate because facts only grow.
	for changed := true; changed; {
		changed = false
		for fn, s := range idx.summaries {
			for _, callee := range idx.callees[fn] {
				cs := idx.summaries[callee]
				if cs == nil {
					continue
				}
				for obj := range cs.loads {
					if !s.loads[obj] {
						s.loads[obj] = true
						changed = true
					}
				}
				if cs.joins && !s.joins {
					s.joins, changed = true, true
				}
				if cs.sends && !s.sends {
					s.sends, changed = true, true
				}
			}
		}
	}
	return idx
}

// directFacts scans one function body — nested literals included,
// since a literal the function builds usually runs on its behalf —
// for the facts funcSummary records.
func directFacts(pass *Pass, body *ast.BlockStmt) *funcSummary {
	s := &funcSummary{loads: map[types.Object]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			s.joins = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.joins = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					s.joins = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					s.joins = true
				}
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && !isPackageQualifier(pass, sel.X) {
				switch sel.Sel.Name {
				case "Done":
					if namedOrPtrTo(pass.TypeOf(sel.X), "sync", "WaitGroup") {
						s.joins = true
					}
				case "Load":
					if obj := atomicLoadTarget(pass, x); obj != nil {
						s.loads[obj] = true
					}
				case "Send", "Broadcast":
					s.sends = true
				}
			}
		}
		return true
	})
	return s
}

// samePkgCallees lists the package-local functions and methods body
// calls through static references. Duplicates are fine; the fixpoint
// is idempotent.
func samePkgCallees(pass *Pass, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(pass, call); fn != nil && fn.Pkg() == pass.Pkg {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// staticCallee resolves call to the *types.Func it statically invokes:
// a plain function reference, a package-qualified function, or a
// concrete method. Func values and interface methods return the
// abstract object, which has no body in the index and therefore stays
// unresolved downstream.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.ObjectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := pass.ObjectOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// atomicLoadTarget returns the variable or field object behind an
// x.Load() call when x is a sync/atomic Pointer or Value, else nil.
func atomicLoadTarget(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" || len(call.Args) != 0 {
		return nil
	}
	if !isAtomicBox(pass.TypeOf(sel.X)) {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return pass.ObjectOf(x)
	case *ast.SelectorExpr:
		return pass.ObjectOf(x.Sel)
	}
	return nil
}

// isAtomicBox reports whether t (or *t) is sync/atomic's Pointer[T]
// or Value — the swap-able boxes whose repeated loads can observe two
// different epochs.
func isAtomicBox(t types.Type) bool {
	return namedOrPtrTo(t, "sync/atomic", "Pointer") || namedOrPtrTo(t, "sync/atomic", "Value")
}

// receiverBase renders the receiver chain of a method call for event
// grouping: h.CacheStats() -> "h". Non-method calls return "".
func receiverBase(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return exprString(sel.X)
	}
	return ""
}
