// Package lint is the repo's zero-dependency static-analysis
// framework: a miniature analogue of golang.org/x/tools/go/analysis
// built on the standard library's go/parser, go/types, and
// go/importer alone, so the module stays stdlib-only.
//
// The point of project-specific analyzers (rather than general
// linters) is the determinism contract of DRL/DRL_b: Theorems 2–4
// promise a distributed, concurrent build whose index is
// *byte-identical* to serial TOL's. That property is global and
// fragile — one unsorted map iteration feeding a label list, a wire
// encoder, or a Pregel outbox silently breaks it, and only a
// whole-index equality test much later would notice. The analyzers in
// this package encode the hazard classes reviewers would otherwise
// have to police by hand — mapdet, lockheld and errsink for the build
// tier's determinism, tornload, goleak and wgmisuse for the serving
// tier's concurrency — and each has been shown to fire on its own bug
// re-introduced into the tree (DESIGN.md §13). cmd/drlint is the driver
// that runs them over the module.
//
// Deliberate violations — e.g. the randomized BFL baseline, which
// tolerates nondeterminism by design — are waived in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it (see suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects a type-checked package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:ignore suppressions.
	Name string
	// Doc is a one-line description shown by `drlint -help`.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the type-checker could not
// resolve it (analyzers degrade gracefully on partial information).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (definition or use),
// or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// All returns the catalogue of project analyzers in a stable order:
// the three determinism analyzers from the build tier, then the three
// concurrency analyzers guarding the serving/updating tier
// (DESIGN.md §13).
func All() []*Analyzer {
	return []*Analyzer{MapDet, LockHeld, ErrSink, TornLoad, GoLeak, WGMisuse}
}

// ByName resolves analyzer names; the empty list means All.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the analyzers to a loaded package and returns
// the findings that survive //lint:ignore suppression, sorted by
// position. Malformed suppression comments are themselves reported.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	diags = applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
