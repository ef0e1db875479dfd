// drlint runs the repo's project-specific static analyzers (see
// internal/lint) over the module:
//
//	drlint [-only mapdet,lockheld] [-json] [-v] [packages]
//
// Package patterns are directories relative to the module root, with
// the usual /... recursion; the default is ./... . The tool locates
// the enclosing module from the working directory, so it can be run
// from any subdirectory.
//
// Exit status: 0 clean, 1 findings, 2 usage error, load failure, or a
// malformed //lint:ignore directive anywhere in the tree (a waiver
// that does not parse silences nothing, and must never look like a
// routine finding that a waiver could in turn silence).
//
// With -json, findings are emitted to stdout as a JSON array of
// {file, line, col, analyzer, message} objects — file paths
// module-root-relative with forward slashes — for CI to archive and
// diff across runs. A clean run emits []. Type-check errors appear
// under the pseudo-analyzer "typecheck".
//
// Findings are waived in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or alone on the line above. The catalogue:
//
//	mapdet   order-sensitive effect inside a map iteration
//	lockheld mutex held across a blocking call
//	errsink  discarded error from a Write/Encode/Flush call
//	tornload same atomic.Pointer/Value loaded twice in one function
//	goleak   goroutine with no join path back to its spawner
//	wgmisuse WaitGroup.Add inside the goroutine, or Done without Add
package main

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout (CI artifact form)")
	verbose := flag.Bool("v", false, "report progress per package")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: drlint [-only names] [-json] [-v] [packages]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	analyzers, err := lint.ByName(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	root, err := lint.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The stdlib source importer resolves module-internal imports
	// relative to the working directory.
	if err := os.Chdir(root); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	loader := lint.NewLoader()
	pkgs, err := loader.LoadModule(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var all []lint.Diagnostic
	malformed := false
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "drlint: %s (%d files)\n", pkg.PkgPath, len(pkg.Files))
		}
		// Analysis still ran on partial information, but a tree that
		// does not type-check must never pass as clean.
		for _, terr := range pkg.TypeErrors {
			all = append(all, typeErrorDiagnostic(pkg, terr))
		}
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, d := range diags {
			// A malformed //lint:ignore is a broken safety interlock,
			// not a finding: report it, then exit 2 rather than 1.
			if d.Analyzer == "drlint" && strings.Contains(d.Message, "malformed") {
				malformed = true
			}
		}
		all = append(all, diags...)
	}

	if *jsonOut {
		data, err := lint.MarshalJSONDiagnostics(root, all)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := os.Stdout.Write(data); err != nil {
			// A half-written artifact must not pass for a clean run.
			fmt.Fprintln(os.Stderr, "drlint: writing artifact:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	switch {
	case malformed:
		fmt.Fprintf(os.Stderr, "drlint: %d finding(s), including an unparseable //lint:ignore directive\n", len(all))
		os.Exit(2)
	case len(all) > 0:
		fmt.Fprintf(os.Stderr, "drlint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// typeErrorDiagnostic folds a type-check failure into the diagnostic
// stream under the pseudo-analyzer "typecheck", with the real
// file:line:col when the error carries one.
func typeErrorDiagnostic(pkg *lint.Package, err error) lint.Diagnostic {
	d := lint.Diagnostic{Analyzer: "typecheck", Message: err.Error()}
	if te, ok := err.(types.Error); ok {
		d.Pos = te.Fset.Position(te.Pos)
		d.Message = te.Msg
	} else {
		d.Message = fmt.Sprintf("%s: %v", pkg.PkgPath, err)
	}
	return d
}
