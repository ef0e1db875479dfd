package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden tests load a fixture package from testdata/src/<name>,
// run exactly one analyzer over it, and require a bidirectional match
// against the fixture's `// want "substring"` comments: every want
// must be satisfied by a diagnostic on its exact file:line, and every
// diagnostic must be claimed by a want. A fixture line with no want
// comment is therefore asserted clean — the false-positive guard is
// built into every case, not a separate test.

// sharedLoader serves every test in the package: the loader caches
// type-checked imports by path, so the standard library is checked
// from source once per test binary instead of once per fixture. No
// test here runs in parallel.
var sharedLoader = NewLoader()

func TestMapDetGolden(t *testing.T)   { runGolden(t, MapDet, "mapdet") }
func TestLockHeldGolden(t *testing.T) { runGolden(t, LockHeld, "lockheld") }
func TestErrSinkGolden(t *testing.T)  { runGolden(t, ErrSink, "errsink") }
func TestTornLoadGolden(t *testing.T) { runGolden(t, TornLoad, "tornload") }
func TestGoLeakGolden(t *testing.T)   { runGolden(t, GoLeak, "goleak") }
func TestWGMisuseGolden(t *testing.T) { runGolden(t, WGMisuse, "wgmisuse") }

func runGolden(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	wants := collectWants(t, pkg)

	matched := map[int]bool{} // index into diags
	for loc, subs := range wants {
		for _, sub := range subs {
			ok := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				if lineKey(d) == loc && strings.Contains(d.Message, sub) {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s: want diagnostic containing %q, got none", loc, sub)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestSuppressions checks the //lint:ignore machinery end to end on
// the suppress fixture: the documented waiver silences its finding,
// the reason-less directive is itself reported and silences nothing,
// and a waiver naming a different analyzer (errsink, in scoped) does
// not touch mapdet's finding on the same line.
func TestSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags, err := RunAnalyzers(pkg, []*Analyzer{MapDet})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%s", len(diags), renderDiags(diags))
	}
	var haveMalformed bool
	mapdet := 0
	for _, d := range diags {
		switch {
		case d.Analyzer == "drlint" && strings.Contains(d.Message, "malformed"):
			haveMalformed = true
		case d.Analyzer == "mapdet":
			mapdet++
		}
	}
	if !haveMalformed || mapdet != 2 {
		t.Fatalf("want one malformed-directive finding and two surviving mapdet findings (bad and scoped), got:\n%s", renderDiags(diags))
	}
}

// TestSuppressionScoping is the regression for per-analyzer waiver
// scope: the scoped fixture line triggers both mapdet and errsink,
// and its //lint:ignore names only errsink. The errsink finding must
// vanish while the mapdet finding on the very same line survives.
func TestSuppressionScoping(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags, err := RunAnalyzers(pkg, []*Analyzer{MapDet, ErrSink})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	var mapdetLine, errsinkLine int
	for _, d := range diags {
		if !strings.Contains(d.Message, "e.Encode") {
			continue
		}
		switch d.Analyzer {
		case "mapdet":
			mapdetLine = d.Pos.Line
		case "errsink":
			errsinkLine = d.Pos.Line
		}
	}
	if mapdetLine == 0 {
		t.Errorf("mapdet finding on the scoped e.Encode line was muted by an errsink-only waiver:\n%s", renderDiags(diags))
	}
	if errsinkLine != 0 {
		t.Errorf("errsink finding at line %d survived its own waiver:\n%s", errsinkLine, renderDiags(diags))
	}
}

// TestJSONDiagnostics covers the -json artifact contract: paths come
// out module-root-relative with forward slashes, fields round-trip
// through encoding/json, and an empty run marshals as [] rather than
// null so artifact diffs stay well-formed.
func TestJSONDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.Join("/mod", "internal", "wal", "wal.go"), Line: 42, Column: 7},
			Analyzer: "errsink",
			Message:  "error discarded",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/out.go", Line: 1, Column: 1},
			Analyzer: "mapdet",
			Message:  "outside the module",
		},
	}
	data, err := MarshalJSONDiagnostics("/mod", diags)
	if err != nil {
		t.Fatal(err)
	}
	var got []JSONDiagnostic
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("artifact does not round-trip: %v\n%s", err, data)
	}
	want := []JSONDiagnostic{
		{File: "internal/wal/wal.go", Line: 42, Col: 7, Analyzer: "errsink", Message: "error discarded"},
		{File: "/elsewhere/out.go", Line: 1, Col: 1, Analyzer: "mapdet", Message: "outside the module"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d:\n%s", len(got), len(want), data)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	empty, err := MarshalJSONDiagnostics("/mod", nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(empty)) != "[]" {
		t.Errorf("empty run marshals as %q, want []", empty)
	}
}

// TestByName covers analyzer selection for the -only flag.
func TestByName(t *testing.T) {
	got, err := ByName([]string{"mapdet", "errsink"})
	if err != nil || len(got) != 2 || got[0] != MapDet || got[1] != ErrSink {
		t.Fatalf("ByName(mapdet,errsink) = %v, %v", got, err)
	}
	if all, err := ByName(nil); err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(nil) = %v, %v; want the full catalogue", all, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName(nosuch) succeeded; want error")
	}
}

// TestModuleIsClean runs the whole suite over the real module — the
// same run CI's lint job performs — and requires zero findings: every
// true positive is fixed or carries a documented waiver, and the
// analyzers raise no false positives on the codebase they guard.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module from source; skipped in -short")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// The source importer resolves module-internal imports relative to
	// the process working directory.
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(cwd); err != nil {
			t.Errorf("restoring cwd: %v", err)
		}
	})

	pkgs, err := sharedLoader.LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadModule found no packages")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, terr)
		}
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("finding in clean module: %s", d)
		}
	}
}

// loadFixture parses and type-checks testdata/src/<name>. Fixtures
// import only the standard library, so they resolve from any working
// directory.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := sharedLoader.LoadDir(dir, "testdata/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("LoadDir(%s) returned %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses `// want "sub" ["sub" ...]` comments into
// file:line -> expected message substrings.
func collectWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				loc := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantRE.FindAllString(rest, -1) {
					sub, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", loc, q, err)
					}
					wants[loc] = append(wants[loc], sub)
				}
				if len(wants[loc]) == 0 {
					t.Fatalf("%s: want comment with no quoted substring", loc)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	return wants
}

func lineKey(d Diagnostic) string {
	return fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
