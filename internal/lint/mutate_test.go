package lint

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The mutation driver: it rewrites one branch of a non-test file at a
// time and asks the tests whether anything can tell. A mutant the
// tests pass on "survives"; each survivor is either a missing test or
// a branch no behaviour depends on (results/mutants.txt gives every
// one its verdict). Run it as
//
//	go test ./internal/lint -run TestMutate -timeout 0 -v -args -mutate=internal/label,internal/tol/dynamic.go
//
// (or `make mutate PKGS=...`). Without -mutate, TestMutate skips.
// The tree is never edited: each mutant reaches the compiler through
// a `go test -overlay` file in a temporary directory.

var (
	mutateFlag = flag.String("mutate", "", "comma-separated module-relative directories or .go files whose non-test files TestMutate mutates")
	mutateRun  = flag.String("mutate.run", "", "regexp: run only the mutants whose key (file:line:column op) matches")
)

// mutantTimeout bounds each command a mutant runs: its compile, each
// run of the owning package's tests, the oracle suites. A mutant that
// exceeds it counts as killed: it made some test hang.
const mutantTimeout = 2 * time.Minute

// oracleSuites run, after the owning package's tests pass on a
// mutant, to judge it against the BFS oracles, TOL equality, the
// end-to-end suites and the router's tests, whose serving-cost golden
// and replica table hold the replica too.
var oracleSuites = []string{".", "./internal/drl", "./internal/fleet", "./internal/tol"}

// mutant is one rewrite of one file: the bytes [off, end) of the
// source become repl.
type mutant struct {
	file     string // module-relative, slash-separated
	line     int
	col      int // byte column, 1-based: tells apart two mutants of one line
	off, end int
	op       string // operator name, as the table prints it
	orig     string // the replaced source text
	repl     string
	shown    string // what the table prints for orig, if not orig itself
}

// key names the mutant without its text, "file:line:column op": what
// -mutate.run selects on, so that a filter on the operator does not
// also pick a mutant whose source happens to spell its name.
func (m mutant) key() string {
	return fmt.Sprintf("%s:%d:%d %s", m.file, m.line, m.col, m.op)
}

func (m mutant) String() string {
	orig := m.shown
	if orig == "" {
		orig = oneLine(m.orig)
	}
	return fmt.Sprintf("%s: %s → %s", m.key(), orig, m.repl)
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// pairedNames are identifiers whose swap is a mutant: each name of a
// pair that the code uses as a value (not where it is declared)
// becomes the other.
var pairedNames = map[string]string{
	"kindFwd": "kindBwd", "kindBwd": "kindFwd",
	"inFull": "outFull", "outFull": "inFull",
}

var boundaryFlips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
}

// mutants enumerates the mutants of one file in source order. The
// operators:
//   - "if→false" and "if→true": the condition of an if statement
//     without an init clause;
//   - "boundary": < ↔ <= and > ↔ >=;
//   - "swap": kindFwd ↔ kindBwd and inFull ↔ outFull;
//   - "inverse": x.Inverse() → x;
//   - "body→zero": a function's non-empty body returns the zero
//     values of its results — `{ return *new(T1), … }` when they are
//     unnamed, a bare `return` when they are named, `{}` when there
//     are none — so a function no test needs survives;
//   - "index+1" and "index-1": the index of an index expression, one
//     more and one less (a generic instantiation parses the same way
//     and is uncompilable);
//   - "drop": a continue or break statement, or a return whose last
//     result is err, becomes a comment.
func mutants(name string, src []byte) ([]mutant, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var ms []mutant
	add := func(op string, from, to token.Pos, repl string) {
		pos := fset.Position(from)
		off, end := pos.Offset, fset.Position(to).Offset
		ms = append(ms, mutant{file: name, line: pos.Line, col: pos.Column, off: off, end: end,
			op: op, orig: string(src[off:end]), repl: repl})
	}
	declared := map[*ast.Ident]bool{}
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil || len(n.Body.List) == 0 {
				break
			}
			repl := "{}"
			if res := n.Type.Results; res != nil && len(res.List) > 0 {
				if len(res.List[0].Names) > 0 {
					repl = "{ return }"
				} else {
					zeros := make([]string, len(res.List))
					for i, r := range res.List {
						zeros[i] = "*new(" + text(r.Type) + ")"
					}
					repl = "{ return " + strings.Join(zeros, ", ") + " }"
				}
			}
			add("body→zero", n.Body.Pos(), n.Body.End(), repl)
			ms[len(ms)-1].shown = n.Name.Name + " {…}"
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.IfStmt:
			if n.Init == nil {
				add("if→false", n.Cond.Pos(), n.Cond.End(), "false")
				add("if→true", n.Cond.Pos(), n.Cond.End(), "true")
			}
		case *ast.BinaryExpr:
			if to, ok := boundaryFlips[n.Op]; ok {
				add("boundary", n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), to.String())
			}
		case *ast.Ident:
			if to, ok := pairedNames[n.Name]; ok && !declared[n] {
				add("swap", n.Pos(), n.End(), to)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Inverse" && len(n.Args) == 0 {
				add("inverse", n.Pos(), n.End(), text(sel.X))
			}
		case *ast.IndexExpr:
			add("index+1", n.Index.Pos(), n.Index.End(), text(n.Index)+"+1")
			add("index-1", n.Index.Pos(), n.Index.End(), text(n.Index)+"-1")
		case *ast.BranchStmt:
			if n.Tok == token.CONTINUE || n.Tok == token.BREAK {
				add("drop", n.Pos(), n.End(), "/* dropped */")
			}
		case *ast.ReturnStmt:
			if k := len(n.Results); k > 0 {
				if id, ok := n.Results[k-1].(*ast.Ident); ok && id.Name == "err" {
					add("drop", n.Pos(), n.End(), "/* dropped */")
				}
			}
		}
		return true
	})
	// ast.Inspect visits a parent before its children, so sorting by
	// offset only reorders nested expressions; the order stays fixed.
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].off < ms[j].off })
	return ms, nil
}

// mutateTargets resolves -mutate's entries to the non-test .go files
// they name, module-relative and sorted.
func mutateTargets(root, spec string) ([]string, error) {
	var files []string
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		if strings.HasSuffix(ent, ".go") {
			files = append(files, filepath.ToSlash(filepath.Clean(ent)))
			continue
		}
		names, err := filepath.Glob(filepath.Join(root, ent, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, p := range names {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			rel, _ := filepath.Rel(root, p)
			files = append(files, filepath.ToSlash(rel))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("-mutate=%q names no Go file", spec)
	}
	sort.Strings(files)
	return files, nil
}

// run runs name with args in dir under the per-mutant timeout and
// reports whether it exited 0, and what it printed.
func run(dir, name string, args ...string) (bool, string) {
	ctx, cancel := context.WithTimeout(context.Background(), mutantTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return err == nil, string(out)
}

var failRE = regexp.MustCompile(`(?m)^\s*--- FAIL: ([^\s/]+)`)

// failed names the first top-level test out reports failing, or "" (a
// panic outside a test, or a timeout).
func failed(out string) string {
	if m := failRE.FindStringSubmatch(out); m != nil {
		return m[1]
	}
	return ""
}

// byTest is the table's " by <test>" for a kill a named test made.
func byTest(name string) string {
	if name == "" {
		return ""
	}
	return " by " + name
}

func TestMutate(t *testing.T) {
	if *mutateFlag == "" {
		t.Skip("no -mutate; run: go test ./internal/lint -run TestMutate -timeout 0 -v -args -mutate=<dirs or files>")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	files, err := mutateTargets(root, *mutateFlag)
	if err != nil {
		t.Fatal(err)
	}
	only, err := regexp.Compile(*mutateRun)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	mutFile, overlay, bin := filepath.Join(tmp, "mutant.go"), filepath.Join(tmp, "overlay.json"), filepath.Join(tmp, "owner.test")
	counts := map[string]int{}
	// killers holds, per owning package, the tests that have killed a
	// mutant, the latest first. A mutant runs them before the whole
	// suite, so most kills cost one test instead of all that precede it;
	// which mutants die does not depend on the order.
	killers := map[string][]string{}
	testFlags := []string{"-test.count=1", "-test.failfast", "-test.timeout=" + mutantTimeout.String()}
	for _, file := range files {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mutants(file, src)
		if err != nil {
			t.Fatal(err)
		}
		owner := "./" + filepath.ToSlash(filepath.Dir(file))
		var oracles []string
		for _, p := range oracleSuites {
			if filepath.Clean(p) != filepath.Clean(owner) {
				oracles = append(oracles, p)
			}
		}
		for _, m := range ms {
			if !only.MatchString(m.key()) {
				continue
			}
			if err := os.WriteFile(mutFile, slices.Concat(src[:m.off], []byte(m.repl), src[m.end:]), 0o644); err != nil {
				t.Fatal(err)
			}
			spec, _ := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, file): mutFile}})
			if err := os.WriteFile(overlay, spec, 0o644); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			status := "survived"
			if ok, _ := run(root, "go", "test", "-c", "-o", bin, "-overlay="+overlay, "-vet=off", owner); !ok {
				status = "uncompilable"
			} else if by, killed := killedBy(filepath.Join(root, filepath.Dir(file)), bin, killers[owner], testFlags); killed {
				status = "killed" + byTest(by)
				if by != "" {
					killers[owner] = append([]string{by}, slices.DeleteFunc(killers[owner], func(k string) bool { return k == by })...)
				}
			} else if ok, out := run(root, "go", append([]string{"test", "-overlay=" + overlay, "-vet=off", "-count=1", "-failfast",
				"-timeout=" + mutantTimeout.String()}, oracles...)...); !ok {
				status = "killed" + byTest(failed(out)) + " (oracles)"
			}
			counts[strings.Fields(status)[0]]++
			fmt.Printf("%s\t%s\t%.0fs\n", m, status, time.Since(start).Seconds())
		}
	}
	fmt.Printf("total %d: killed %d, survived %d, uncompilable %d\n",
		counts["killed"]+counts["survived"]+counts["uncompilable"], counts["killed"], counts["survived"], counts["uncompilable"])
}

// killedBy runs the owning package's test binary in dir: the known
// killers first, then the whole suite, both stopping at the first
// failure. It reports whether a test failed and which.
func killedBy(dir, bin string, known, flags []string) (string, bool) {
	if len(known) > 0 {
		if ok, out := run(dir, bin, append(flags, "-test.run=^("+strings.Join(known, "|")+")$")...); !ok {
			return failed(out), true
		}
	}
	ok, out := run(dir, bin, flags...)
	return failed(out), !ok
}

// TestMutantsFixture pins the enumeration on a fixture file, without
// running anything: every operator fires where it should and nowhere
// else (declarations, an if with an init clause, an empty body, a
// return whose last result is not err), in source order.
func TestMutantsFixture(t *testing.T) {
	const file = "testdata/src/mutate/mutate.go"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mutants(file, src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		file + ":14:34 body→zero: Inverse {…} → { return *new(*graph) }",
		file + ":16:48 body→zero: direction {…} → { return *new(int) }",
		file + ":17:5 if→false: fwd && x.outFull[v] → false",
		file + ":17:5 if→true: fwd && x.outFull[v] → true",
		file + ":17:14 swap: outFull → inFull",
		file + ":17:22 index+1: v → v+1",
		file + ":17:22 index-1: v → v-1",
		file + ":18:10 swap: kindFwd → kindBwd",
		file + ":23:16 boundary: < → <=",
		file + ":24:6 if→false: i >= len(x.inFull) → false",
		file + ":24:6 if→true: i >= len(x.inFull) → true",
		file + ":24:8 boundary: >= → >",
		file + ":24:17 swap: inFull → outFull",
		file + ":25:4 drop: break → /* dropped */",
		file + ":28:9 swap: kindBwd → kindFwd",
		file + ":31:25 body→zero: check {…} → { return *new(error) }",
		file + ":33:35 body→zero: walk {…} → { return *new(*graph) }",
		file + ":34:5 if→false: v > 0 → false",
		file + ":34:5 if→true: v > 0 → true",
		file + ":34:7 boundary: > → >=",
		file + ":35:10 inverse: g.Inverse() → g",
		file + ":40:22 body→zero: reset {…} → {}",
		file + ":42:32 body→zero: split {…} → { return }",
		file + ":44:45 body→zero: pair {…} → { return *new(*index), *new(error) }",
		file + ":48:35 body→zero: first {…} → { return *new(int), *new(error) }",
		file + ":50:6 if→false: v < 0 → false",
		file + ":50:6 if→true: v < 0 → true",
		file + ":50:8 boundary: < → <=",
		file + ":51:4 drop: continue → /* dropped */",
		file + ":54:6 if→false: err != nil → false",
		file + ":54:6 if→true: err != nil → true",
		file + ":55:4 drop: return 0, err → /* dropped */",
		file + ":57:13 index+1: v&1 → v&1+1",
		file + ":57:13 index-1: v&1 → v&1-1",
		file + ":64:34 body→zero: over {…} → { return *new(bool) }",
		file + ":65:5 if→false: drops > limit → false",
		file + ":65:5 if→true: drops > limit → true",
		file + ":65:11 boundary: > → >=",
	}
	var got []string
	for _, m := range ms {
		got = append(got, m.String())
	}
	if !slices.Equal(got, want) {
		t.Errorf("mutants of %s:\n%s\nwant:\n%s", file, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// -mutate.run sees the key alone: an operator filter picks that
	// operator's rows and not over's, whose text says "drops".
	only := regexp.MustCompile(`index[+-]1|drop`)
	var picked []string
	for _, m := range ms {
		if only.MatchString(m.key()) {
			picked = append(picked, m.key())
		}
	}
	wantPicked := []string{
		file + ":17:22 index+1", file + ":17:22 index-1", file + ":25:4 drop",
		file + ":51:4 drop", file + ":55:4 drop", file + ":57:13 index+1", file + ":57:13 index-1",
	}
	if !slices.Equal(picked, wantPicked) {
		t.Errorf("-mutate.run=%s picks %q, want %q", only, picked, wantPicked)
	}
}
