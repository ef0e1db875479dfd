package reachlab

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docSkipDirs are the trees TestDocIndex does not read: the benchmark
// harness (a module of its own), build output and fixtures.
var docSkipDirs = map[string]bool{
	"benchmark": true, ".git": true, ".bench_build": true, "bin": true, "testdata": true,
}

// docRootDocs are the top-level documents TestDocIndex reads. The other
// top-level Markdown files are records of what was, or the paper's
// abstract: their section numbers are those of the DESIGN.md they were
// written against.
var docRootDocs = map[string]bool{
	"DESIGN.md": true, "EXPERIMENTS.md": true, "PAPERS.md": true, "README.md": true,
	"ROADMAP.md": true, "SNIPPETS.md": true,
}

var (
	designHeadingRE = regexp.MustCompile(`(?m)^## (.*)$`)
	numberedRE      = regexp.MustCompile(`^(\d+)\. (.*)$`)
	// A line's comment marker, so a reference that wraps inside a
	// comment reads as if it did not.
	commentLeadRE = regexp.MustCompile(`(?m)^[ \t]*(//+|#+)?[ \t]*`)
	designNumRE   = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	designTitleRE = regexp.MustCompile(`DESIGN(?:\.md)?\s+"([^"]+)"`)
	bareSectionRE = regexp.MustCompile(`§(\d+)`)
	testNameRE    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	testDeclRE    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestDocIndex keeps the documents honest about the tree: every section
// reference into DESIGN.md names a section that exists, DESIGN's
// sections are numbered without a gap, its layer map and README's tool
// table list every package and binary, and every test either document
// cites exists.
func TestDocIndex(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	titles := map[int]string{}
	t.Run("numbering", func(t *testing.T) {
		for i, m := range designHeadingRE.FindAllStringSubmatch(design, -1) {
			nm := numberedRE.FindStringSubmatch(m[1])
			if nm == nil {
				t.Errorf("DESIGN.md heading %q is not numbered", m[1])
				continue
			}
			n, _ := strconv.Atoi(nm[1])
			if n != i+1 {
				t.Errorf("DESIGN.md heading %q is §%d; want §%d", m[1], n, i+1)
			}
			titles[n] = nm[2]
		}
	})

	var files []string
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && docSkipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".md") && !strings.Contains(path, "/") && !docRootDocs[path]:
		case strings.HasSuffix(path, "_test.go"):
			files = append(files, path)
			for _, m := range testDeclRE.FindAllStringSubmatch(readDoc(t, path), -1) {
				tests[m[1]] = true
			}
		case d.Name() == "Makefile", strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".md"),
			strings.HasSuffix(path, ".sh"), strings.HasSuffix(path, ".yml"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("references", func(t *testing.T) {
		for _, path := range files {
			text := commentLeadRE.ReplaceAllString(readDoc(t, path), "")
			at := func(off int) string { return path + ":" + strconv.Itoa(1+strings.Count(text[:off], "\n")) }
			for _, m := range designNumRE.FindAllStringSubmatchIndex(text, -1) {
				n, _ := strconv.Atoi(text[m[2]:m[3]])
				if _, ok := titles[n]; !ok {
					t.Errorf("%s: DESIGN.md §%d does not exist", at(m[0]), n)
				}
			}
			for _, m := range designTitleRE.FindAllStringSubmatchIndex(text, -1) {
				if title := text[m[2]:m[3]]; !hasTitle(titles, title) {
					t.Errorf("%s: no DESIGN.md section is titled %q", at(m[0]), title)
				}
			}
			if path != "DESIGN.md" {
				continue
			}
			for _, m := range bareSectionRE.FindAllStringSubmatchIndex(text, -1) {
				n, _ := strconv.Atoi(text[m[2]:m[3]])
				if _, ok := titles[n]; !ok {
					t.Errorf("%s: §%d does not exist", at(m[0]), n)
				}
			}
		}
	})

	t.Run("layer map", func(t *testing.T) {
		layerMap := firstTable(section(design, "Layer map"))
		if layerMap == "" {
			t.Fatal(`DESIGN.md has no "Layer map" section with a table`)
		}
		for _, dir := range subdirs(t, "internal", "cmd") {
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(dir) + `\b`).MatchString(layerMap) {
				t.Errorf("DESIGN.md's layer map has no row naming %s", dir)
			}
		}
	})

	t.Run("tools table", func(t *testing.T) {
		readme := readDoc(t, "README.md")
		i := strings.Index(readme, "## Command-line tools")
		if i < 0 {
			t.Fatal(`README.md has no "Command-line tools" section`)
		}
		tools := map[string]bool{}
		for _, row := range strings.Split(firstTable(readme[i:]), "\n") {
			if cells := strings.Split(row, "|"); len(cells) > 2 {
				tools[strings.Trim(strings.TrimSpace(cells[1]), "`")] = true
			}
		}
		for _, dir := range subdirs(t, "cmd") {
			if !tools[filepath.Base(dir)] {
				t.Errorf("README.md's tool table has no row for %s", dir)
			}
		}
	})

	t.Run("test names", func(t *testing.T) {
		for _, doc := range []string{"DESIGN.md", "README.md"} {
			seen := map[string]bool{}
			for _, name := range testNameRE.FindAllString(readDoc(t, doc), -1) {
				if !tests[name] && !seen[name] {
					t.Errorf("%s cites %s, which no _test.go declares", doc, name)
				}
				seen[name] = true
			}
		}
	})
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func hasTitle(titles map[int]string, title string) bool {
	for _, h := range titles {
		if strings.HasPrefix(h, title) {
			return true
		}
	}
	return false
}

// section returns the body of the "## N. title" section of a DESIGN.md
// text, or "" if there is none.
func section(design, title string) string {
	loc := regexp.MustCompile(`(?m)^## \d+\. ` + regexp.QuoteMeta(title) + `.*$`).FindStringIndex(design)
	if loc == nil {
		return ""
	}
	body := design[loc[1]:]
	if next := strings.Index(body, "\n## "); next >= 0 {
		body = body[:next]
	}
	return body
}

// firstTable returns the first markdown table in text, rows joined by
// newlines.
func firstTable(text string) string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		} else if len(rows) > 0 {
			break
		}
	}
	return strings.Join(rows, "\n")
}

// subdirs lists the directories directly under each root, as root/name.
func subdirs(t *testing.T, roots ...string) []string {
	t.Helper()
	var dirs []string
	for _, root := range roots {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, root+"/"+e.Name())
			}
		}
	}
	sort.Strings(dirs)
	return dirs
}
