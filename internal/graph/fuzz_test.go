package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Fuzzers for the two on-disk formats and LoadFile's choice between
// them: whatever the bytes, the readers must either fail cleanly or
// produce a structurally valid graph; valid graphs must round-trip.

// edgeListSeeds are FuzzReadEdgeList's seeds; TestInverse transposes
// the graphs of those that parse.
var edgeListSeeds = []string{
	"0 1\n1 2\n",
	"# comment\n% konect\n3 4\n",
	"",
	"a b\n",
	"-1 5\n",
	"1 2 3 extra\n",
}

func FuzzReadEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		// Structural sanity plus round trip.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, back)
		}
	})
}

func FuzzReadBinary2(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary2(&seed, PaperExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// A truncated header page, a bare magic, and the valid file with a
	// flipped section-table byte give the mutator structured starting
	// points for the strict-decode paths.
	f.Add(seed.Bytes()[:v2Page-1])
	f.Add([]byte("DRLGRPH2"))
	flipped := append([]byte(nil), seed.Bytes()...)
	flipped[40] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary2(bytes.NewReader(input))
		if err != nil {
			return
		}
		var inSum, outSum int64
		inv := g.Inverse()
		for v := VertexID(0); int(v) < g.NumVertices(); v++ {
			inSum += int64(inv.OutDegree(v))
			outSum += int64(g.OutDegree(v))
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			t.Fatalf("inconsistent accepted graph: in=%d out=%d m=%d", inSum, outSum, g.NumEdges())
		}
		// An accepted graph must survive a v2 round trip structurally
		// (the input may carry nonzero padding bytes the strict decode
		// ignores, so byte equality is only promised for writer output).
		var buf bytes.Buffer
		if err := WriteBinary2(&buf, g); err != nil {
			t.Fatalf("re-writing accepted graph: %v", err)
		}
		back, err := ReadBinary2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, back)
		}
	})
}

// FuzzReadBinary fuzzes LoadFile's dispatch on the first eight bytes:
// whatever they are it fails cleanly or yields a consistent graph, and
// the retired v1 magic is refused however the file continues.
func FuzzReadBinary(f *testing.F) {
	v1 := binary.LittleEndian.AppendUint64(nil, retiredMagic)
	f.Add(binary.LittleEndian.AppendUint64(v1, 9)) // the head of a v1 header: magic, n
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, input []byte) {
		path := filepath.Join(dir, "g")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadFile(path)
		if bytes.HasPrefix(input, v1) && (err == nil || !strings.Contains(err.Error(), "re-save")) {
			t.Fatalf("v1 magic not refused with the re-save hint: %v", err)
		}
		if err != nil {
			return
		}
		// Any accepted graph must have consistent degrees.
		var inSum, outSum int64
		inv := g.Inverse()
		for v := VertexID(0); int(v) < g.NumVertices(); v++ {
			inSum += int64(inv.OutDegree(v))
			outSum += int64(g.OutDegree(v))
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			t.Fatalf("inconsistent accepted graph: in=%d out=%d m=%d", inSum, outSum, g.NumEdges())
		}
	})
}
