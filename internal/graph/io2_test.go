package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func v2TestGraph(t *testing.T) *Digraph {
	t.Helper()
	return FromEdges(6, []Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 0}, {U: 5, V: 5},
	})
}

func TestBinaryV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Digraph
	}{
		{"small", v2TestGraph(t)},
		{"no-edges", FromEdges(4, nil)},
		{"single-vertex", FromEdges(1, []Edge{{U: 0, V: 0}})},
		{"random", fromEdgesSort(200, randomTestEdges(200, 1500, 42))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinary2(&buf, tc.g); err != nil {
				t.Fatalf("WriteBinary2: %v", err)
			}
			// The file is exactly the canonical layout size, and every
			// section starts on a page boundary.
			h := v2Layout(uint64(tc.g.NumVertices()), uint64(tc.g.NumEdges()))
			if got := uint64(buf.Len()); got != h.fileSize() {
				t.Fatalf("file size %d, want %d", got, h.fileSize())
			}
			for i, s := range h.sec {
				if s.off%v2Page != 0 {
					t.Fatalf("section %d offset %d not page aligned", i, s.off)
				}
			}
			got, err := ReadBinary2(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadBinary2: %v", err)
			}
			assertIdenticalCSR(t, tc.g, got)
			assertIdenticalCSR(t, tc.g.Inverse(), got.Inverse())
		})
	}
}

// v1File writes what the head of a retired v1 file looked like (magic,
// n, m, then raw CSR arrays) — nothing can write a whole one any more.
func v1File(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g1.bin")
	head := binary.LittleEndian.AppendUint64(nil, retiredMagic)
	head = binary.LittleEndian.AppendUint64(head, 3)
	head = binary.LittleEndian.AppendUint64(head, 2)
	if err := os.WriteFile(path, append(head, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFileRefusesV1: SaveFile writes v2, and a file in the retired
// format is answered with what to do about it, not parsed as text.
func TestLoadFileRefusesV1(t *testing.T) {
	g := v2TestGraph(t)
	v2 := filepath.Join(t.TempDir(), "g2.bin")
	if err := SaveFile(v2, g, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if magic := binary.LittleEndian.Uint64(raw); magic != binaryMagic2 {
		t.Fatalf("SaveFile wrote magic %#x, want v2", magic)
	}
	g2, err := LoadFile(v2)
	if err != nil {
		t.Fatalf("LoadFile v2: %v", err)
	}
	assertIdenticalCSR(t, g, g2)

	if _, err := LoadFile(v1File(t)); err == nil || !strings.Contains(err.Error(), "re-save this graph with drgen") {
		t.Fatalf("LoadFile v1: got %v, want the re-save refusal", err)
	}
}

func TestMapFileMatchesReadBinary2(t *testing.T) {
	g := fromEdgesSort(300, randomTestEdges(300, 2500, 7))
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	assertIdenticalCSR(t, g, m.Digraph)
	assertIdenticalCSR(t, g.Inverse(), m.Inverse())
	// The mapped view must satisfy every accessor, not just raw arrays.
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if got, want := m.OutDegree(v), g.OutDegree(v); got != want {
			t.Fatalf("OutDegree(%d) = %d, want %d", v, got, want)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapFileRejectsNonV2(t *testing.T) {
	if _, err := MapFile(v1File(t)); err == nil {
		t.Fatal("MapFile accepted a v1 file")
	}
	short := filepath.Join(t.TempDir(), "short.bin")
	if err := os.WriteFile(short, []byte("DRLGRPH2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapFile(short); err == nil {
		t.Fatal("MapFile accepted a truncated header")
	}
}

func TestReadBinary2RejectsTruncation(t *testing.T) {
	g := v2TestGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the header, at each section boundary, and inside each
	// section's payload.
	cuts := []int{0, 17, v2Page - 1, v2Page, v2Page + 9, 2 * v2Page, len(full) - v2Page, len(full) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(full) {
			continue
		}
		if _, err := ReadBinary2(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestReadBinary2RejectsCorruptHeader(t *testing.T) {
	g := v2TestGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := func(off int, val byte) []byte {
		c := append([]byte(nil), full...)
		c[off] ^= val
		return c
	}
	cases := map[string]int{
		"magic":         0,
		"version":       8,
		"n":             16,
		"m":             24,
		"section-off":   32,
		"section-size":  40,
		"header-spare":  v2CRCOff + 8, // covered by nothing: must still decode
		"checksum-byte": v2CRCOff,
	}
	for name, off := range cases {
		_, err := ReadBinary2(bytes.NewReader(corrupt(off, 0x5a)))
		if name == "header-spare" {
			// Bytes past the CRC are padding; flipping them must not
			// break the strict decode (they are outside the checksum).
			if err != nil {
				t.Errorf("flip %s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("flip %s: corrupt header accepted", name)
		}
	}
}

func TestReadBinary2RejectsCorruptSections(t *testing.T) {
	g := v2TestGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	h := v2Layout(uint64(g.NumVertices()), uint64(g.NumEdges()))
	// Out-of-range adjacency entry.
	c := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(c[h.sec[1].off:], uint32(g.NumVertices()+5))
	if _, err := ReadBinary2(bytes.NewReader(c)); err == nil {
		t.Error("out-of-range adjacency accepted")
	}
	// Non-monotone offsets.
	c = append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(c[h.sec[0].off+8:], uint64(1<<40))
	if _, err := ReadBinary2(bytes.NewReader(c)); err == nil {
		t.Error("non-monotone offsets accepted")
	}
}

func TestLoadFileShortFiles(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, content string
		wantErr       string // a substring of the error; "" loads
		vertices      int
	}{
		{"empty", "", "", 0},
		{"five-bytes", "1 2\n", "", 3}, // shorter than a magic number
		{"seven-bytes", "10 11\n", "", 12},
		{"comment-only", "# nothing here\n", "", 0},
		{"eight-byte-text", "3 4\n5 6\n", "", 7},
		{"garbage", "not a graph at all\n", "bad source vertex", 0},
		// The largest int32 ID asks for 2³¹ vertices, one more than a
		// graph can have: refused before anything is sized by it.
		{"vertex-count-overflow", "0 2147483647\n", "vertex count 2147483648 out of range", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := LoadFile(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			if g.NumVertices() != tc.vertices {
				t.Fatalf("vertices = %d, want %d", g.NumVertices(), tc.vertices)
			}
		})
	}
}

func TestLoadFileReportsSniffErrors(t *testing.T) {
	// Reading a directory fails with a real I/O error (EISDIR), which
	// must surface as a sniff failure — not get misparsed as an empty
	// text graph or a confusing parse error.
	dir := t.TempDir()
	_, err := LoadFile(dir)
	if err == nil {
		t.Fatal("expected error loading a directory")
	}
	if !strings.Contains(err.Error(), "sniffing") {
		t.Fatalf("err = %v, want a sniff error", err)
	}
}

func TestSaveFileReportsCreateError(t *testing.T) {
	err := SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "g.bin"), v2TestGraph(t), true)
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestFingerprint: one graph has one fingerprint however it reached
// memory — built from edges in any order, parsed from text, copied from
// a binary file, mapped from one — and it is the CRC of the file's own
// out-CSR bytes; one edge more, one edge moved, or one isolated vertex
// more is another fingerprint.
func TestFingerprint(t *testing.T) {
	edges := randomTestEdges(300, 2500, 7)
	g := fromEdgesSort(300, edges)
	want := g.Fingerprint()
	if want.N != 300 || want.M != g.NumEdges() {
		t.Fatalf("fingerprint %v of %v", want, g)
	}
	dir := t.TempDir()
	for _, binaryFormat := range []bool{false, true} {
		path := filepath.Join(dir, "g")
		if err := SaveFile(path, g, binaryFormat); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Fingerprint(); got != want {
			t.Errorf("loaded (binary %v): fingerprint %v, want %v", binaryFormat, got, want)
		}
	}
	m, err := MapFile(filepath.Join(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got != want {
		t.Errorf("mapped: fingerprint %v, want %v", got, want)
	}
	file, err := os.ReadFile(filepath.Join(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	h := v2Layout(300, uint64(g.NumEdges()))
	outCSR := append(append([]byte(nil), file[h.sec[0].off:][:h.sec[0].size]...), file[h.sec[1].off:][:h.sec[1].size]...)
	if crc := crc32.ChecksumIEEE(outCSR); crc != want.CRC {
		t.Errorf("CRC %08x, the file's out-CSR sections have %08x", want.CRC, crc)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	slices.Reverse(edges)
	if got := FromEdges(300, edges).Fingerprint(); got != want {
		t.Errorf("edges in reverse order: fingerprint %v, want %v", got, want)
	}
	moved := append([]Edge(nil), edges...)
	moved[0].V = (moved[0].V + 1) % 300
	for name, other := range map[string]*Digraph{
		"an isolated vertex more": FromEdges(301, edges),
		"an edge fewer":           FromEdges(300, edges[1:]),
		"an edge moved":           FromEdges(300, moved),
		"no edges":                FromEdges(300, nil),
	} {
		if got := other.Fingerprint(); got == want {
			t.Errorf("%s: fingerprint %v again", name, got)
		}
	}
	if a, b := FromEdges(0, nil).Fingerprint(), FromEdges(1, nil).Fingerprint(); a == b {
		t.Errorf("the empty graph and the one-vertex graph share fingerprint %v", a)
	}
}
