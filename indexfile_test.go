package reachlab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// sections returns how an index file's bytes divide.
func sections(t *testing.T, file []byte) label.Sections {
	t.Helper()
	s, err := label.ReadSections(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if total := s.Head + s.Perm + s.In + s.Out; total != int64(len(file)) {
		t.Fatalf("the sections of a %d-byte file add up to %d", len(file), total)
	}
	return s
}

// perListLabels returns the sizes of x's two labels sections in the
// format that coded every list alone ("DRLINDX4"): per
// 4,096 vertices a block of uvarint(entries) uvarint(bytes) and a
// payload of its model — kLen, and a gap parameter per bit length a
// rank below n has, each ⌊log₂(x/count)⌋ for x = Σ − ⌊Σ/32⌋ − ⌊Σ/128⌋ of
// the values it codes — and the lists, rice(kLen, len′<<1 | selfLast)
// and len′ gaps rice(kGap[bitlen(next)], r − next) each, zero-padded to
// a byte.
func perListLabels(x *label.Index) (in, out int) {
	bitLen := func(v int) int { return bits.Len(uint(v)) }
	param := func(sum, count int) int {
		if count == 0 || sum-sum/32-sum/128 < count {
			return 0
		}
		return bitLen((sum-sum/32-sum/128)/count) - 1
	}
	rice := func(k, v int) int {
		if v>>k < 20 {
			return v>>k + 1 + k
		}
		return 52
	}
	uvarint := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	n := x.NumVertices()
	sizes := [2]int{}
	for dir, lists := range []func(graph.VertexID) []order.Rank{x.InLabels, x.OutLabels} {
		for v0 := 0; v0 < n; v0 += 4096 {
			type code struct{ slot, v int } // slot 0 the header, 1+b a gap from a rank of b bits
			var codes []code
			entries := 0
			for v := v0; v < min(v0+4096, n); v++ {
				list := lists(graph.VertexID(v))
				entries += len(list)
				self := 0
				if k := len(list) - 1; k >= 0 && list[k] == x.Ordering().RankOf(graph.VertexID(v)) {
					list, self = list[:k], 1
				}
				codes = append(codes, code{0, len(list)<<1 | self})
				next := 0
				for _, r := range list {
					codes = append(codes, code{1 + bitLen(next), int(r) - next})
					next = int(r) + 1
				}
			}
			var sum, count [34]int
			for _, c := range codes {
				sum[c.slot] += c.v
				count[c.slot]++
			}
			bits := 0
			for _, c := range codes {
				bits += rice(param(sum[c.slot], count[c.slot]), c.v)
			}
			size := 2 + bitLen(max(n, 1)-1) + (bits+7)/8
			sizes[dir] += uvarint(entries) + uvarint(size) + size
		}
	}
	return sizes[0], sizes[1]
}

// byteAlignedLabels returns the size of x's two labels sections in the
// byte-aligned format ("DRLINDX3"): per 4,096 vertices a block of
// uvarint(entries) uvarint(bytes) and, per list, uvarint(len) and one
// uvarint per gap r − prev − 1.
func byteAlignedLabels(x *label.Index) int {
	uvarint := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	total := 0
	for _, lists := range []func(graph.VertexID) []order.Rank{x.InLabels, x.OutLabels} {
		for v0 := 0; v0 < x.NumVertices(); v0 += 4096 {
			entries, size := 0, 0
			for v := v0; v < min(v0+4096, x.NumVertices()); v++ {
				list := lists(graph.VertexID(v))
				entries += len(list)
				size += uvarint(len(list))
				prev := -1
				for _, r := range list {
					size += uvarint(int(r) - prev - 1)
					prev = int(r)
				}
			}
			total += uvarint(entries) + uvarint(size) + size
		}
	}
	return total
}

// TestIndexFileBeatsByteAligned: the list coding's model is fitted to
// each file, not tuned to the benchmark's graph — over every generator
// family, capped or not, the labels sections are
// smaller than the byte-aligned ones of three formats ago, and each is
// no larger than coding every list alone, as the format before those
// that inherit did: a block where inheriting does not pay does not
// inherit. The file
// reads back as the index that was built, which writes the same bytes
// again and answers as BFS does.
func TestIndexFileBeatsByteAligned(t *testing.T) {
	const n = 3000
	for _, family := range gen.Families() {
		g, err := GenerateGraph(string(family), n, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {LabelBudget: 8}} {
			built, err := Build(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", family, opts, err)
			}
			var file bytes.Buffer
			if _, err := built.WriteTo(&file); err != nil {
				t.Fatalf("%s %+v: %v", family, opts, err)
			}
			sec := sections(t, file.Bytes())
			if now, before := int(sec.In+sec.Out), byteAlignedLabels(built.idx); now >= before {
				t.Errorf("%s %+v: labels sections of %d bytes, %d byte-aligned", family, opts, now, before)
			}
			if aloneIn, aloneOut := perListLabels(built.idx); int(sec.In) > aloneIn || int(sec.Out) > aloneOut {
				t.Errorf("%s %+v: labels sections of %d and %d bytes, %d and %d with every list coded alone", family, opts, sec.In, sec.Out, aloneIn, aloneOut)
			}
			loaded, err := readIndex(bytes.NewReader(file.Bytes()), g)
			if err != nil {
				t.Fatalf("%s %+v: %v", family, opts, err)
			}
			if !built.idx.Equal(loaded.idx) {
				t.Fatalf("%s %+v: the file changed the index: %s", family, opts, built.idx.Diff(loaded.idx))
			}
			var again bytes.Buffer
			if _, err := loaded.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
				t.Fatalf("%s %+v: the index read back writes other bytes (%v)", family, opts, err)
			}
			rng := rand.New(rand.NewSource(9))
			for q := 0; q < 400; q++ {
				s, u := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if q%2 == 1 { // a pair a walk connects, so half of them are reachable
					u = s
					for hop := rng.Intn(6); hop > 0 && len(g.d.OutNeighbors(u)) > 0; hop-- {
						u = g.d.OutNeighbors(u)[rng.Intn(len(g.d.OutNeighbors(u)))]
					}
				}
				if got, want := loaded.Reachable(s, u), g.ReachableBFS(s, u); got != want {
					t.Fatalf("%s %+v: q(%d,%d) = %v from the file, BFS says %v", family, opts, s, u, got, want)
				}
			}
		}
	}
}

// TestIndexFileSizeGolden pins the size of one seeded build's file,
// section by section, so that an edit to the list coding or its model
// moves a number here (as TestWireVolumeGolden does for the wire) and
// says where. Entries pin the labeler's half; a moved size with the same
// entries is the codec's doing. The file's sha256 pins every byte, so an
// edit meant to leave the format alone must leave it alone. The index
// read back from the file writes it again, byte for byte.
func TestIndexFileSizeGolden(t *testing.T) {
	g, err := GenerateGraph("citation", 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := idx.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	const entries = 594803
	want := label.Sections{Head: 48, Perm: 15765, In: 14734, Out: 182094}
	const sum = "f07263eb278485b83979e5bd83c9be07c2b8e131aeda0d72febd291be7bde364"
	if got := idx.Stats().Entries; got != entries {
		t.Errorf("%d label entries, want %d", got, entries)
	}
	if got := sections(t, file.Bytes()); got != want {
		in, out := perListLabels(idx.idx)
		t.Errorf("index file sections %+v (%d bytes; labels %d and %d with every list alone, %d byte-aligned), want %+v",
			got, file.Len(), in, out, byteAlignedLabels(idx.idx), want)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(file.Bytes())); got != sum {
		t.Errorf("index file sha256 %s, want %s", got, sum)
	}
	back, err := ReadIndex(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Errorf("the index read back writes other bytes (%v)", err)
	}
}

// TestIndexResidentBytesGolden pins what the label layout holds in
// memory for one seeded build of 100,000 vertices — enough that both of
// its tiers hold ranks — so that an edit to the layout moves a number
// here. Entries pin the labeler's half: 2 bytes per first-tier rank, 4
// per second-tier one, and 8 of offsets per vertex and direction (plus
// one per block) make the rest.
func TestIndexResidentBytesGolden(t *testing.T) {
	g, err := GenerateGraph("citation", 100_000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), g, Options{Method: MethodDRLShared})
	if err != nil {
		t.Fatal(err)
	}
	const entries, resident = 3366027, 8470114
	st := idx.Stats()
	if st.Entries != entries || st.Resident != resident {
		t.Errorf("%d label entries in %d resident bytes, want %d in %d", st.Entries, st.Resident, entries, resident)
	}
}
