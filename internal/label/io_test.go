package label

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// The reference encoder: the file grammar of DESIGN.md §16 written
// down once more, one goroutine, one append per value, no buffer
// reuse. WriteTo must produce these bytes whatever GOMAXPROCS is.

func refBlock(out []byte, entries int, payload []byte) []byte {
	out = binary.AppendUvarint(out, uint64(entries))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

func refLabelBlock(out []byte, lists [][]order.Rank) []byte {
	var payload []byte
	entries := 0
	for _, list := range lists {
		payload = binary.AppendUvarint(payload, uint64(len(list)))
		prev := int64(-1)
		for _, r := range list {
			payload = binary.AppendUvarint(payload, uint64(int64(r)-prev-1))
			prev = int64(r)
		}
		entries += len(list)
	}
	return refBlock(out, entries, payload)
}

func writeToReference(x *Index) []byte {
	le := binary.LittleEndian
	out := le.AppendUint64(nil, indexMagic)
	out = le.AppendUint32(le.AppendUint32(out, uint32(x.n)), 0) // no optional part
	out = le.AppendUint64(le.AppendUint64(out, uint64(len(x.inLab))), uint64(len(x.outLab)))
	ranks := x.ord.Ranks()
	for v0 := 0; v0 < x.n; v0 += 4096 {
		var payload []byte
		part := ranks[v0:min(v0+4096, x.n)]
		for _, r := range part {
			payload = binary.AppendUvarint(payload, uint64(r))
		}
		out = refBlock(out, len(part), payload)
	}
	for _, labels := range []func(graph.VertexID) []order.Rank{x.InLabels, x.OutLabels} {
		for v0 := 0; v0 < x.n; v0 += 4096 {
			var lists [][]order.Rank
			for v := v0; v < min(v0+4096, x.n); v++ {
				lists = append(lists, labels(graph.VertexID(v)))
			}
			out = refLabelBlock(out, lists)
		}
	}
	return out
}

// sparseIndex is an index of n vertices under a shuffled order whose
// lists hold 0 to maxLen random ranks: many blocks for little memory.
func sparseIndex(t testing.TB, n, maxLen int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]order.Rank, n)
	for i := range ranks {
		ranks[i] = order.Rank(i)
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for v := 0; v < n; v++ {
		for _, lists := range [][][]order.Rank{in, out} {
			for k := rng.Intn(maxLen + 1); k > 0; k-- {
				lists[v] = append(lists[v], order.Rank(rng.Intn(n)))
			}
			sortRanks(lists[v])
			lists[v] = slices.Compact(lists[v])
		}
	}
	return FromLists(order.FromRanks(ranks), in, out)
}

// ioFixtures covers the shapes the block codec has to get right: no
// block, one short block, a vertex count that is not a multiple of the
// block size, lists long enough for two-byte lengths, and sections
// with no entries at all.
func ioFixtures(t testing.TB) map[string]*Index {
	small, _ := buildSmallIndex(t)
	return map[string]*Index{
		"small":        small,
		"empty":        randomIndex(t, 0, 1),
		"one-vertex":   sparseIndex(t, 1, 1, 3),
		"dense":        randomIndex(t, 300, 7),
		"ragged":       sparseIndex(t, 2*blockValues+123, 6, 5),
		"block-exact":  sparseIndex(t, blockValues, 3, 6),
		"no-entries":   sparseIndex(t, blockValues+17, 0, 8),
		"long-lengths": sparseIndex(t, 700, 400, 9),
	}
}

func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func mustWrite(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestWriteToMatchesReferenceEncoder is the golden test of the block
// encoder: the reference encoder's bytes at every worker count, and an
// Equal index back from them.
func TestWriteToMatchesReferenceEncoder(t *testing.T) {
	for name, x := range ioFixtures(t) {
		want := writeToReference(x)
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			got := mustWrite(t, x)
			if !bytes.Equal(want, got) {
				t.Errorf("%s at GOMAXPROCS %d: %d bytes written differ from the reference encoder's %d", name, procs, len(got), len(want))
			}
			y, err := Read(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !x.Equal(y) {
				t.Errorf("%s at GOMAXPROCS %d: round trip changed the index: %s", name, procs, x.Diff(y))
			}
			for v := 0; v < x.n; v++ {
				if x.ord.RankOf(graph.VertexID(v)) != y.ord.RankOf(graph.VertexID(v)) {
					t.Fatalf("%s: ordering lost in round trip at vertex %d", name, v)
				}
			}
		}
	}
}

// TestLabelBlockWideGaps: gaps that need four and five bytes (an index
// of two million vertices or more) take the decoder's slow path; a
// block is enough to reach it.
func TestLabelBlockWideGaps(t *testing.T) {
	const n = 1 << 31
	lists := [][]order.Rank{
		{0, 1<<21 + 1, 1<<21 + 2},     // four-byte gap
		{},                            // an empty list between them
		{5, 1<<28 + 6},                // five-byte gap
		{1<<31 - 1},                   // the last rank there is
		{1 << 14, 1 << 15, 1<<31 - 2}, // three-byte first, five-byte later
	}
	off := []int64{0}
	var lab []order.Rank
	for _, l := range lists {
		lab = append(lab, l...)
		off = append(off, int64(len(lab)))
	}
	block, err := appendLabelBlock(nil, func(v graph.VertexID) []order.Rank { return lists[v] }, 0, len(lists), n)
	if err != nil {
		t.Fatal(err)
	}
	if want := refLabelBlock(nil, lists); !bytes.Equal(block, want) {
		t.Fatalf("block % x, reference % x", block, want)
	}
	_, k1 := binary.Uvarint(block)
	_, k2 := binary.Uvarint(block[k1:])
	const base = 1000
	gotOff := make([]int64, len(off))
	gotLab := make([]order.Rank, len(lab))
	if err := decodeLabelBlock(block[k1+k2:], gotOff, gotLab, base, n); err != nil {
		t.Fatal(err)
	}
	for i := range lab {
		if gotLab[i] != lab[i] {
			t.Fatalf("entry %d decoded as %d, want %d", i, gotLab[i], lab[i])
		}
	}
	for i := 1; i < len(off); i++ {
		if gotOff[i] != base+off[i] {
			t.Fatalf("offset %d decoded as %d, want %d", i, gotOff[i], base+off[i])
		}
	}
	// The same bytes against a vertex count one too small.
	if err := decodeLabelBlock(block[k1+k2:], gotOff, gotLab, base, n-1); err == nil {
		t.Error("rank n-1 accepted in an index of n-1 vertices")
	}
}

// TestWriteToRejectsUnsortedList: the Builder tolerates a repeated
// Add, the gap coding cannot express one.
func TestWriteToRejectsUnsortedList(t *testing.T) {
	b := NewBuilder(order.FromRanks([]order.Rank{0, 1, 2}))
	b.AddIn(1, 2)
	b.AddIn(1, 2)
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err == nil || !strings.Contains(err.Error(), "strictly ascending") {
		t.Fatalf("err = %v, want the list refused", err)
	}
}

// failAfter accepts limit bytes and then fails every write.
type failAfter struct{ limit, n int }

var errSink = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		k := w.limit - w.n
		w.n = w.limit
		return k, errSink
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteToReportsWriterError fails the sink in the header, in the
// permutation, and in the first and a late label block: WriteTo must
// return the sink's error and the byte count the sink took, with its
// encode workers gone (the race detector and -count would show a
// straggler writing into a recycled buffer).
func TestWriteToReportsWriterError(t *testing.T) {
	x := sparseIndex(t, 6*blockValues, 6, 11)
	size := len(mustWrite(t, x))
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for _, limit := range []int{0, 20, 40, size / 4, size / 2, size - 1} {
			w := &failAfter{limit: limit}
			n, err := x.WriteTo(w)
			if !errors.Is(err, errSink) {
				t.Fatalf("limit %d: err = %v, want the writer's error", limit, err)
			}
			if n != int64(w.n) {
				t.Fatalf("limit %d: WriteTo reported %d bytes, the writer took %d", limit, n, w.n)
			}
		}
	}
}

// blockStarts returns the file offset of every block of an index file
// of n vertices, and the file's length last.
func blockStarts(t testing.TB, file []byte, n int) []int {
	t.Helper()
	pos := 32
	var starts []int
	for i := 0; i < 3*((n+blockValues-1)/blockValues); i++ {
		starts = append(starts, pos)
		_, k1 := binary.Uvarint(file[pos:])
		size, k2 := binary.Uvarint(file[pos+k1:])
		pos += k1 + k2 + int(size)
	}
	if pos != len(file) {
		t.Fatalf("blocks end at %d of a %d-byte file", pos, len(file))
	}
	return append(starts, pos)
}

// TestReadTruncatedMultiChunk: an index file has no valid proper
// prefix. Every prefix of a small file, and of a many-block file every
// cut at a block boundary, inside a block header, and inside a
// payload — which lands mid-varint as often as not — must fail.
func TestReadTruncatedMultiChunk(t *testing.T) {
	small, _ := buildSmallIndex(t)
	good := mustWrite(t, small)
	for cut := 0; cut < len(good); cut++ {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("small: truncation at %d of %d bytes accepted", cut, len(good))
		}
	}
	x := sparseIndex(t, 3*blockValues+9, 5, 13)
	good = mustWrite(t, x)
	starts := blockStarts(t, good, x.n)
	for i, at := range starts[:len(starts)-1] {
		next := starts[i+1]
		for _, cut := range []int{at, at + 1, at + 2, at + 3, (at + next) / 2, (at+next)/2 + 1, next - 1} {
			if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncation at %d (block %d spans %d–%d) accepted", cut, i, at, next)
			}
		}
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadRejectsCorruptInput damages one field at a time. Each must
// fail for its own reason, and none may allocate more than a small
// multiple of the bytes that back it, whatever count it claims.
func TestReadRejectsCorruptInput(t *testing.T) {
	x := sparseIndex(t, 2*blockValues+50, 5, 17)
	good := mustWrite(t, x)
	starts := blockStarts(t, good, x.n)
	perSection := len(starts) / 3
	firstIn, lastOut := starts[perSection], starts[3*perSection-1]
	_, entriesLen := binary.Uvarint(good[firstIn:])
	_, lastEntriesLen := binary.Uvarint(good[lastOut:])
	lastSize, _ := binary.Uvarint(good[lastOut+lastEntriesLen:])
	inEntries := uint64(x.inOff[blockValues])

	// The three-vertex index puts single bytes at known places: the
	// permutation block at 32 (header 3 3, ranks at 34–36) and the
	// in-label block at 37 (header 4 7, then 1 0 | 2 0 0 | 1 0).
	small, _ := buildSmallIndex(t)
	goodSmall := mustWrite(t, small)

	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// patch replaces the uvarint at file[at:] with repl.
	patch := func(file []byte, at int, repl []byte) []byte {
		_, k := binary.Uvarint(file[at:])
		return append(append(append([]byte(nil), file[:at]...), repl...), file[at+k:]...)
	}
	// The header is magic(8) n(4) parts(4) nIn(8) nOut(8): word 1 is n
	// and the parts word together, n in its low half.
	header := func(word int, v uint64) []byte {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[8*word:], v)
		return bad
	}

	for _, c := range []struct {
		name string
		file []byte
		want string // part of the error
	}{
		{"garbage", []byte("garbage"), "header"},
		{"bad magic", header(0, 0x1122334455667788), "bad magic"},
		{"n beyond plausible", header(1, 1<<31+1), "implausible"},
		{"a fourth optional part", header(1, uint64(x.n)|8<<32), "implausible"},
		{"a label budget and no graph", header(1, uint64(x.n)|uint64(partBudget)<<32), "implausible"},
		{"an optional part, to Read", mustWriteWith(t, x, Extras{Graph: &graph.Fingerprint{N: int32(x.n)}}), "reachlab.ReadIndex"},
		{"n inflated", header(1, 1<<31), "values where 4096 belong"},
		{"n deflated", header(1, uint64(x.n-1)), "not below"},
		{"nIn inflated", header(2, 1<<40), "where the header counts"},
		{"nIn deflated", header(2, uint64(len(x.inLab)-1)), "do not fit"},
		{"nOut inflated", header(3, uint64(len(x.outLab)+1)), "where the header counts"},
		{"duplicate rank", patch(goodSmall, 35, goodSmall[34:35]), "corrupt rank"},
		{"rank n in the permutation", patch(goodSmall, 35, []byte{3}), "not below 3"},
		{"permutation entry count", patch(good, starts[0], []byte{7}), "7 values where 4096 belong"},
		{"block entry count huge", patch(good, firstIn, uv(1<<39)), "entries declared in"},
		{"block entry count +1", patch(good, firstIn, uv(inEntries+1)), "the header's count"},
		{"block entry count -1", patch(good, firstIn, uv(inEntries-1)), "where the header counts"},
		{"block and header entry count +1", patch(header(2, uint64(len(x.inLab)+1)), firstIn, uv(inEntries+1)), "does not match its header"},
		{"block and header entry count -1", patch(header(2, uint64(len(x.inLab)-1)), firstIn, uv(inEntries-1)), "beyond the block's entry count"},
		{"block byte length huge", patch(good, firstIn+entriesLen, uv(1<<39)), "unexpected EOF"},
		{"block byte length -1", patch(good, lastOut+lastEntriesLen, uv(lastSize-1)), "unreadable"},
		{"byte after the lists", append(patch(good, lastOut+lastEntriesLen, uv(lastSize+1)), 0), "does not match its header"},
		{"list length beyond the block", patch(goodSmall, 37+2, []byte{5}), "beyond the block's entry count"},
		{"gap to rank n", patch(goodSmall, 37+2+4, []byte{2}), "rank out of range"},
		{"gap wider than 32 bits", patch(patch(goodSmall, 37+2+4, uv(1<<32)), 37+1, []byte{7 + 4}), "rank unreadable"},
	} {
		var err error
		used := allocatedBy(func() { _, err = Read(bytes.NewReader(c.file)) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", c.name, err, c.want)
		}
		if budget := uint64(32*len(c.file) + 1<<20); used > budget {
			t.Errorf("%s: allocated %d bytes reading a %d-byte file", c.name, used, len(c.file))
		}
	}
	for _, file := range [][]byte{good, goodSmall} {
		if _, err := Read(bytes.NewReader(file)); err != nil {
			t.Fatalf("the undamaged file: %v", err)
		}
	}
}

// TestReadRefusesRetiredFormat: a file of any format before this one —
// the label file without optional parts, the fixed-width one before it,
// and the root package's envelope around either — says what to do
// about it.
func TestReadRefusesRetiredFormat(t *testing.T) {
	for _, magic := range []string{"DRLINDX2", "RLIXNVE2", "DRLINDEX", "RLIXNVE1"} {
		old := make([]byte, 48)
		for i := range magic { // the magics read as text in a big-endian word
			old[7-i] = magic[i]
		}
		_, err := Read(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "rebuild the index") {
			t.Errorf("%s: err = %v, want a rebuild message", magic, err)
		}
	}
}
