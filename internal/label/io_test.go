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
// down once more, one goroutine, one append per value and per bit, no
// buffer reuse, its own model fit. WriteTo must produce these bytes
// whatever GOMAXPROCS is.

// blockPayload takes a block's header off: its entry count, its payload.
func blockPayload(block []byte) (entries uint64, payload []byte) {
	entries, k1 := binary.Uvarint(block)
	_, k2 := binary.Uvarint(block[k1:])
	return entries, block[k1+k2:]
}

func refBlock(out []byte, entries int, payload []byte) []byte {
	out = binary.AppendUvarint(out, uint64(entries))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// refBits is a bit stream, a bool a bit.
type refBits []bool

func (b *refBits) uint(v uint64, width int) {
	for i := 0; i < width; i++ {
		*b = append(*b, v>>i&1 != 0)
	}
}

// rice appends v under parameter k: v>>k ones, a zero, v's low k bits;
// from 20 ones on, those and v in 32 bits.
func (b *refBits) rice(k int, v uint64) {
	q := min(v>>k, 20)
	for i := uint64(0); i < q; i++ {
		*b = append(*b, true)
	}
	if q == 20 {
		b.uint(v, 32)
		return
	}
	*b = append(*b, false)
	b.uint(v, k)
}

// bytes packs the stream, first bit lowest, zero bits to the last byte's end.
func (b refBits) bytes() []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, bit := range b {
		if bit {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// refSlot is the model slot of a gap that starts at next: next's bit length.
func refSlot(next int64) int {
	slot := 0
	for ; next > 0; next >>= 1 {
		slot++
	}
	return slot
}

// refValues returns what one list is written as: its header, and per
// gap the slot it is coded under and its value. A last entry that is
// the vertex's own rank is the header's low bit and no gap.
func refValues(list []order.Rank, self order.Rank) (hdr uint64, slots []int, gaps []uint64) {
	if len(list) > 0 && list[len(list)-1] == self {
		list, hdr = list[:len(list)-1], 1
	}
	hdr |= uint64(len(list)) << 1
	next := int64(0)
	for _, r := range list {
		slots, gaps = append(slots, refSlot(next)), append(gaps, uint64(int64(r)-next))
		next = int64(r) + 1
	}
	return hdr, slots, gaps
}

// refModel is a block's parameters: hdr for the list headers, gap[b]
// for the gaps that start at a rank of b bits.
type refModel struct {
	hdr int
	gap [33]int
}

// refParam is the parameter for count values that add up to sum:
// ⌊log₂(x/count)⌋ for x = sum − ⌊sum/32⌋ − ⌊sum/128⌋, 0 below 1.
func refParam(sum, count uint64) (k int) {
	if count == 0 {
		return 0
	}
	for mean := (sum - sum/32 - sum/128) / count; mean > 1; mean /= 2 {
		k++
	}
	return k
}

// refFit fits a block's model to its lists.
func refFit(lists [][]order.Rank, ranks []order.Rank) (m refModel) {
	var hdrSum uint64
	var sum, count [33]uint64
	for v, list := range lists {
		hdr, slots, gaps := refValues(list, ranks[v])
		hdrSum += hdr
		for i, slot := range slots {
			sum[slot] += gaps[i]
			count[slot]++
		}
	}
	m.hdr = refParam(hdrSum, uint64(len(lists)))
	for slot := range m.gap {
		m.gap[slot] = refParam(sum[slot], count[slot])
	}
	return m
}

// refLabelBlock is the block of lists, the label lists of vertices of
// these ranks among n: the model — the header parameter and one per
// slot a rank below n can start a gap in, a byte each — then the bits.
func refLabelBlock(out []byte, lists [][]order.Rank, ranks []order.Rank, n int) []byte {
	m := refFit(lists, ranks)
	payload := []byte{byte(m.hdr)}
	for slot := 0; slot <= refSlot(int64(n-1)); slot++ {
		payload = append(payload, byte(m.gap[slot]))
	}
	var stream refBits
	entries := 0
	for v, list := range lists {
		hdr, slots, gaps := refValues(list, ranks[v])
		stream.rice(m.hdr, hdr)
		for i, slot := range slots {
			stream.rice(m.gap[slot], gaps[i])
		}
		entries += len(list)
	}
	return refBlock(out, entries, append(payload, stream.bytes()...))
}

func writeToReference(x *Index) []byte {
	le := binary.LittleEndian
	out := le.AppendUint64(nil, indexMagic)
	out = le.AppendUint32(le.AppendUint32(out, uint32(x.n)), 0) // no optional part
	nIn, nOut := x.entries()
	out = le.AppendUint64(le.AppendUint64(out, uint64(nIn)), uint64(nOut))
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
			part := ranks[v0:min(v0+4096, x.n)]
			for v := range part {
				lists = append(lists, labels(graph.VertexID(v0+v)))
			}
			out = refLabelBlock(out, lists, part, x.n)
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

// edgeIndex holds the shapes the list coding distinguishes. L_in: per
// power of two 2^b below n, a gap that starts at 2^b − 1 and one that
// starts at 2^b — either side of a model slot's boundary; six hundred
// first ranks of 0 or 1 beside one of 4,000, which the slot's parameter
// therefore escapes; and lists that are their vertex's own rank alone,
// end with it, hold it before a larger one, or do not hold it. L_out:
// every list its vertex's own rank and nothing else, so blocks with
// nothing to code but headers.
func edgeIndex(t testing.TB) *Index {
	t.Helper()
	const n = 5000
	rng := rand.New(rand.NewSource(23))
	ranks := make([]order.Rank, n)
	for i := range ranks {
		ranks[i] = order.Rank(i)
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	v := 0
	for b := 1; 1<<b+5 < n; b++ {
		in[v], in[v+1] = []order.Rank{1<<b - 2, 1<<b + 3}, []order.Rank{1<<b - 1, 1<<b + 5}
		v += 2
	}
	for ; v < 700; v++ {
		in[v] = []order.Rank{order.Rank(v % 2)}
	}
	in[v] = []order.Rank{4000}
	for v++; v < 800; v++ {
		switch r := ranks[v]; {
		case v%4 == 0 || r < 2 || r > n-2:
			in[v] = []order.Rank{r}
		case v%4 == 1:
			in[v] = []order.Rank{r / 2, r}
		case v%4 == 2:
			in[v] = []order.Rank{r, r + 1}
		default:
			in[v] = []order.Rank{r + 1}
		}
	}
	for v := range out {
		out[v] = []order.Rank{ranks[v]}
	}
	x := FromLists(order.FromRanks(ranks), in, out)
	if k := refFit(in[:blockValues], ranks).gap[0]; 4000>>k < 20 {
		t.Fatalf("the edge fixture moved: a first rank of 4000 is not escaped under parameter %d", k)
	}
	return x
}

// ioFixtures covers the shapes the block codec has to get right: no
// block, one short block, a vertex count that is not a multiple of the
// block size, lists long enough for wide headers, sections with no
// entries at all, and edgeIndex's.
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
		"edges":        edgeIndex(t),
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

// TestLabelBlockWideGaps: what only an index of two thousand million
// vertices holds — the last rank there is, first in its list; gaps so
// far beyond their parameter that they are escaped to 32 raw bits — is
// reached at the block level.
func TestLabelBlockWideGaps(t *testing.T) {
	const n = 1 << 31
	lists := [][]order.Rank{
		{0, 1<<21 + 1, 1<<21 + 2},     // escaped, then a gap of zero
		{},                            // an empty list between them
		{5, 1<<28 + 6},                // ending in its vertex's rank, which is not written
		{1<<31 - 1},                   // the last rank there is
		{1 << 14, 1 << 15, 1<<31 - 2}, // its vertex's rank in the middle, so written
	}
	ranks := []order.Rank{7, 8, 1<<28 + 6, 9, 1 << 15}
	entries := 0
	for _, l := range lists {
		entries += len(l)
	}
	block, err := appendLabelBlock(nil, func(v graph.VertexID) []order.Rank { return lists[v] }, ranks, 0, len(lists), n)
	if err != nil {
		t.Fatal(err)
	}
	if want := refLabelBlock(nil, lists, ranks, n); !bytes.Equal(block, want) {
		t.Fatalf("block % x, reference % x", block, want)
	}
	_, payload := blockPayload(block)
	var s blockLists
	if err := decodeLabelBlock(payload, ranks, entries, n, &s); err != nil {
		t.Fatal(err)
	}
	// Decoded, and laid out as a chunk whose second tiers reach 2³¹ − 1.
	c, _ := chunkOf(len(s.ends), s.list)
	laid := layout{chunks: []chunk{c}}
	for i, want := range lists {
		if got := s.list(i); !slices.Equal(got, want) {
			t.Fatalf("list %d decoded as %v, want %v", i, got, want)
		}
		if got := laid.appendList(nil, graph.VertexID(i)); !slices.Equal(got, want) {
			t.Fatalf("list %d laid out as %v, want %v", i, got, want)
		}
	}
	// The same bytes against a vertex count one too small.
	if err := decodeLabelBlock(payload, ranks, entries, n-1, &s); err == nil {
		t.Error("rank n-1 accepted in an index of n-1 vertices")
	}
}

// TestWriteToRejectsUnsortedList: the gap coding cannot express a
// repeated rank — nor a list that holds its vertex's own rank twice, the
// second time where it would go unwritten — so the writer's block
// encoder refuses such a list. No Index holds one: the Builder keeps a
// rank added twice once, and the layout's builder asserts strict ascent.
func TestWriteToRejectsUnsortedList(t *testing.T) {
	ranks := []order.Rank{0, 1, 2}
	for _, repeated := range []order.Rank{2, 1} {
		list := func(v graph.VertexID) []order.Rank {
			if v == 1 {
				return []order.Rank{repeated, repeated}
			}
			return nil
		}
		if _, err := appendLabelBlock(nil, list, ranks, 0, 3, 3); err == nil || !strings.Contains(err.Error(), "strictly ascending") {
			t.Fatalf("rank %d twice: err = %v, want the list refused", repeated, err)
		}
		b := NewBuilder(order.FromRanks(ranks))
		b.AddIn(1, repeated)
		b.AddIn(1, repeated)
		x := b.Finalize()
		if got := x.InLabels(1); !slices.Equal(got, []order.Rank{repeated}) {
			t.Fatalf("rank %d added twice: L_in(1) = %v", repeated, got)
		}
		if y, err := Read(bytes.NewReader(mustWrite(t, x))); err != nil || !x.Equal(y) {
			t.Fatalf("rank %d added twice: the index does not round-trip (%v)", repeated, err)
		}
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
	inEntries := uint64(0)
	for v := graph.VertexID(0); v < blockValues; v++ {
		inEntries += uint64(len(x.InLabels(v)))
	}
	nIn, nOut := x.entries()

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

	// The three-vertex index puts single bytes at known places: the
	// permutation block at 32 (header 3 3, ranks at 34–36), then L_in's
	// one block. craft writes that block anew, with nIn in the header to
	// match, and leaves the rest.
	small, _ := buildSmallIndex(t)
	goodSmall := mustWrite(t, small)
	smallOut := blockStarts(t, goodSmall, small.n)[2]
	craft := func(entries int, payload []byte) []byte {
		file := append([]byte(nil), goodSmall[:37]...)
		binary.LittleEndian.PutUint64(file[16:], uint64(entries))
		return append(refBlock(file, entries, payload), goodSmall[smallOut:]...)
	}
	// lists is a payload: model — parameter 1 for the headers, 0 for the
	// gaps of each of three slots — and per vertex a header and its gaps.
	model := []byte{1, 0, 0, 0}
	lists := func(groups ...[]uint64) []byte {
		var b refBits
		for _, g := range groups {
			b.rice(1, g[0])
			for _, gap := range g[1:] {
				b.rice(0, gap)
			}
		}
		return append(model[:4:4], b.bytes()...)
	}
	// L_in as it is — {0}, {0, 1}, {0} at ranks 0, 1, 2: ten bits.
	goodIn := lists([]uint64{0<<1 | 1}, []uint64{1<<1 | 1, 0}, []uint64{1 << 1, 0})
	with := func(at int, b byte) []byte {
		bad := append([]byte(nil), goodIn...)
		bad[at] = b
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
		{"nIn deflated", header(2, uint64(nIn-1)), "exceed the header's count"},
		{"nOut inflated", header(3, uint64(nOut+1)), "where the header counts"},
		{"duplicate rank", patch(goodSmall, 35, goodSmall[34:35]), "corrupt rank"},
		{"rank n in the permutation", patch(goodSmall, 35, []byte{3}), "not below 3"},
		{"permutation entry count", patch(good, starts[0], []byte{7}), "7 values where 4096 belong"},
		{"a Rice parameter of 32 for the headers", craft(4, with(0, 32)), "Rice parameter above 31"},
		{"a Rice parameter of 32 for a gap", craft(4, with(2, 32)), "Rice parameter above 31"},
		{"a block shorter than its model", craft(4, model[:3]), "shorter than its model"},
		{"block entry count huge", patch(good, firstIn, uv(1<<39)), "entries declared in"},
		{"block entry count beyond uint32 half-word offsets", patch(patch(good, firstIn+entriesLen, uv(1<<29)), firstIn, uv(1<<31)), "more than a block's offsets can count"},
		{"nine entries in a byte", craft(9, []byte{0}), "9 entries declared in 1 bytes"},
		{"block entry count +1", patch(good, firstIn, uv(inEntries+1)), "exceed the header's count"},
		{"block entry count -1", patch(good, firstIn, uv(inEntries-1)), "where the header counts"},
		{"block and header entry count +1", patch(header(2, uint64(nIn+1)), firstIn, uv(inEntries+1)), "fewer entries than its header counts"},
		{"block and header entry count -1", patch(header(2, uint64(nIn-1)), firstIn, uv(inEntries-1)), "beyond the block's entry count"},
		{"block byte length huge", patch(good, firstIn+entriesLen, uv(1<<39)), "unexpected EOF"},
		{"block byte length -1", patch(good, lastOut+lastEntriesLen, uv(lastSize-1)), "run past the payload's end"},
		{"byte after the lists", append(patch(good, lastOut+lastEntriesLen, uv(lastSize+1)), 0), "1 bytes left over"},
		{"lists cut short", craft(4, goodIn[:5]), "run past the payload's end"},
		{"padding bit set", craft(4, with(5, goodIn[5]|0x80)), "padding bits set"},
		{"list length beyond the block", craft(4, lists([]uint64{9 << 1})), "beyond the block's entry count"},
		{"implicit entry beyond the block", craft(1, lists([]uint64{1<<1 | 1, 0})), "beyond the block's entry count"},
		{"gap to rank n", craft(4, lists([]uint64{0<<1 | 1}, []uint64{1<<1 | 1, 0}, []uint64{1 << 1, 3})), "rank out of range"},
		{"escaped gap past rank n", craft(4, lists([]uint64{0<<1 | 1}, []uint64{1<<1 | 1, 0}, []uint64{1 << 1, 1<<32 - 1})), "rank out of range"},
		{"own rank not above the ranks before it", craft(5, lists([]uint64{1<<1 | 1, 0}, []uint64{1<<1 | 1, 0}, []uint64{1 << 1, 0})), "not above the ranks before it"},
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
	for _, c := range []struct {
		file []byte
		want *Index
	}{{good, x}, {goodSmall, small}, {craft(4, goodIn), small}} {
		got, err := Read(bytes.NewReader(c.file))
		if err != nil {
			t.Fatalf("the undamaged file: %v", err)
		}
		if !c.want.Equal(got) {
			t.Fatalf("the undamaged file reads back changed: %s", c.want.Diff(got))
		}
	}
}

// TestReadRefusesRetiredFormat: a file of any format before this one —
// the byte-aligned one, the label file without optional parts, the
// fixed-width one before it, and the root package's envelope around
// either — says what to do about it.
func TestReadRefusesRetiredFormat(t *testing.T) {
	for _, magic := range []string{"DRLINDX3", "DRLINDX2", "RLIXNVE2", "DRLINDEX", "RLIXNVE1"} {
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
