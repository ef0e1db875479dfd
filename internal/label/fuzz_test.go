package label

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// mustWriteWith is mustWrite for a file with optional parts.
func mustWriteWith(t testing.TB, x *Index, e Extras) []byte {
	t.Helper()
	var buf bytes.Buffer
	if n, err := x.WriteWith(&buf, e); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteWith reported %d bytes and %v, wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

// FuzzRead: arbitrary bytes must either fail cleanly or yield an
// index whose queries cannot panic and that survives, with its
// optional parts, being written and read again.
func FuzzRead(f *testing.F) {
	small, _ := buildSmallIndex(f)
	f.Add(mustWrite(f, small))
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// Several blocks per section, sections without entries, no blocks.
	f.Add(mustWrite(f, sparseIndex(f, blockValues+40, 2, 1)))
	f.Add(mustWrite(f, sparseIndex(f, 9, 0, 2)))
	f.Add(mustWrite(f, randomIndex(f, 0, 1)))
	// One file per optional part: the three-vertex index as that of a
	// three-vertex graph, of the condensation of a four-vertex one, and
	// capped with some lists incomplete.
	fp := &graph.Fingerprint{N: 3, CRC: 0xfeedface, M: 2}
	f.Add(mustWriteWith(f, small, Extras{Graph: fp}))
	f.Add(mustWriteWith(f, small, Extras{Comp: []int32{0, 1, 1, 2}}))
	f.Add(mustWriteWith(f, small, Extras{Graph: fp, Budget: 2, InFull: []bool{true, false, true}, OutFull: []bool{false, true, true}}))
	f.Fuzz(func(t *testing.T, input []byte) {
		idx, extras, err := ReadWith(bytes.NewReader(input))
		if _, plainErr := Read(bytes.NewReader(input)); (plainErr == nil) != (err == nil && reflect.DeepEqual(extras, Extras{})) {
			t.Fatalf("Read: %v; ReadWith: %v with parts %+v", plainErr, err, extras)
		}
		if err != nil {
			return
		}
		n := idx.NumVertices()
		for v := 0; v < n && v < 8; v++ {
			for w := 0; w < n && w < 8; w++ {
				idx.Reachable(graph.VertexID(v), graph.VertexID(w))
			}
		}
		_ = idx.MaxLabelSize()
		_ = idx.SizeBytes()
		// What ReadWith accepts is a set of strictly ascending lists and
		// parts that fit them, so WriteWith must take it; the bytes may
		// differ from the input (a uvarint has padded spellings), the
		// index and its parts may not.
		again, extrasAgain, err := ReadWith(bytes.NewReader(mustWriteWith(t, idx, extras)))
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Equal(again) {
			t.Fatalf("rewriting changed the index: %s", idx.Diff(again))
		}
		if !reflect.DeepEqual(extras, extrasAgain) {
			t.Fatalf("rewriting changed the optional parts: %+v, then %+v", extras, extrasAgain)
		}
	})
}

// FuzzLabelBlock reaches the bit reader without a header and a
// permutation that must parse first: for any payload (model included),
// vertex count, vertex ranks (four bytes each, taken modulo n) and entry
// count, decodeLabelBlock must not panic; lists it accepts must be lists
// the encoder takes and the decoder then returns again, and that the
// chunk builder lays out as they are.
func FuzzLabelBlock(f *testing.F) {
	for _, x := range []*Index{sparseIndex(f, 40, 6, 4), edgeIndex(f)} {
		vertices := min(x.n, 800)
		block, err := appendLabelBlock(nil, x.InLabels, x.ord.Ranks(), 0, vertices, x.n)
		if err != nil {
			f.Fatal(err)
		}
		entries, payload := blockPayload(block)
		var ranks []byte
		for _, r := range x.ord.Ranks()[:vertices] {
			ranks = binary.LittleEndian.AppendUint32(ranks, uint32(r))
		}
		f.Add(payload, ranks, uint32(x.n), uint16(entries))
	}
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0, 0}, uint32(1), uint16(1))
	f.Fuzz(func(t *testing.T, payload, rawRanks []byte, n uint32, entries uint16) {
		if n = min(n, 1<<31); n == 0 {
			return
		}
		ranks := make([]order.Rank, min(len(rawRanks)/4, blockValues))
		for i := range ranks {
			ranks[i] = order.Rank(binary.LittleEndian.Uint32(rawRanks[4*i:]) % n)
		}
		var s, again blockLists
		if decodeLabelBlock(payload, ranks, int(entries), int(n), &s) != nil {
			return
		}
		if len(s.ends) != len(ranks) || len(s.lab) != int(entries) {
			t.Fatalf("accepted a block as %d lists of %d entries, want %d of %d", len(s.ends), len(s.lab), len(ranks), entries)
		}
		block, err := appendLabelBlock(nil, func(v graph.VertexID) []order.Rank { return s.list(int(v)) }, ranks, 0, len(ranks), int(n))
		if err != nil {
			t.Fatalf("accepted lists refused by the encoder: %v", err)
		}
		_, recoded := blockPayload(block)
		if err := decodeLabelBlock(recoded, ranks, int(entries), int(n), &again); err != nil || !slices.Equal(s.lab, again.lab) || !slices.Equal(s.ends, again.ends) {
			t.Fatalf("re-encoded block decodes to other lists (%v)", err)
		}
		c, _ := chunkOf(len(s.ends), s.list)
		laid := layout{chunks: []chunk{c}}
		for i := range ranks {
			if got := laid.appendList(nil, graph.VertexID(i)); !slices.Equal(got, s.list(i)) {
				t.Fatalf("list %d laid out as %v, decoded as %v", i, got, s.list(i))
			}
		}
	})
}

// tierSet reads a rank set from raw, two bytes a rank: the first picks
// a neighbourhood — of 0, of 2¹⁶, of 2¹⁷ or of 3·2¹⁶ — and the second an
// offset in it, so sets cross the tier line and their second-tier ranks
// share low half-words.
func tierSet(raw []byte) []order.Rank {
	var set []order.Rank
	for i := 0; i+1 < len(raw); i += 2 {
		set = append(set, order.Rank(max(int(raw[i]%4)*wideFrom+int(raw[i+1])-128, 0)))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// FuzzTierKernel lays two drawn rank sets out through the chunk builder
// either side of a block boundary — as L_out of a block's last vertex
// and L_in of the next block's first — and checks every kernel path
// against a plain set intersection: Reachable and a batch as the list
// lengths choose, and each tier's merge and gallop forced, in both
// argument orders.
func FuzzTierKernel(f *testing.F) {
	f.Add([]byte{0, 200, 1, 127, 1, 128, 2, 133}, []byte{1, 133, 3, 133})
	f.Add([]byte{1, 140}, []byte{0, 1, 0, 9, 1, 100, 1, 120, 1, 130, 1, 140, 1, 150, 1, 160, 1, 170, 1, 180, 1, 190, 1, 200, 1, 210, 1, 220, 1, 230, 1, 240, 2, 250})
	f.Add([]byte{}, []byte{1, 128})
	const n = blockValues + 1
	s, u := graph.VertexID(blockValues-1), graph.VertexID(blockValues)
	ranks := make([]order.Rank, n)
	for v := range ranks {
		ranks[v] = order.Rank(v)
	}
	ord := order.FromRanks(ranks)
	f.Fuzz(func(t *testing.T, rawOut, rawIn []byte) {
		out, in := tierSet(rawOut), tierSet(rawIn)
		want := false
		for _, r := range out {
			_, found := slices.BinarySearch(in, r)
			want = want || found
		}
		outs, ins := make([][]order.Rank, n), make([][]order.Rank, n)
		outs[s], ins[u] = out, in
		outs[s-1], ins[u-1] = []order.Rank{1, wideFrom + 1}, []order.Rank{2, 2*wideFrom + 2}
		x := FromLists(ord, ins, outs)
		if !slices.Equal(x.OutLabels(s), out) || !slices.Equal(x.InLabels(u), in) {
			t.Fatalf("laid out as %v and %v, want %v and %v", x.OutLabels(s), x.InLabels(u), out, in)
		}
		if got := x.Reachable(s, u); got != want {
			t.Fatalf("Reachable = %v over %v and %v", got, out, in)
		}
		if got := x.ReachableBatch([]Pair{{s, u}, {s - 1, u}, {s, u}}); got[0] != want || got[2] != want {
			t.Fatalf("ReachableBatch = %v over %v and %v", got, out, in)
		}
		a, aw := x.out.tiers(s)
		b, bw := x.in.tiers(u)
		for _, c := range []struct {
			path string
			got  bool
		}{
			{"merge", mergeIntersects(a, b) || mergeWide(aw, bw)},
			{"gallop out into in", gallopIntersects(a, b) || gallopWide(aw, bw)},
			{"gallop in into out", gallopIntersects(b, a) || gallopWide(bw, aw)},
		} {
			if c.got != want {
				t.Fatalf("%s = %v over %v and %v", c.path, c.got, out, in)
			}
		}
	})
}
