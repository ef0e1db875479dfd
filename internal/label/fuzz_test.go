package label

import (
	"bytes"
	"encoding/binary"
	"math"
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
	// Several blocks per section, sections without entries, no blocks,
	// and lists that inherit, some from three hubs or four.
	f.Add(mustWrite(f, sparseIndex(f, blockValues+40, 2, 1)))
	f.Add(mustWrite(f, sparseIndex(f, 9, 0, 2)))
	f.Add(mustWrite(f, randomIndex(f, 0, 1)))
	hier := hierIndex(f, 300, 90, 3)
	if _, named := writeToReference(hier); named[3]+named[4] == 0 {
		f.Fatalf("the inheriting seed moved: %v of its lists name 0 to 4 hubs", named)
	}
	f.Add(mustWrite(f, hier))
	// The optional parts: the three-vertex index as that of a
	// three-vertex graph, and capped as well — with some lists
	// incomplete, and with every list incomplete under a cap of one.
	fp := &graph.Fingerprint{N: 3, CRC: 0xfeedface, M: 2}
	f.Add(mustWriteWith(f, small, Extras{Graph: fp}))
	f.Add(mustWriteWith(f, small, Extras{Graph: fp, Budget: 2, InFull: []bool{true, false, true}, OutFull: []bool{false, true, true}}))
	f.Add(mustWriteWith(f, small, Extras{Graph: fp, Budget: 1, InFull: make([]bool, 3), OutFull: make([]bool, 3)}))
	f.Fuzz(func(t *testing.T, input []byte) {
		// A mutated input almost never keeps its checksum, so each is
		// read again with its last four bytes made the checksum: what
		// the decoder accepts is then checked too.
		checkRead(t, input)
		checkRead(t, resealed(input))
	})
}

// checkRead is FuzzRead's property for one input.
func checkRead(t *testing.T, input []byte) {
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
	// differ from the input (a uvarint has padded spellings, and a
	// list may be coded alone or inheriting), the index and its parts
	// may not.
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
}

// orderOf draws an order of len(raw)/2 vertices, at most a block's,
// from raw: two bytes a vertex, a key, the vertices ranked by key and
// then by ID.
func orderOf(raw []byte) *order.Ordering {
	n := min(len(raw)/2, blockValues)
	vertices := make([]graph.VertexID, n)
	for v := range vertices {
		vertices[v] = graph.VertexID(v)
	}
	key := func(v graph.VertexID) uint16 { return binary.LittleEndian.Uint16(raw[2*v:]) }
	slices.SortStableFunc(vertices, func(a, b graph.VertexID) int { return int(key(a)) - int(key(b)) })
	return order.FromVertices(vertices)
}

// hierLists shapes label sets as a labeler's are, reading raw as a
// stream of choices (zeros once it runs out): per rank in order, how
// many higher ranks — one to four — whose lists' union it starts from,
// which ranks those are, which of their ranks it keeps, the ranks it adds
// — anywhere, its own and those above included — and whether its own
// rank ends it.
func hierLists(ord *order.Ordering, raw []byte) *Index {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return int(b)
	}
	n := ord.N()
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for _, lists := range [][][]order.Rank{in, out} {
		for r := 1; r < n; r++ {
			var list []order.Rank
			for hubs := 1 + next()%4; hubs > 0; hubs-- {
				for _, h := range lists[ord.VertexAt(order.Rank((next()<<8|next())%r))] {
					if next()%8 != 0 {
						list = append(list, h)
					}
				}
			}
			for k := next() % 3; k > 0; k-- {
				list = append(list, order.Rank((next()<<8|next())%n))
			}
			if next()%10 != 0 {
				list = append(list, order.Rank(r))
			}
			slices.Sort(list)
			lists[ord.VertexAt(order.Rank(r))] = slices.Compact(list)
		}
	}
	return FromLists(ord, in, out)
}

// FuzzLabelBlock reaches the bit reader without a header and a
// permutation that must parse first: for any payload (model included),
// entry count and order of up to a block of vertices, decoding the
// payload as the only block of a labels section must not panic, and
// lists it accepts must be lists the encoder takes and the decoder then
// returns again. Label sets shaped from the same bytes as a labeler's
// are must round-trip through the block codec — where most of them
// inherit — and through a whole file.
func FuzzLabelBlock(f *testing.F) {
	for _, x := range []*Index{sparseIndex(f, 40, 6, 4), hierIndex(f, 300, 90, 5)} {
		in, _ := x.sides()
		var coder labelCoder
		block, err := coder.appendLabelBlock(nil, in, x.ord, 0)
		if err != nil {
			f.Fatal(err)
		}
		entries, payload := blockPayload(block)
		var keys []byte
		for _, r := range x.ord.Ranks() {
			keys = binary.LittleEndian.AppendUint16(keys, uint16(r))
		}
		f.Add(payload, keys, uint32(entries))
	}
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0, 0}, uint32(1))
	f.Add([]byte{0x81, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x0f}, []byte{0, 0, 1, 0, 2, 0}, uint32(4))
	f.Fuzz(func(t *testing.T, payload, rawOrder []byte, entries uint32) {
		ord := orderOf(rawOrder)
		if ord.N() == 0 {
			return
		}
		if s, err := decodeBlock(payload, ord, uint64(entries)); err == nil {
			var coder labelCoder
			block, err := coder.appendLabelBlock(nil, side{l: &s.l}, ord, 0)
			if err != nil {
				t.Fatalf("accepted lists refused by the encoder: %v", err)
			}
			count, recoded := blockPayload(block)
			again, err := decodeBlock(recoded, ord, count)
			if err != nil {
				t.Fatalf("re-encoded block refused: %v", err)
			}
			for v := graph.VertexID(0); int(v) < ord.N(); v++ {
				if a, b := s.l.appendList(nil, v), again.l.appendList(nil, v); !slices.Equal(a, b) {
					t.Fatalf("list %d decoded as %v, re-encoded and decoded as %v", v, a, b)
				}
			}
		}

		x := hierLists(ord, payload)
		in, _ := x.sides()
		var coder labelCoder
		block, err := coder.appendLabelBlock(nil, in, ord, 0)
		if err != nil {
			t.Fatal(err)
		}
		count, coded := blockPayload(block)
		s, err := decodeBlock(coded, ord, count)
		if err != nil {
			t.Fatalf("shaped lists refused: %v", err)
		}
		for v := graph.VertexID(0); int(v) < ord.N(); v++ {
			if a, b := x.InLabels(v), s.l.appendList(nil, v); !slices.Equal(a, b) {
				t.Fatalf("list %d coded as %v, decoded as %v", v, a, b)
			}
		}
		if y, err := Read(bytes.NewReader(mustWrite(t, x))); err != nil || !x.Equal(y) {
			t.Fatalf("shaped lists do not round-trip through a file (%v)", err)
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

// endOwn returns set with own as its last rank, as a list that ends
// with its vertex's own rank: the ranks above own dropped, own added.
func endOwn(set []order.Rank, own order.Rank) []order.Rank {
	k, _ := slices.BinarySearch(set, own)
	return append(set[:k:k], own)
}

// storeOf appends lists to a working store as the batch labeler does:
// in two batches, the ranks below 2¹⁶ and then the others, each after
// Reserve made room for it in the blocks of the lists that gain.
func storeOf(lists [][]order.Rank) *Store {
	st := NewStore(len(lists))
	rows := make([]int64, len(lists)+1)
	for _, batch := range []struct{ lo, hi order.Rank }{{0, wideFrom}, {wideFrom, math.MaxInt32}} {
		part := func(l []order.Rank) []order.Rank {
			i, _ := slices.BinarySearch(l, batch.lo)
			j, _ := slices.BinarySearch(l, batch.hi)
			return l[i:j]
		}
		for v, l := range lists {
			rows[v+1] = rows[v] + int64(len(part(l)))
		}
		for v, l := range lists {
			if len(part(l)) > 0 {
				st.Reserve(v/storeBlock, batch.hi, rows, math.MaxInt)
			}
		}
		for v, l := range lists {
			for _, r := range part(l) {
				st.Append(graph.VertexID(v), r)
			}
		}
	}
	return st
}

// FuzzTierKernel lays two drawn rank sets out through FromLists
// either side of a block boundary and of 2¹⁶ — as L_out of a block's
// last vertex s and L_in of the next block's first u, ranked 65,535 and
// 65,536 or, as flags' bit 0 says, the other way round — and checks
// every kernel path against a plain set intersection: Reachable and a
// batch as the list lengths choose, and each tier's merge and gallop
// forced, in both argument orders. Flags' bits 1 and 2 end L_out(s) and
// L_in(u) with their vertex's own rank, which the layout leaves out of
// the run where it is in the second tier: so a list ends with its own
// rank stored or left out, on either side of the pair. The labeler's
// tests are checked the same way: the two sets appended to working
// stores, whose pruning test must agree in both orders and whose layout
// must be FromLists' to the word, and DisjointBelow below 2¹⁶ and
// below every rank.
func FuzzTierKernel(f *testing.F) {
	f.Add([]byte{0, 200, 1, 127, 1, 128, 2, 133}, []byte{1, 133, 3, 133}, byte(0))
	f.Add([]byte{1, 140}, []byte{0, 1, 0, 9, 1, 100, 1, 120, 1, 130, 1, 140, 1, 150, 1, 160, 1, 170, 1, 180, 1, 190, 1, 200, 1, 210, 1, 220, 1, 230, 1, 240, 2, 250}, byte(0))
	f.Add([]byte{}, []byte{1, 128}, byte(0))
	// Each own rank in the other list.
	f.Add([]byte{0, 5, 1, 128}, []byte{0, 5, 1, 127}, byte(6))
	// The same, ranks swapped.
	f.Add([]byte{0, 5, 1, 128}, []byte{0, 5, 1, 127}, byte(7))
	// A gallop onto a stored own rank, and one onto a left-out own rank.
	f.Add([]byte{0, 5}, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16, 0, 17, 1, 127}, byte(2))
	f.Add([]byte{1, 128, 1, 129, 1, 130, 1, 131, 1, 132, 1, 133, 1, 134, 1, 135, 1, 136, 1, 137, 1, 138, 1, 139, 1, 140, 1, 141, 1, 142, 1, 143, 1, 144, 1, 145, 1, 146, 1, 147, 1, 148, 1, 149, 1, 150, 1, 151}, []byte{}, byte(4))
	// Own ranks alone.
	f.Add([]byte{}, []byte{}, byte(6))
	const n = wideFrom + blockValues
	s, u := graph.VertexID(wideFrom-1), graph.VertexID(wideFrom)
	var ords [2]*order.Ordering
	for k := range ords {
		ranks := make([]order.Rank, n)
		for v := range ranks {
			ranks[v] = order.Rank(v)
		}
		if k == 1 {
			ranks[s], ranks[u] = ranks[u], ranks[s]
		}
		ords[k] = order.FromRanks(ranks)
	}
	f.Fuzz(func(t *testing.T, rawOut, rawIn []byte, flags byte) {
		ord := ords[flags&1]
		out, in := tierSet(rawOut), tierSet(rawIn)
		if flags&2 != 0 {
			out = endOwn(out, ord.RankOf(s))
		}
		if flags&4 != 0 {
			in = endOwn(in, ord.RankOf(u))
		}
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
		a, aw, _ := x.out.tiers(s)
		b, bw, _ := x.in.tiers(u)
		_, wa := x.out.run(s)
		_, wb := x.in.run(u)
		ra, rb := x.own(wa, s), x.own(wb, u)
		stOut, stIn := storeOf(outs), storeOf(ins)
		if y := FromStores(ord, stIn, stOut); !reflect.DeepEqual(y.in, x.in) || !reflect.DeepEqual(y.out, x.out) {
			t.Fatalf("FromStores lays out %v and %v, FromLists %v and %v", y.OutLabels(s), y.InLabels(u), out, in)
		}
		below := false
		for _, r := range out {
			_, found := slices.BinarySearch(in, r)
			below = below || found && r < wideFrom
		}
		for _, c := range []struct {
			path string
			got  bool
		}{
			{"merge", mergeIntersects(a, b) || mergeWide(aw, ra, bw, rb)},
			{"gallop out into in", gallopIntersects(a, b) || gallopWide(aw, ra, bw, rb)},
			{"gallop in into out", gallopIntersects(b, a) || gallopWide(bw, rb, aw, ra)},
			{"store out against in", !stOut.List(s).Disjoint(stIn.List(u))},
			{"store in against out", !stIn.List(u).Disjoint(stOut.List(s))},
			{"below every rank", !DisjointBelow(out, in, math.MaxInt32)},
		} {
			if c.got != want {
				t.Fatalf("%s = %v over %v and %v", c.path, c.got, out, in)
			}
		}
		if got := !DisjointBelow(in, out, wideFrom); got != below {
			t.Fatalf("below 2¹⁶ = %v over %v and %v", got, out, in)
		}
	})
}
