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
// count, decodeLabelBlock must not panic — dst and off are cut to size,
// so a write outside them would — nor touch off[0], the block before's;
// and lists it accepts must be lists the encoder takes and the decoder
// then returns again.
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
		const base, sentinel = 1 << 40, -7
		decode := func(payload []byte) ([]int64, []order.Rank, error) {
			off, dst := make([]int64, len(ranks)+1), make([]order.Rank, entries)
			off[0] = sentinel
			err := decodeLabelBlock(payload, ranks, off, dst, base, int(n))
			if off[0] != sentinel {
				t.Fatal("off[0] written")
			}
			off[0] = base
			return off, dst, err
		}
		off, dst, err := decode(payload)
		if err != nil {
			return
		}
		list := func(v graph.VertexID) []order.Rank { return dst[off[v]-base : off[v+1]-base] }
		block, err := appendLabelBlock(nil, list, ranks, 0, len(ranks), int(n))
		if err != nil {
			t.Fatalf("accepted lists refused by the encoder: %v", err)
		}
		_, again := blockPayload(block)
		off2, dst2, err := decode(again)
		if err != nil || !slices.Equal(dst, dst2) || !slices.Equal(off, off2) {
			t.Fatalf("re-encoded block decodes to other lists (%v)", err)
		}
	})
}
