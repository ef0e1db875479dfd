package label

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
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
