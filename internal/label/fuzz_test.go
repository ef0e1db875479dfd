package label

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzRead: arbitrary bytes must either fail cleanly or yield an
// index whose queries cannot panic and that survives being written
// and read again.
func FuzzRead(f *testing.F) {
	small, _ := buildSmallIndex(f)
	f.Add(mustWrite(f, small))
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// Several blocks per section, sections without entries, no blocks.
	f.Add(mustWrite(f, sparseIndex(f, blockValues+40, 2, 1)))
	f.Add(mustWrite(f, sparseIndex(f, 9, 0, 2)))
	f.Add(mustWrite(f, randomIndex(f, 0, 1)))
	f.Fuzz(func(t *testing.T, input []byte) {
		idx, err := Read(bytes.NewReader(input))
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
		// What Read accepts is a set of strictly ascending lists, so
		// WriteTo must take it; the bytes may differ from the input
		// (a uvarint has padded spellings), the index may not.
		again, err := Read(bytes.NewReader(mustWrite(t, idx)))
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Equal(again) {
			t.Fatalf("rewriting changed the index: %s", idx.Diff(again))
		}
	})
}
