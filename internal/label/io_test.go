package label

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// writeToReference is the encoder WriteTo replaced: binary.Write per
// section. It defines the on-disk format the chunked encoder must
// reproduce byte for byte.
func writeToReference(x *Index, w io.Writer) error {
	bw := bufio.NewWriter(w)
	ranks := make([]int32, x.n)
	for v, r := range x.ord.Ranks() {
		ranks[v] = int32(r)
	}
	for _, section := range []any{
		indexMagic, uint64(x.n), uint64(len(x.inLab)), uint64(len(x.outLab)),
		ranks, x.inOff, x.outOff, x.inLab, x.outLab,
	} {
		if err := binary.Write(bw, binary.LittleEndian, section); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteToMatchesReferenceEncoder is the golden test of the chunked
// encoder: same bytes as the reflective one, on an index smaller than
// one chunk, one spanning several, and the empty one.
func TestWriteToMatchesReferenceEncoder(t *testing.T) {
	small, _ := buildSmallIndex(t)
	for name, x := range map[string]*Index{
		"small":       small,
		"multi-chunk": randomIndex(t, 300, 7),
		"empty":       randomIndex(t, 0, 1),
	} {
		var want, got bytes.Buffer
		if err := writeToReference(x, &want); err != nil {
			t.Fatal(err)
		}
		n, err := x.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		if name == "multi-chunk" && got.Len() < 2*ioChunk {
			t.Fatalf("%s: fixture is %d bytes, want several %d-byte chunks", name, got.Len(), ioChunk)
		}
		if n != int64(got.Len()) {
			t.Errorf("%s: WriteTo reported %d bytes, wrote %d", name, n, got.Len())
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: chunked encoder wrote different bytes than the reference encoder", name)
		}
		y, err := Read(&got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !x.Equal(y) {
			t.Errorf("%s: round trip changed the index: %s", name, x.Diff(y))
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

func TestWriteToReportsWriterError(t *testing.T) {
	x := randomIndex(t, 300, 7)
	w := &failAfter{limit: ioChunk + 100}
	n, err := x.WriteTo(w)
	if !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if n != int64(w.n) {
		t.Fatalf("WriteTo reported %d bytes, the writer took %d", n, w.n)
	}
}

// TestReadTruncatedMultiChunk: input that ends inside a later chunk
// fails cleanly whatever section the cut lands in.
func TestReadTruncatedMultiChunk(t *testing.T) {
	x := randomIndex(t, 300, 7)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{31, 40, 32 + 4*300 + 9, ioChunk + 1, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d of %d bytes accepted", cut, len(good))
		}
	}
}
