package label

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/order"
)

// Binary index format. The paper's deployment model collects the
// distributed label sets onto one machine and serves queries from
// memory there (§I, Exp 1); this serialization is how that machine
// loads the index. The ordering's rank permutation is embedded so a
// reader can translate vertex IDs to ranks without the graph.

const indexMagic = uint64(0x44524c494e444558) // "DRLINDEX"

// ioChunk is the size of the reused encode/decode buffer: large enough
// to amortize the Write/Read calls, small enough to stay in cache.
const ioChunk = 64 << 10

// WriteTo serializes the index. It returns the number of bytes
// written. Every section is encoded little-endian through one reused
// chunk buffer handed straight to w — binary.Write would reflect over
// []order.Rank (a named type misses its []int32 fast path) element by
// element into a temporary the size of the whole section.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, ioChunk)
	var written int64
	flush := func() error {
		n, err := w.Write(buf)
		written += int64(n)
		buf = buf[:0]
		if err != nil {
			return fmt.Errorf("label: writing index: %w", err)
		}
		return nil
	}
	put64 := func(vals []int64) error {
		for _, v := range vals {
			if len(buf)+8 > cap(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		return nil
	}
	put32 := func(vals []order.Rank) error {
		for _, v := range vals {
			if len(buf)+4 > cap(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		return nil
	}
	header := []int64{int64(indexMagic), int64(x.n), int64(len(x.inLab)), int64(len(x.outLab))}
	if err := put64(header); err != nil {
		return written, err
	}
	if err := put32(x.ord.Ranks()); err != nil {
		return written, err
	}
	for _, off := range [][]int64{x.inOff, x.outOff} {
		if err := put64(off); err != nil {
			return written, err
		}
	}
	for _, lab := range [][]order.Rank{x.inLab, x.outLab} {
		if err := put32(lab); err != nil {
			return written, err
		}
	}
	return written, flush()
}

// Read deserializes an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic, n64, nIn, nOut uint64
	for _, p := range []*uint64{&magic, &n64, &nIn, &nOut} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("label: reading index header: %w", err)
		}
	}
	if magic != indexMagic {
		return nil, errors.New("label: not an index file (bad magic)")
	}
	if n64 > 1<<31 || nIn > 1<<40 || nOut > 1<<40 {
		return nil, fmt.Errorf("label: implausible index header n=%d", n64)
	}
	n := int(n64)
	buf := make([]byte, ioChunk)
	ordRanks, err := readRanks(br, int64(n), buf)
	if err != nil {
		return nil, fmt.Errorf("label: reading rank permutation: %w", err)
	}
	seen := make([]bool, n)
	for v, r := range ordRanks {
		if r < 0 || int(r) >= n || seen[r] {
			return nil, fmt.Errorf("label: corrupt rank %d for vertex %d", r, v)
		}
		seen[r] = true
	}
	x := &Index{n: n}
	if x.inOff, err = readInt64s(br, n+1, buf); err != nil {
		return nil, fmt.Errorf("label: reading offsets: %w", err)
	}
	if x.outOff, err = readInt64s(br, n+1, buf); err != nil {
		return nil, fmt.Errorf("label: reading offsets: %w", err)
	}
	if x.inLab, err = readRanks(br, int64(nIn), buf); err != nil {
		return nil, fmt.Errorf("label: reading labels: %w", err)
	}
	if x.outLab, err = readRanks(br, int64(nOut), buf); err != nil {
		return nil, fmt.Errorf("label: reading labels: %w", err)
	}
	if x.inOff[n] != int64(nIn) || x.outOff[n] != int64(nOut) {
		return nil, errors.New("label: corrupt index (offset mismatch)")
	}
	for _, off := range [][]int64{x.inOff, x.outOff} {
		if off[0] != 0 {
			return nil, errors.New("label: corrupt index (bad first offset)")
		}
		for i := 1; i <= n; i++ {
			if off[i] < off[i-1] {
				return nil, errors.New("label: corrupt index (non-monotone offsets)")
			}
		}
	}
	for _, lab := range [][]order.Rank{x.inLab, x.outLab} {
		for _, r := range lab {
			if r < 0 || int(r) >= n {
				return nil, errors.New("label: corrupt index (rank out of range)")
			}
		}
	}
	x.ord = order.FromRanks(ordRanks)
	return x, nil
}

// readInt64s decodes count little-endian int64s through buf, one
// chunk at a time: the result grows only as bytes actually arrive
// (see grow), so a corrupt count fails at the first missing chunk
// instead of forcing a giant allocation.
func readInt64s(r io.Reader, count int, buf []byte) ([]int64, error) {
	per := len(buf) / 8
	out := make([]int64, 0, min(count, per))
	for len(out) < count {
		b := buf[:8*min(count-len(out), per)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		out = grow(out, len(b)/8, int64(count))
		for ; len(b) > 0; b = b[8:] {
			out = append(out, int64(binary.LittleEndian.Uint64(b)))
		}
	}
	return out, nil
}

// readRanks is readInt64s for little-endian int32 ranks, decoded
// straight into the slice the index keeps.
func readRanks(r io.Reader, count int64, buf []byte) ([]order.Rank, error) {
	per := int64(len(buf) / 4)
	out := make([]order.Rank, 0, min(count, per))
	for int64(len(out)) < count {
		b := buf[:4*min(count-int64(len(out)), per)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		out = grow(out, len(b)/4, count)
		for ; len(b) > 0; b = b[4:] {
			out = append(out, order.Rank(binary.LittleEndian.Uint32(b)))
		}
	}
	return out, nil
}

// grow makes room for k more elements of a slice that will hold count
// in the end. Capacity doubles, clamped to count: never more than
// twice what has already been read, and exactly count — no slack kept
// for the index's lifetime — once the data is all there.
func grow[T any](out []T, k int, count int64) []T {
	if len(out)+k <= cap(out) {
		return out
	}
	grown := make([]T, len(out), min(count, int64(2*cap(out))))
	copy(grown, out)
	return grown
}
