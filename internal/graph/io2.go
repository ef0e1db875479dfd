package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary CSR format v2: the mmap-friendly layout, and the only binary
// format. (The retired v1 packed a bare header and the four CSR
// sections back to back — fine for a buffered read, useless for mmap:
// sections land on arbitrary byte offsets, so the int64/int32 views
// are unaligned.) v2 page-aligns everything:
//
//	page 0        4096-byte header (fields below, zero padded)
//	sections      outOff, outAdj, inOff, inAdj — each starting on a
//	              4096-byte boundary, each padded to the next boundary,
//	              little-endian, in that order
//
//	header fields (all uint64, little-endian):
//	  [0:8)    magic "DRLGRPH2"
//	  [8:16)   version = 2
//	  [16:24)  n (vertex count)
//	  [24:32)  m (edge count after dedup)
//	  [32:96)  section table: 4 × {byte offset, byte length}
//	  [96:100) CRC-32 (IEEE) of bytes [0:96)
//
// The section table is fully determined by (n, m); a decoder computes
// the canonical layout and requires the stored table to match exactly,
// so a corrupt or truncated header can never redirect a section view
// outside the file (strict decode, like every other format in this
// repo). MapFile (mmap.go) serves the sections zero-copy straight out
// of the page cache; ReadBinary2 is the portable copying reader for
// arbitrary io.Readers.
const (
	binaryMagic2    = uint64(0x44524c4752504832) // "DRLGRPH2"
	binaryV2Version = uint64(2)
	v2Page          = 4096
	v2CRCOff        = 96
)

// v2Section locates one CSR array inside the file.
type v2Section struct {
	off  uint64 // byte offset, 4096-aligned
	size uint64 // exact byte length, unpadded
}

// v2Header is the decoded header page.
type v2Header struct {
	n, m uint64
	// outOff, outAdj, inOff, inAdj
	sec [4]v2Section
}

// v2Layout computes the canonical section layout for an (n, m) graph.
func v2Layout(n, m uint64) v2Header {
	h := v2Header{n: n, m: m}
	sizes := [4]uint64{(n + 1) * 8, m * 4, (n + 1) * 8, m * 4}
	off := uint64(v2Page)
	for i, sz := range sizes {
		h.sec[i] = v2Section{off: off, size: sz}
		off += pageCeil(sz)
	}
	return h
}

// fileSize returns the total byte length of the v2 file for h.
func (h v2Header) fileSize() uint64 {
	last := h.sec[3]
	return last.off + pageCeil(last.size)
}

func pageCeil(sz uint64) uint64 {
	return (sz + v2Page - 1) / v2Page * v2Page
}

// encodeV2Header renders the 4096-byte header page.
func encodeV2Header(h v2Header) []byte {
	b := make([]byte, v2Page)
	le := binary.LittleEndian
	le.PutUint64(b[0:], binaryMagic2)
	le.PutUint64(b[8:], binaryV2Version)
	le.PutUint64(b[16:], h.n)
	le.PutUint64(b[24:], h.m)
	for i, s := range h.sec {
		le.PutUint64(b[32+16*i:], s.off)
		le.PutUint64(b[40+16*i:], s.size)
	}
	le.PutUint32(b[v2CRCOff:], crc32.ChecksumIEEE(b[:v2CRCOff]))
	return b
}

// decodeV2Header parses and strictly validates a header page: magic,
// version, CRC, plausible n/m, and a section table that matches the
// canonical layout for (n, m) bit for bit.
func decodeV2Header(b []byte) (v2Header, error) {
	var h v2Header
	if len(b) < v2Page {
		return h, errors.New("graph: binary v2 file shorter than its header page")
	}
	le := binary.LittleEndian
	if le.Uint64(b[0:]) != binaryMagic2 {
		return h, errors.New("graph: not a binary v2 graph file (bad magic)")
	}
	if v := le.Uint64(b[8:]); v != binaryV2Version {
		return h, fmt.Errorf("graph: unsupported binary v2 version %d", v)
	}
	if got, want := le.Uint32(b[v2CRCOff:]), crc32.ChecksumIEEE(b[:v2CRCOff]); got != want {
		return h, errors.New("graph: corrupt binary v2 header (bad checksum)")
	}
	h.n = le.Uint64(b[16:])
	h.m = le.Uint64(b[24:])
	if h.n > 1<<31 || h.m > 1<<40 {
		return h, fmt.Errorf("graph: implausible binary v2 header n=%d m=%d", h.n, h.m)
	}
	want := v2Layout(h.n, h.m)
	for i := range h.sec {
		h.sec[i] = v2Section{off: le.Uint64(b[32+16*i:]), size: le.Uint64(b[40+16*i:])}
		if h.sec[i] != want.sec[i] {
			return h, fmt.Errorf("graph: corrupt binary v2 header (section %d does not match the canonical layout)", i)
		}
	}
	return h, nil
}

// WriteBinary2 writes g in the v2 format. It streams: sections are
// encoded through one fixed 64 KiB buffer in file order, never
// materializing a byte-level copy of the CSR. The in-sections are
// g.Inverse()'s out-CSR, which the writer holds for the one write
// (nothing new where g came from a v2 file): beyond that it adds O(1)
// memory however large the graph.
func WriteBinary2(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := v2Layout(uint64(g.n), uint64(g.m))
	if _, err := bw.Write(encodeV2Header(h)); err != nil {
		return fmt.Errorf("graph: writing binary v2 header: %w", err)
	}
	inv := g.Inverse()
	var buf [1 << 16]byte
	for i, part := range []any{g.outOff, g.outAdj, inv.outOff, inv.outAdj} {
		var err error
		switch s := part.(type) {
		case []int64:
			err = writeInt64sLE(bw, buf[:], s)
		case []VertexID:
			err = writeVertexIDsLE(bw, buf[:], s)
		}
		if err != nil {
			return fmt.Errorf("graph: writing binary v2 section: %w", err)
		}
		if err := writeZeros(bw, int64(pageCeil(h.sec[i].size)-h.sec[i].size)); err != nil {
			return fmt.Errorf("graph: padding binary v2 section: %w", err)
		}
	}
	return bw.Flush()
}

// Fingerprint identifies a graph by content, so that an index file can
// name the graph it was built over and refuse every other when opened:
// the vertex and edge counts and the CRC-32 (IEEE) of the out-CSR as a
// v2 file stores it — outOff, then outAdj, little-endian, unpadded.
// Adjacency lists are sorted and free of duplicates, so those bytes are
// a function of the edge set alone: a graph parsed from text, copied
// from a binary file or mapped from one has one fingerprint. The fields,
// in this order and at these widths, are the graph part of an index
// file (label/io.go).
type Fingerprint struct {
	N   int32
	CRC uint32
	M   int64
}

// Fingerprint computes g's fingerprint in one pass over the out-CSR.
func (g *Digraph) Fingerprint() Fingerprint {
	h := crc32.NewIEEE() // whose Write never fails
	var buf [1 << 16]byte
	_ = writeInt64sLE(h, buf[:], g.outOff)
	_ = writeVertexIDsLE(h, buf[:], g.outAdj)
	return Fingerprint{N: g.n, CRC: h.Sum32(), M: g.m}
}

func writeInt64sLE(w io.Writer, buf []byte, xs []int64) error {
	for len(xs) > 0 {
		k := min(len(xs), len(buf)/8)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(xs[i]))
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

func writeVertexIDsLE(w io.Writer, buf []byte, xs []VertexID) error {
	for len(xs) > 0 {
		k := min(len(xs), len(buf)/4)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(xs[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

func writeZeros(w io.Writer, count int64) error {
	var zero [v2Page]byte
	for count > 0 {
		c := min(count, int64(len(zero)))
		if _, err := w.Write(zero[:c]); err != nil {
			return err
		}
		count -= c
	}
	return nil
}

// ReadBinary2 reads a v2 graph from any io.Reader, copying the
// sections into fresh slices. Strict: a truncated or corrupt stream is
// a hard error, never a silently smaller graph. For files, MapFile is
// the zero-copy route.
func ReadBinary2(r io.Reader) (*Digraph, error) {
	var hdr [v2Page]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary v2 header: %w", err)
	}
	h, err := decodeV2Header(hdr[:])
	if err != nil {
		return nil, err
	}
	n, m := int(h.n), int64(h.m)
	var (
		outOff, inOff []int64
		outAdj, inAdj []VertexID
	)
	for i := range h.sec {
		var err error
		switch i {
		case 0:
			outOff, err = readInt64s(r, n+1)
		case 1:
			outAdj, err = readVertexIDs(r, m)
		case 2:
			inOff, err = readInt64s(r, n+1)
		case 3:
			inAdj, err = readVertexIDs(r, m)
		}
		if err != nil {
			return nil, err
		}
		pad := int64(pageCeil(h.sec[i].size) - h.sec[i].size)
		if _, err := io.CopyN(io.Discard, r, pad); err != nil {
			return nil, fmt.Errorf("graph: reading binary v2 padding: %w", err)
		}
	}
	if err := validateCSR(n, m, outOff, inOff, outAdj, inAdj); err != nil {
		return nil, err
	}
	return newDigraph(int32(n), outOff, outAdj, inOff, inAdj), nil
}

// validateCSR checks the structural invariants every binary loader
// relies on, so a corrupt file can never produce out-of-range slicing
// later: offsets start at 0, end at m, never decrease; every adjacency
// entry is a valid vertex.
func validateCSR(n int, m int64, outOff, inOff []int64, outAdj, inAdj []VertexID) error {
	if outOff[n] != m || inOff[n] != m {
		return errors.New("graph: corrupt binary file (offset mismatch)")
	}
	for _, off := range [][]int64{outOff, inOff} {
		if off[0] != 0 {
			return errors.New("graph: corrupt binary file (bad first offset)")
		}
		for i := 1; i <= n; i++ {
			if off[i] < off[i-1] || off[i] > m {
				return errors.New("graph: corrupt binary file (non-monotone offsets)")
			}
		}
	}
	for _, adj := range [][]VertexID{outAdj, inAdj} {
		for _, v := range adj {
			if v < 0 || int(v) >= n {
				return errors.New("graph: corrupt binary file (vertex out of range)")
			}
		}
	}
	return nil
}
