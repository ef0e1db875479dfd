package label

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Binary index format. The paper's deployment model collects the
// distributed label sets onto one machine and serves queries from
// memory there (§I, Exp 1); this serialization is how that machine
// loads the index. The ordering's rank permutation is embedded so a
// reader can translate vertex IDs to ranks without the graph.
//
//	file    := header [graph] [budget] perm labels labels
//	header  := magic(8) n(4) parts(4) nIn(8) nOut(8)
//	graph   := n(4) crc(4) m(8)              parts&1: graph.Fingerprint
//	budget  := uvarint(cap) block block      parts&4: inFull, outFull bits
//	perm    := block*            one block per 4,096 ranks, in order
//	labels  := block*            block i: vertices and ranks [4096i, 4096i+4096)
//	block   := uvarint(entries) uvarint(bytes) payload(bytes)
//
// Fixed-width words are little-endian; parts says which of the two
// optional parts (Extras) follow the header, and a file with parts&2 —
// an index over an SCC condensation, which no build makes — is refused.
// perm is the rank→vertex sequence, the two labels sections are L_in
// and L_out. A perm payload is a Rice parameter and per rank the Rice
// code of the zigzag gap from the vertex of the rank before.
// A labels payload is the block's model and a bit stream, least
// significant bit first, zero-padded to a byte: first the shape of each
// of the block's vertices, in vertex order — rice(kLen, len′<<1 |
// selfLast), and where n > 2¹⁶ and len′ > 0 rice(kWide, how many of the
// len′ are 2¹⁶ or more) — then the list of each of its ranks, in rank
// order. A list is len′ gaps rice(kGap[bits.Len32(next)], r − next), next
// being the least rank it may continue with (0, then r + 1): a label list
// is a strictly ascending set, so no bit string decodes to a list out of
// order. selfLast says that the list ends, after those len′, with its
// vertex's own rank, which the permutation tells. In a block whose model
// says so, a list opens with rice(kHubs, c), and c > 0 says it inherits:
// c ≤ 4 hubs rice(kHub, h), strictly ascending and below its own rank;
// rice(kDrops, d) and d gaps of positions it lacks in U, the union of the
// hubs' lists; and the gaps of the ranks U lacks, len′ − (|U| − d) of
// them. The reader decodes a section's lists in rank order, so every
// L(h) is in place when it is needed. DESIGN.md §16 is the normative
// description.

const (
	indexMagic = uint64(0x44524c494e445836) // "DRLINDX6"

	// The bits of header.Parts, in the order their parts follow it;
	// partCondensed marks a file readHead refuses.
	partGraph, partCondensed, partBudget = uint32(1), uint32(2), uint32(4)

	// blockValues is the number of vertices and ranks (labels sections)
	// or ranks (the permutation) one block covers:
	// large enough that a block is tens to hundreds of kilobytes — one
	// Write call, one encode job — and small enough that a
	// 200,000-vertex index is ~150 blocks to spread over the workers.
	blockValues = 4096

	// payloadStep bounds how far a payload buffer may run ahead of the
	// bytes that have actually arrived: a payload is read in steps of at
	// most this much, so a false byte length costs one step before the
	// input runs out. Real blocks are smaller and take one allocation.
	payloadStep = 1 << 20

	// maxBlockEntries bounds a block's entry count: a labels block's
	// vertices make one chunk, whose offsets count half-words in a uint32
	// and an entry takes up to two. No other block comes near it.
	maxBlockEntries = math.MaxUint32 / 2

	// blockHeaderRoom is the space an encoder leaves in front of a
	// payload so the two header uvarints land contiguously before it.
	blockHeaderRoom = 2 * binary.MaxVarintLen64
)

// retiredMagics opened the formats before this one — "DRLINDX5", whose
// lists inherited from one hub each; "DRLINDX4", whose lists were each
// coded alone, in vertex order; the byte-aligned "DRLINDX3", "DRLINDX2"
// inside the root package's "RLIXNVE2" envelope, and the fixed-width
// "DRLINDEX" and "RLIXNVE1". Index files are derived artifacts, so they
// are refused rather than converted.
var retiredMagics = []uint64{0x44524c494e445835, 0x44524c494e445834, 0x44524c494e445833, 0x44524c494e445832, 0x524c49584e564532, 0x44524c494e444558, 0x524c49584e564531}

// header is the file's fixed part, in binary.Read's layout of a struct.
type header struct {
	Magic     uint64
	N, Parts  uint32
	NIn, NOut uint64
}

// Extras are the optional parts of an index file: what an index needs
// beyond its labels to be reopened as the index it was.
type Extras struct {
	Graph *graph.Fingerprint // of the indexed graph; nil if unnamed
	// Budget > 0 makes this a capped index (see Budgeted) whose lists are
	// complete where InFull and OutFull say so. It answers from its graph
	// as well, so Graph must be set.
	Budget          int
	InFull, OutFull []bool
}

// sealBlock writes the block header in front of the payload that
// starts at buf[blockHeaderRoom] and ends at buf[end], and returns the
// finished block.
func sealBlock(buf []byte, end int, entries int64) []byte {
	var hdr [blockHeaderRoom]byte
	k := binary.PutUvarint(hdr[:], uint64(entries))
	k += binary.PutUvarint(hdr[k:], uint64(end-blockHeaderRoom))
	start := blockHeaderRoom - k
	copy(buf[start:], hdr[:k])
	return buf[start:end]
}

// sized returns buf with length n, reallocated only when too small.
func sized(buf []byte, n int) []byte {
	return slices.Grow(buf[:0], n)[:n]
}

// writeCounter counts the bytes that reach w and, like bufio.Writer,
// keeps the first error and writes nothing after it.
type writeCounter struct {
	w   io.Writer
	n   int64
	err error
}

func (t *writeCounter) Write(p []byte) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	k, err := t.w.Write(p)
	t.n += int64(k)
	if err != nil {
		t.err = fmt.Errorf("label: writing index: %w", err)
	}
	return k, t.err
}

// put is Write for a caller that reads err when it has written all.
func (t *writeCounter) put(p []byte) { _, _ = t.Write(p) }

// readBlock reads one block: its entry count and its payload, the
// latter into buf (regrown as needed; hand the returned payload back
// as the next call's buf to reuse it). The payload is read at most
// payloadStep ahead of what has arrived, and a byte holds at most
// perByte entries — a flag byte of a bitset section costs a byte, a
// permutation value at least a bit — so once
// readBlock returns, entries is backed by bytes received and safe to
// allocate against; it is also at most maxBlockEntries. A labels block
// passes perByte 0: an inherited entry costs no bits, so its shapes
// bound its count (readShapes), not its bytes.
func readBlock(br *bufio.Reader, buf []byte, perByte uint64) (entries uint64, payload []byte, err error) {
	entries, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("block header: %w", noEOF(err))
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("block header: %w", noEOF(err))
	}
	if perByte > 0 && entries > perByte*min(size, 1<<60) { // the min keeps the product within 64 bits
		return 0, nil, fmt.Errorf("corrupt block: %d entries declared in %d bytes", entries, size)
	}
	if entries > maxBlockEntries {
		return 0, nil, fmt.Errorf("corrupt block: %d entries, more than a block's offsets can count", entries)
	}
	payload = buf[:0]
	for uint64(len(payload)) < size {
		have := len(payload)
		step := int(min(size-uint64(have), payloadStep))
		payload = slices.Grow(payload, step)[:have+step]
		if _, err := io.ReadFull(br, payload[have:]); err != nil {
			return 0, nil, fmt.Errorf("block payload: %w", noEOF(err))
		}
	}
	return entries, payload, nil
}

// flagBlock encodes one direction's completeness flags as a bitset block.
func flagBlock(full []bool) []byte {
	buf := make([]byte, blockHeaderRoom+(len(full)+7)/8)
	for v, f := range full {
		if f {
			buf[blockHeaderRoom+v/8] |= 1 << (v % 8)
		}
	}
	return sealBlock(buf, len(buf), int64(len(buf)-blockHeaderRoom))
}

// readFlags is the inverse of flagBlock for n vertices, whose flags are
// allocated once the block's bytes, an eighth as many, have arrived.
func readFlags(br *bufio.Reader, n int) ([]bool, error) {
	entries, payload, err := readBlock(br, nil, 1)
	if size := (n + 7) / 8; err == nil && (entries != uint64(size) || len(payload) != size) {
		err = fmt.Errorf("corrupt block: %d entries in %d bytes of flags for %d vertices", entries, len(payload), n)
	}
	if err != nil {
		return nil, err
	}
	full := make([]bool, 8*len(payload))
	for v := range full {
		full[v] = payload[v/8]>>(v%8)&1 != 0
	}
	if slices.Contains(full[n:], true) {
		return nil, fmt.Errorf("corrupt block: a flag is set for a vertex that is not below %d", n)
	}
	return full[:n], nil
}

// noEOF turns an end of input in the middle of a structure into the
// error it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteTo serializes the index as a file with no optional part and
// returns the number of bytes written.
func (x *Index) WriteTo(w io.Writer) (int64, error) { return x.WriteWith(w, Extras{}) }

// WriteWith serializes the index and the optional parts e names, and
// returns the number of bytes written. Permutation and label blocks are
// encoded on GOMAXPROCS goroutines, then written in order, one Write
// call per block, so the whole encoded file is in memory at once (2.2 MB
// for a 17.7 MB resident index of 200,000 vertices). A block's bytes
// depend on the label sets alone, so the output is identical whatever
// the worker count or scheduling, and a patched index writes the bytes
// its Fold would.
func (x *Index) WriteWith(out io.Writer, e Extras) (int64, error) {
	if e.Budget > 0 && (e.Graph == nil || len(e.InFull) != x.n || len(e.OutFull) != x.n) {
		return 0, errors.New("label: a capped index is written with its graph's fingerprint and one flag per vertex and direction")
	}
	w := &writeCounter{w: out}
	nIn, nOut := x.entries()
	h := header{Magic: indexMagic, N: uint32(x.n), NIn: uint64(nIn), NOut: uint64(nOut)}
	if e.Graph != nil {
		h.Parts |= partGraph
	}
	if e.Budget > 0 {
		h.Parts |= partBudget
	}
	_ = binary.Write(w, binary.LittleEndian, h) // w remembers a failed write, and those after it do nothing
	if e.Graph != nil {
		_ = binary.Write(w, binary.LittleEndian, e.Graph)
	}
	if e.Budget > 0 {
		w.put(binary.AppendUvarint(nil, uint64(e.Budget)))
		w.put(flagBlock(e.InFull))
		w.put(flagBlock(e.OutFull))
	}
	if w.err != nil {
		return w.n, w.err
	}

	perSection := blocksFor(x.n)
	inSide, outSide := x.sides()
	encode := func(i int, buf []byte, c *labelCoder) ([]byte, error) {
		switch k := i % perSection; i / perSection {
		case 0:
			return appendPermBlock(buf, x.ord.Vertices()[k*blockValues:min((k+1)*blockValues, x.n)]), nil
		case 1:
			return c.appendLabelBlock(buf, inSide, x.ord, k)
		default:
			return c.appendLabelBlock(buf, outSide, x.ord, k)
		}
	}

	// Each worker encodes into a buffer of its own and keeps a copy of
	// each block, sized to it.
	type encoded struct {
		block []byte
		err   error
	}
	blocks := make([]encoded, 3*perSection)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(blocks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c labelCoder
			var buf []byte
			for i := int(next.Add(1) - 1); i < len(blocks); i = int(next.Add(1) - 1) {
				block, err := encode(i, buf, &c)
				blocks[i] = encoded{slices.Clone(block), err}
				buf = block[:0]
			}
		}()
	}
	wg.Wait()
	for _, enc := range blocks {
		if enc.err != nil {
			return w.n, enc.err
		}
		if w.put(enc.block); w.err != nil {
			return w.n, w.err
		}
	}
	return w.n, nil
}

// Read deserializes an index written by WriteTo — a file with no
// optional part; one that has any belongs to reachlab.ReadIndex.
func Read(r io.Reader) (*Index, error) {
	x, e, err := ReadWith(r)
	if err == nil && (e.Graph != nil || e.Budget > 0) {
		return nil, errors.New("label: this index file carries a graph fingerprint or a label budget; open it with reachlab.ReadIndex")
	}
	return x, err
}

// ReadWith deserializes an index written by WriteWith and the optional
// parts its file carries. It reads the blocks in order, lays each labels
// section out from its shapes, then decodes that section's lists in rank
// order, all on the calling goroutine.
func ReadWith(r io.Reader) (*Index, Extras, error) {
	br := bufio.NewReader(r)
	h, e, err := readHead(br)
	if err != nil {
		return nil, e, err
	}
	n := int(h.N)
	// Once the permutation has arrived, n is no longer just a claim and
	// may size allocations.
	ord, err := readPermutation(br, n)
	if err != nil {
		return nil, e, fmt.Errorf("label: reading rank permutation: %w", err)
	}
	var sides [2]*section
	for i, total := range []uint64{h.NIn, h.NOut} {
		if sides[i], err = readSection(br, ord, total); err == nil {
			err = sides[i].decodeLists()
		}
		if err != nil {
			return nil, e, fmt.Errorf("label: reading labels: %w", err)
		}
	}
	return &Index{n: n, ord: ord, in: sides[0].l, out: sides[1].l}, e, nil
}

// readHead reads a file's header and the optional parts it announces.
func readHead(br *bufio.Reader) (h header, e Extras, err error) {
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return h, e, fmt.Errorf("label: reading index header: %w", err)
	}
	if slices.Contains(retiredMagics, h.Magic) {
		return h, e, errors.New("label: this index file is in a retired format; rebuild the index")
	}
	if h.Magic != indexMagic {
		return h, e, errors.New("label: not an index file (bad magic)")
	}
	if h.Parts&partCondensed != 0 {
		return h, e, errors.New("label: this index was built over an SCC condensation, which is no longer served; rebuild the index")
	}
	if h.N > 1<<31 || h.NIn > 1<<40 || h.NOut > 1<<40 || h.Parts > partGraph|partBudget || h.Parts&(partGraph|partBudget) == partBudget {
		return h, e, fmt.Errorf("label: implausible index header n=%d parts=%#x", h.N, h.Parts)
	}
	if e, err = readExtras(br, h.Parts, int(h.N)); err != nil {
		return h, e, fmt.Errorf("label: reading %w", err)
	}
	return h, e, nil
}

// Sections is how an index file's bytes divide: the header with the
// optional parts it announces, the rank permutation, and the labels
// sections of L_in and L_out.
type Sections struct {
	Head, Perm, In, Out int64
}

// ReadSections reads an index file through and returns how many bytes
// each of its sections takes. It checks the header and the optional
// parts as ReadWith does, and of the rest only the framing: the payloads
// are read, not decoded.
func ReadSections(r io.Reader) (Sections, error) {
	var s Sections
	count := &readCounter{r: r}
	br := bufio.NewReader(count)
	at := func() int64 { return count.n - int64(br.Buffered()) }
	h, _, err := readHead(br)
	if err != nil {
		return s, err
	}
	s.Head = at()
	var payload []byte
	for _, size := range []*int64{&s.Perm, &s.In, &s.Out} {
		start := at()
		for k := blocksFor(int(h.N)); k > 0; k-- {
			if _, payload, err = readBlock(br, payload, 0); err != nil {
				return s, fmt.Errorf("label: reading index blocks: %w", err)
			}
		}
		*size = at() - start
	}
	return s, nil
}

// readCounter counts the bytes read from r.
type readCounter struct {
	r io.Reader
	n int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// readExtras reads the optional parts the header announces for an index
// of n vertices and checks each against n: flagged vertices are below
// it, and the fingerprint is of a graph of as many vertices as the index
// answers for.
func readExtras(br *bufio.Reader, parts uint32, n int) (e Extras, err error) {
	if parts&partGraph != 0 {
		e.Graph = new(graph.Fingerprint)
		if err := binary.Read(br, binary.LittleEndian, e.Graph); err != nil {
			return e, fmt.Errorf("graph fingerprint: %w", noEOF(err))
		}
		if int64(e.Graph.N) != int64(n) {
			return e, fmt.Errorf("graph fingerprint: it is of a graph of %d vertices, the index covers %d", e.Graph.N, n)
		}
	}
	if parts&partBudget != 0 {
		budget, err := binary.ReadUvarint(br)
		if err == nil && (budget == 0 || budget > math.MaxInt) {
			err = fmt.Errorf("implausible cap %d", budget)
		}
		if e.Budget = int(budget); err == nil {
			e.InFull, err = readFlags(br, n)
		}
		if err == nil {
			e.OutFull, err = readFlags(br, n)
		}
		if err != nil {
			return e, fmt.Errorf("label budget: %w", noEOF(err))
		}
	}
	return e, nil
}

// blocksFor returns the number of blocks that cover n values.
func blocksFor(n int) int { return (n + blockValues - 1) / blockValues }

// grow makes room for k more elements of a slice that will hold count
// in the end. Capacity at least doubles, clamped to count: never more
// than twice what has already been read plus what was just read, and
// exactly count — no slack kept for the index's lifetime — once the
// data is all there.
func grow[T any](out []T, k, count int) []T {
	if len(out)+k <= cap(out) {
		return out
	}
	grown := make([]T, len(out), min(count, max(2*cap(out), len(out)+k)))
	copy(grown, out)
	return grown
}
