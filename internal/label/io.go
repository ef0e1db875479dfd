package label

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/order"
)

// Binary index format. The paper's deployment model collects the
// distributed label sets onto one machine and serves queries from
// memory there (§I, Exp 1); this serialization is how that machine
// loads the index. The ordering's rank permutation is embedded so a
// reader can translate vertex IDs to ranks without the graph.
//
//	file    := header [graph] [comp] [budget] ints(n) labels labels
//	header  := magic(8) n(4) parts(4) nIn(8) nOut(8)
//	graph   := n(4) crc(4) m(8)              parts&1: graph.Fingerprint
//	comp    := uvarint(count) ints(count)    parts&2: component table
//	budget  := uvarint(cap) block block      parts&4: inFull, outFull bits
//	ints(k) := block*            one block per 4,096 values, k in all
//	labels  := block*            one block per 4,096 vertices, in order
//	block   := uvarint(entries) uvarint(bytes) payload(bytes)
//
// Fixed-width words are little-endian; parts says which of the three
// optional parts (Extras) follow the header. ints(n) is the rank
// permutation, the two labels sections are L_in and L_out. An ints
// payload is one uvarint per value. A labels payload is the block's
// model, kLen(1) kGap(1)*, and a bit stream, least significant bit
// first, zero-padded to a byte: per vertex rice(kLen, len′<<1 | selfLast)
// and len′ gaps rice(kGap[bits.Len32(next)], r − next), next being the
// least rank the list may continue with (0, then r + 1) — a label list
// is a strictly ascending set, so no bit string decodes to a list out
// of order. selfLast says that the list ends, after those len′, with its
// vertex's own rank, which the permutation tells. Ranks are
// degree-ordered, so gaps grow with the rank they start from: hence a
// Rice parameter per bit length of next.
// Offsets are not stored: a labels block is one chunk of the layout
// (layout.go), whose offsets are relative to the chunk and rebuilt from
// the list lengths, so a block decodes without knowing where any other
// lands. That self-contained block is what lets both directions stream
// through an io.Writer / io.Reader and still run block-parallel.
// A bitset block has ⌈n/8⌉ entries, one a byte, vertex v at bit v%8 of
// byte v/8. DESIGN.md §16 is the normative description.

const (
	indexMagic = uint64(0x44524c494e445834) // "DRLINDX4"

	// The bits of header.Parts, in the order their parts follow it.
	partGraph, partComp, partBudget = uint32(1), uint32(2), uint32(4)

	// blockValues is the number of vertices (labels sections) or values
	// (ints sections) one block covers: large enough that a block is
	// tens to hundreds of kilobytes — one Write call, one decode job —
	// and small enough that a 200,000-vertex index is ~100 label blocks
	// to spread over the workers.
	blockValues = 4096

	// payloadStep bounds how far a payload buffer may run ahead of the
	// bytes that have actually arrived: a payload is read in steps of at
	// most this much, so a false byte length costs one step before the
	// input runs out. Real blocks are smaller and take one allocation.
	payloadStep = 1 << 20

	// maxBlockEntries bounds a block's entry count: a labels block
	// becomes one chunk, whose offsets count half-words in a uint32 and
	// an entry takes up to two. No ints or bitset block comes near it.
	maxBlockEntries = math.MaxUint32 / 2

	// blockHeaderRoom is the space an encoder leaves in front of a
	// payload so the two header uvarints land contiguously before it.
	blockHeaderRoom = 2 * binary.MaxVarintLen64
)

// retiredMagics opened the formats before this one — the byte-aligned
// "DRLINDX3", "DRLINDX2" inside the root package's "RLIXNVE2" envelope,
// and the fixed-width "DRLINDEX" and "RLIXNVE1". Index files are derived
// artifacts, so they are refused rather than converted.
var retiredMagics = []uint64{0x44524c494e445833, 0x44524c494e445832, 0x524c49584e564532, 0x44524c494e444558, 0x524c49584e564531}

// header is the file's fixed part, in binary.Read's layout of a struct.
type header struct {
	Magic     uint64
	N, Parts  uint32
	NIn, NOut uint64
}

// Extras are the optional parts of an index file: what an index needs
// beyond its labels to be reopened as the index it was.
type Extras struct {
	Graph *graph.Fingerprint // of the indexed graph (the original one, under Comp); nil if unnamed
	Comp  []int32            // original vertex → component, for an index over an SCC condensation
	// Budget > 0 makes this a capped index (see Budgeted) whose lists are
	// complete where InFull and OutFull say so. It answers from its graph
	// as well, so Graph must be set.
	Budget          int
	InFull, OutFull []bool
}

// A labels block's values are Rice-coded: v>>k ones, a zero, v's low k
// bits. From riceEscape ones on the code is those ones and v in 32
// bits, so no value costs more than 52 bits whatever the parameter.
const (
	riceEscape = 20
	maxRiceK   = 31
)

// riceModel holds one labels block's Rice parameters: [0] codes the
// list headers, [1+b] a gap that starts at a rank of b bits
// (bits.Len32(next)). A block opens with those its n can reach.
type riceModel [34]uint8

// modelLen returns how many parameters the blocks of n vertices carry.
func modelLen(n int) int { return 2 + bits.Len32(uint32(max(n, 1)-1)) }

// explicit returns the entries of a list that are written, and 1 if its
// last one — self, its vertex's own rank — is left to the permutation.
func explicit(list []order.Rank, self order.Rank) ([]order.Rank, uint32) {
	if k := len(list) - 1; k >= 0 && list[k] == self {
		return list[:k], 1
	}
	return list, 0
}

// fitModel returns the parameters the lists of vertices [v0, v1) are
// coded with, and how many entries they hold: per slot ⌊log₂(0.96 ·
// mean)⌋ of the values it codes, the Rice parameter that takes the
// fewest bits for a geometric distribution of that mean. Integer
// arithmetic on sums, so a block's bytes are a function of its lists.
func fitModel(list func(graph.VertexID) []order.Rank, ranks []order.Rank, v0, v1 int) (m riceModel, entries int) {
	var sum, count [len(m)]uint64
	for v := v0; v < v1; v++ {
		list, selfLast := explicit(list(graph.VertexID(v)), ranks[v])
		entries += len(list) + int(selfLast)
		sum[0] += uint64(len(list))<<1 | uint64(selfLast)
		next := uint32(0)
		for _, r := range list {
			slot := 1 + bits.Len32(next)
			sum[slot] += uint64(uint32(r) - next)
			count[slot]++
			next = uint32(r) + 1
		}
	}
	count[0] = uint64(v1 - v0)
	for i, c := range count {
		if x := sum[i] - sum[i]>>5 - sum[i]>>7; c > 0 && x >= c {
			m[i] = uint8(min(bits.Len64(x/c)-1, maxRiceK))
		}
	}
	return m, entries
}

// bitWriter appends codes of up to 56 bits to b, least significant bit
// first, eight bytes at a time: b must have that much room past the end
// of the last code.
type bitWriter struct {
	b   []byte
	pos int    // where acc goes
	acc uint64 // the n < 64 bits not yet in b
	n   uint
}

func (w *bitWriter) put(code uint64, width uint) {
	w.acc |= code << (w.n & 63)
	if w.n += width; w.n >= 64 {
		binary.LittleEndian.PutUint64(w.b[w.pos:], w.acc)
		w.pos += 8
		w.n -= 64
		w.acc = code >> ((width - w.n) & 63) // what did not fit
	}
}

// riceCode returns v's code under parameter k, and its width.
func riceCode(v uint32, k uint8) (code uint64, width uint) {
	if q := v >> k; q < riceEscape {
		return uint64(1)<<q - 1 | uint64(v&(1<<k-1))<<(q+1), uint(q) + 1 + uint(k)
	}
	return 1<<riceEscape - 1 | uint64(v)<<riceEscape, riceEscape + 32
}

// end pads the stream with zero bits to a byte and returns where it ends.
func (w *bitWriter) end() int {
	binary.LittleEndian.PutUint64(w.b[w.pos:], w.acc)
	return w.pos + int(w.n+7)>>3
}

// bitReader reads what bitWriter wrote. Past the end of b it reads zero
// bits, each of which ends a code, so a loop bounded by counts ends; end
// then reports the overrun.
type bitReader struct {
	b   []byte
	pos int    // bytes taken into acc, those imagined past the end included
	acc uint64 // the unread bits, the next one lowest
	n   uint   // how many of them are known
}

// refill makes at least 56 bits — more than any code — known.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.b) {
		r.acc |= binary.LittleEndian.Uint64(r.b[r.pos:]) << r.n
		r.pos += int(63-r.n) >> 3
		r.n |= 56
		return
	}
	for ; r.n <= 56; r.n += 8 {
		if r.pos < len(r.b) {
			r.acc |= uint64(r.b[r.pos]) << r.n
		}
		r.pos++
	}
}

// rice reads one value coded under parameter k.
func (r *bitReader) rice(k uint8) (v uint32) {
	r.refill()
	width := uint(riceEscape + 32)
	if q := uint(bits.TrailingZeros64(^r.acc)); q < riceEscape {
		v, width = uint32(q)<<k|uint32(r.acc>>(q+1))&(1<<k-1), q+1+uint(k)
	} else {
		v = uint32(r.acc >> riceEscape)
	}
	r.acc >>= width
	r.n -= width
	return v
}

// end checks that the codes read stop in the last byte of b and that
// the bits after them are zero.
func (r *bitReader) end() error {
	r.refill()
	switch pad := 8*len(r.b) - (8*r.pos - int(r.n)); {
	case pad < 0:
		return errors.New("corrupt block: the lists run past the payload's end")
	case pad >= 8:
		return fmt.Errorf("corrupt block: %d bytes left over", pad/8)
	case r.acc&(1<<pad-1) != 0:
		return errors.New("corrupt block: padding bits set")
	}
	return nil
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

// writeInts writes vals — non-negative, as ranks and component IDs are
// — as an ints section: one uvarint per value, framed in blocks. (A
// negative value would be written as one of 2³¹ or more, which readInts
// refuses.)
func writeInts[T ~int32](w *writeCounter, vals []T) {
	var buf []byte
	for ; len(vals) > 0; vals = vals[min(len(vals), blockValues):] {
		part := vals[:min(len(vals), blockValues)]
		buf = sized(buf, blockHeaderRoom+binary.MaxVarintLen32*len(part))
		pos := blockHeaderRoom
		for _, v := range part {
			pos += binary.PutUvarint(buf[pos:], uint64(uint32(v)))
		}
		w.put(sealBlock(buf, pos, int64(len(part))))
	}
}

// readInts reads the count values of an ints section, each of which
// must be below limit (at most 1<<31). The result grows only as blocks
// actually arrive, so a corrupt count fails at the first missing block
// instead of forcing a giant allocation.
func readInts[T ~int32](br *bufio.Reader, count int, limit uint64) ([]T, error) {
	out := make([]T, 0, min(count, blockValues))
	var buf []byte
	for len(out) < count {
		want := min(count-len(out), blockValues)
		entries, payload, err := readBlock(br, buf, 1)
		if err != nil {
			return nil, err
		}
		buf = payload
		if entries != uint64(want) {
			return nil, fmt.Errorf("corrupt block: %d values where %d belong", entries, want)
		}
		out = grow(out, want, count)
		pos := 0
		for i := 0; i < want; i++ {
			v, k := binary.Uvarint(payload[pos:])
			if k <= 0 || v >= limit {
				return nil, fmt.Errorf("corrupt block: value %d of %d unreadable or not below %d", len(out), count, limit)
			}
			out = append(out, T(v))
			pos += k
		}
		if pos != len(payload) {
			return nil, fmt.Errorf("corrupt block: %d bytes left over", len(payload)-pos)
		}
	}
	return out, nil
}

// readBlock reads one block: its entry count and its payload, the
// latter into buf (regrown as needed; hand the returned payload back
// as the next call's buf to reuse it). The payload is read at most
// payloadStep ahead of what has arrived, and a byte holds at most
// perByte entries — a value or a flag byte of the ints and bitset
// sections costs a byte, a label entry at least a bit — so once
// readBlock returns, entries is backed by bytes received and safe to
// allocate against; it is also at most maxBlockEntries.
func readBlock(br *bufio.Reader, buf []byte, perByte uint64) (entries uint64, payload []byte, err error) {
	entries, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("block header: %w", noEOF(err))
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("block header: %w", noEOF(err))
	}
	if entries > perByte*min(size, 1<<60) { // the min keeps the product within 64 bits
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

// appendLabelBlock encodes the label lists of vertices [v0, v1), whose
// ranks are ranks[v0:v1], into buf as a finished block. Lists must be
// strictly ascending ranks in [0, n): the gap coding cannot express
// anything else.
func appendLabelBlock(buf []byte, list func(graph.VertexID) []order.Rank, ranks []order.Rank, v0, v1, n int) ([]byte, error) {
	m, entries := fitModel(list, ranks, v0, v1)
	// A code is at most 52 bits, and the writer stores 8 bytes at a time.
	buf = sized(buf, blockHeaderRoom+modelLen(n)+7*(entries+v1-v0)+8)
	w := bitWriter{b: buf, pos: blockHeaderRoom + copy(buf[blockHeaderRoom:], m[:modelLen(n)])}
	for v := v0; v < v1; v++ {
		list, selfLast := explicit(list(graph.VertexID(v)), ranks[v])
		w.put(riceCode(uint32(len(list))<<1|selfLast, m[0]))
		next := uint32(0) // the least rank the list may continue with
		for _, r := range list {
			if r < 0 || uint32(r) < next {
				next = math.MaxUint32 // no ascent: refused as a rank beyond n is
				break
			}
			w.put(riceCode(uint32(r)-next, m[1+bits.Len32(next)]))
			next = uint32(r) + 1
		}
		if int64(next) > int64(n) || selfLast != 0 && uint32(ranks[v]) < next || len(list) > math.MaxInt32 {
			return nil, fmt.Errorf("label: vertex %d's label list is not a strictly ascending set of ranks below %d; it cannot be serialized", v, n)
		}
	}
	return sealBlock(buf, w.end(), int64(entries)), nil
}

// decodeLabelBlock is the inverse of appendLabelBlock for the block of
// the vertices whose ranks are ranks: it leaves their lists in s. Every
// rank is checked against n, and the payload must hold exactly entries
// entries in exactly its bytes.
func decodeLabelBlock(payload []byte, ranks []order.Rank, entries, n int, s *blockLists) error {
	s.reset()
	var m riceModel
	head := modelLen(n)
	if len(payload) < head {
		return errors.New("corrupt block: shorter than its model")
	}
	if copy(m[:], payload[:head]); slices.Max(m[:]) > maxRiceK {
		return fmt.Errorf("corrupt block: a Rice parameter above %d", maxRiceK)
	}
	r := bitReader{b: payload[head:]}
	for _, self := range ranks {
		hdr := r.rice(m[0])
		if uint64(hdr>>1)+uint64(hdr&1) > uint64(entries-len(s.lab)) {
			return errors.New("corrupt block: list length beyond the block's entry count")
		}
		next := uint32(0) // the least rank the list may continue with
		for k := hdr >> 1; k > 0; k-- {
			rank := uint64(next) + uint64(r.rice(m[1+bits.Len32(next)]))
			if rank >= uint64(n) {
				return errors.New("corrupt block: rank out of range")
			}
			s.lab = append(s.lab, order.Rank(rank))
			next = uint32(rank) + 1
		}
		if hdr&1 != 0 {
			if uint32(self) < next {
				return errors.New("corrupt block: a list's implicit last entry, its vertex's own rank, is not above the ranks before it")
			}
			s.lab = append(s.lab, self)
		}
		s.ends = append(s.ends, len(s.lab))
	}
	if err := r.end(); err != nil || len(s.lab) == entries {
		return err
	}
	return errors.New("corrupt block: fewer entries than its header counts")
}

// WriteTo serializes the index as a file with no optional part and
// returns the number of bytes written.
func (x *Index) WriteTo(w io.Writer) (int64, error) { return x.WriteWith(w, Extras{}) }

// WriteWith serializes the index and the optional parts e names, and
// returns the number of bytes written. Label blocks are encoded on
// GOMAXPROCS goroutines and written in vertex order, one Write call per
// block; a block's bytes depend on the label sets alone, so the output
// is identical whatever the worker count or scheduling, and a patched
// index writes the bytes its Fold would.
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
	if e.Comp != nil {
		h.Parts |= partComp
	}
	if e.Budget > 0 {
		h.Parts |= partBudget
	}
	_ = binary.Write(w, binary.LittleEndian, h) // w remembers a failed write, and those after it do nothing
	if e.Graph != nil {
		_ = binary.Write(w, binary.LittleEndian, e.Graph)
	}
	if e.Comp != nil {
		w.put(binary.AppendUvarint(nil, uint64(len(e.Comp))))
		writeInts(w, e.Comp)
	}
	if e.Budget > 0 {
		w.put(binary.AppendUvarint(nil, uint64(e.Budget)))
		w.put(flagBlock(e.InFull))
		w.put(flagBlock(e.OutFull))
	}
	writeInts(w, x.ord.Ranks())
	if w.err != nil {
		return w.n, w.err
	}

	perSection := blocksFor(x.n)
	blocks := 2 * perSection
	// A worker decodes the block's lists out of the layout into its own
	// s, once, and codes them from there.
	encode := func(i int, buf []byte, s *blockLists) ([]byte, error) {
		appendList := x.AppendInLabels
		if i >= perSection {
			appendList, i = x.AppendOutLabels, i-perSection
		}
		v0, v1 := i*blockValues, min((i+1)*blockValues, x.n)
		s.fill(appendList, v0, v1)
		return appendLabelBlock(buf, func(v graph.VertexID) []order.Rank { return s.list(int(v) - v0) }, x.ord.Ranks(), v0, v1, x.n)
	}

	// Workers take block numbers in order, but each must first take one
	// of the window buffers to encode into, and a buffer returns to the
	// free list only when the block it held has been written. So at most
	// window blocks are ahead of the writer, block i owns
	// ready[i%window], and memory is bounded by window buffers however
	// large the index.
	type encoded struct {
		block []byte
		err   error
	}
	workers := min(runtime.GOMAXPROCS(0), blocks)
	window := 2 * workers
	free := make(chan []byte, window)
	ready := make([]chan encoded, window)
	for i := range ready {
		free <- nil
		ready[i] = make(chan encoded, 1)
	}
	var next atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s blockLists
			for {
				var buf []byte
				select {
				case buf = <-free:
				case <-stop:
					return
				}
				i := int(next.Add(1) - 1)
				if i >= blocks {
					return
				}
				block, err := encode(i, buf, &s)
				ready[i%window] <- encoded{block, err}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < blocks; i++ {
		enc := <-ready[i%window]
		if enc.err != nil {
			return w.n, enc.err
		}
		if w.put(enc.block); w.err != nil {
			return w.n, w.err
		}
		free <- enc.block[:0]
	}
	return w.n, nil
}

// Read deserializes an index written by WriteTo — a file with no
// optional part; one that has any belongs to reachlab.ReadIndex.
func Read(r io.Reader) (*Index, error) {
	x, e, err := ReadWith(r)
	if err == nil && (e.Graph != nil || e.Comp != nil || e.Budget > 0) {
		return nil, errors.New("label: this index file carries a graph fingerprint, a component table or a label budget; open it with reachlab.ReadIndex")
	}
	return x, err
}

// ReadWith deserializes an index written by WriteWith and the optional
// parts its file carries. The calling goroutine reads the blocks in
// order; GOMAXPROCS goroutines decode them.
func ReadWith(r io.Reader) (*Index, Extras, error) {
	var e Extras
	br := bufio.NewReader(r)
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, e, fmt.Errorf("label: reading index header: %w", err)
	}
	if slices.Contains(retiredMagics, h.Magic) {
		return nil, e, errors.New("label: this index file is in a retired format; rebuild the index")
	}
	if h.Magic != indexMagic {
		return nil, e, errors.New("label: not an index file (bad magic)")
	}
	if h.N > 1<<31 || h.NIn > 1<<40 || h.NOut > 1<<40 || h.Parts > partGraph|partComp|partBudget || h.Parts&(partGraph|partBudget) == partBudget {
		return nil, e, fmt.Errorf("label: implausible index header n=%d parts=%#x", h.N, h.Parts)
	}
	n, n64, nIn, nOut := int(h.N), uint64(h.N), h.NIn, h.NOut
	e, err := readExtras(br, h.Parts, n)
	if err != nil {
		return nil, e, fmt.Errorf("label: reading %w", err)
	}
	ordRanks, err := readInts[order.Rank](br, n, n64)
	if err != nil {
		return nil, e, fmt.Errorf("label: reading rank permutation: %w", err)
	}
	// n values have arrived, so n is no longer just a claim and may
	// size allocations.
	seen := make([]bool, n)
	for v, r := range ordRanks {
		if seen[r] {
			return nil, e, fmt.Errorf("label: corrupt rank %d for vertex %d", r, v)
		}
		seen[r] = true
	}

	d := newBlockDecoder(n)
	x := &Index{n: n}
	if x.in, err = d.readLabels(br, ordRanks, nIn); err == nil {
		x.out, err = d.readLabels(br, ordRanks, nOut)
	}
	if derr := d.wait(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, e, fmt.Errorf("label: reading labels: %w", err)
	}
	x.ord = order.FromRanks(ordRanks)
	return x, e, nil
}

// readExtras reads the optional parts the header announces for an index
// of n vertices and checks each against n: component IDs and flagged
// vertices are below it, and the fingerprint is of a graph of as many
// vertices as the index answers for.
func readExtras(br *bufio.Reader, parts uint32, n int) (e Extras, err error) {
	covered := uint64(n)
	if parts&partGraph != 0 {
		e.Graph = new(graph.Fingerprint)
		if err := binary.Read(br, binary.LittleEndian, e.Graph); err != nil {
			return e, fmt.Errorf("graph fingerprint: %w", noEOF(err))
		}
	}
	if parts&partComp != 0 {
		if covered, err = binary.ReadUvarint(br); err == nil && covered > 1<<31 {
			err = fmt.Errorf("implausible size %d", covered)
		}
		if err == nil {
			e.Comp, err = readInts[int32](br, int(covered), uint64(n))
		}
		if err != nil {
			return e, fmt.Errorf("component table: %w", noEOF(err))
		}
	}
	if e.Graph != nil && int64(e.Graph.N) != int64(covered) {
		return e, fmt.Errorf("graph fingerprint: it is of a graph of %d vertices, the index covers %d", e.Graph.N, covered)
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

// decodeJob is one block on its way to a decode worker.
type decodeJob struct {
	payload []byte
	ranks   []order.Rank // of the block's vertices
	entries int
	dst     *chunk // where the block's chunk goes
}

// blockDecoder is Read's worker pool. The reader goroutine calls
// readLabels once per section and then wait; workers decode blocks
// into the chunks the reader assigned them.
type blockDecoder struct {
	n       int
	jobs    chan decodeJob // holds every block of both sections: the reader never waits to hand one over
	workers sync.WaitGroup
	once    sync.Once
	err     error
}

func newBlockDecoder(n int) *blockDecoder {
	d := &blockDecoder{n: n, jobs: make(chan decodeJob, 2*blocksFor(n))}
	for wk := min(runtime.GOMAXPROCS(0), cap(d.jobs)); wk > 0; wk-- {
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			var s blockLists
			for j := range d.jobs {
				if err := decodeLabelBlock(j.payload, j.ranks, j.entries, d.n, &s); err != nil {
					d.once.Do(func() { d.err = err })
					continue
				}
				*j.dst, _ = chunkOf(len(s.ends), s.list)
			}
		}()
	}
	return d
}

// wait stops the workers once they have decoded everything handed out
// and returns the first decode error.
func (d *blockDecoder) wait() error {
	close(d.jobs)
	d.workers.Wait()
	return d.err
}

// readLabels reads one labels section of total entries, the lists of
// the vertices of these ranks, and hands each block to the workers as
// it arrives, to be decoded into its own chunk; the layout it returns is
// complete once wait returns. A worker decodes through a scratch list
// buffer of its own, so nothing the size of the section is allocated
// but its chunks.
func (d *blockDecoder) readLabels(br *bufio.Reader, ranks []order.Rank, total uint64) (layout, error) {
	l := layout{chunks: make([]chunk, blocksFor(d.n)), entries: int64(total)}
	var sum uint64
	for k := range l.chunks {
		v0, v1 := k*blockValues, min((k+1)*blockValues, d.n)
		entries, payload, err := readBlock(br, nil, 8)
		if err != nil {
			return layout{}, err
		}
		if sum += entries; sum > total {
			return layout{}, fmt.Errorf("corrupt block: the %d entries of the vertices from %d exceed the header's count", entries, v0)
		}
		d.jobs <- decodeJob{payload: payload, ranks: ranks[v0:v1], entries: int(entries), dst: &l.chunks[k]}
	}
	if sum != total {
		return layout{}, fmt.Errorf("corrupt index: %d label entries where the header counts %d", sum, total)
	}
	return l, nil
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
