package label

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/order"
)

// The codecs of an index file's payloads (io.go has the framing): Rice
// codes in a bit stream under a model of parameters fitted per block,
// the permutation's zigzag gaps, and the labels blocks — a shape per
// vertex, then per rank a list coded alone or against the union of up to
// four of its closest hubs' lists. DESIGN.md §11 is the normative
// description.

// A value is Rice-coded: v>>k ones, a zero, v's low k bits. From
// riceEscape ones on the code is those ones and v in 32 bits, so no
// value costs more than 52 bits whatever the parameter.
const (
	riceEscape = 20
	maxRiceK   = 31
)

// riceCode returns v's code under parameter k, and its width.
func riceCode(v uint32, k uint8) (code uint64, width uint) {
	if q := v >> k; q < riceEscape {
		return uint64(1)<<q - 1 | uint64(v&(1<<k-1))<<(q+1), uint(q) + 1 + uint(k)
	}
	return 1<<riceEscape - 1 | uint64(v)<<riceEscape, riceEscape + 32
}

// riceWidth is the width riceCode returns.
func riceWidth(v uint32, k uint8) uint64 {
	if q := v >> k; q < riceEscape {
		return uint64(q) + 1 + uint64(k)
	}
	return riceEscape + 32
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
		return errors.New("corrupt block: the codes run past the payload's end")
	case pad >= 8:
		return fmt.Errorf("corrupt block: %d bytes left over", pad/8)
	case r.acc&(1<<pad-1) != 0:
		return errors.New("corrupt block: padding bits set")
	}
	return nil
}

// The permutation: per block of ranks, the parameter that codes the
// block in the fewest bits (the least such), then per rank
// rice(k, zigzag(v − prev)) of its vertex v, prev the vertex of the rank
// before it in the block, 0 for the block's first. Any permutation
// codes; the degree order, hundreds of runs of descending IDs, codes in
// a few bits a vertex.

func zigzag(d int64) uint32 { return uint32(d<<1 ^ d>>63) }

// appendPermBlock codes vs, one block of the rank→vertex sequence, into
// buf as a finished block.
func appendPermBlock(buf []byte, vs []graph.VertexID) []byte {
	var z [blockValues]uint32
	prev, top := int64(0), uint32(0)
	for i, v := range vs {
		z[i] = zigzag(int64(v) - prev)
		prev, top = int64(v), max(top, z[i])
	}
	// Past the bit length of the largest value every code is 1 + k bits,
	// so no larger parameter can do better.
	k, best := uint8(0), ^uint64(0)
	for kk := uint8(0); int(kk) <= min(bits.Len32(top), maxRiceK); kk++ {
		var sum uint64
		for _, v := range z[:len(vs)] {
			sum += riceWidth(v, kk)
		}
		if sum < best {
			k, best = kk, sum
		}
	}
	buf = sized(buf, blockHeaderRoom+1+7*len(vs)+8)
	buf[blockHeaderRoom] = k
	w := bitWriter{b: buf, pos: blockHeaderRoom + 1}
	for _, v := range z[:len(vs)] {
		w.put(riceCode(v, k))
	}
	return sealBlock(buf, w.end(), int64(len(vs)))
}

// readPermutation reads the permutation of an index of n vertices. The
// sequence grows only as blocks arrive, so a false n fails at the first
// missing block instead of forcing a giant allocation, and it becomes
// the Ordering's own rank→vertex table.
func readPermutation(br *checkedReader, n int) (*order.Ordering, error) {
	vs := make([]graph.VertexID, 0, min(n, blockValues))
	var buf []byte
	for len(vs) < n {
		want := min(n-len(vs), blockValues)
		entries, payload, err := readBlock(br, buf, 8)
		if err != nil {
			return nil, err
		}
		buf = payload
		if entries != uint64(want) {
			return nil, fmt.Errorf("corrupt block: %d values where %d belong", entries, want)
		}
		if len(payload) == 0 || payload[0] > maxRiceK {
			return nil, fmt.Errorf("corrupt block: no Rice parameter, or one above %d", maxRiceK)
		}
		vs = grow(vs, want, n)
		r := bitReader{b: payload[1:]}
		prev := int64(0)
		for i := 0; i < want; i++ {
			z := r.rice(payload[0])
			v := prev + (int64(z>>1) ^ -int64(z&1))
			if v < 0 || v >= int64(n) {
				return nil, fmt.Errorf("corrupt block: a permutation gap leaves [0, %d)", n)
			}
			vs = append(vs, graph.VertexID(v))
			prev = v
		}
		if err := r.end(); err != nil {
			return nil, err
		}
	}
	ord := order.FromVertices(vs)
	if ord == nil {
		return nil, errors.New("corrupt permutation: a vertex at two ranks")
	}
	return ord, nil
}

// The model of a labels block: one Rice parameter per slot. slotGap+b
// codes the gap of a rank whose list could continue from a rank of b
// bits (bits.Len32(next)): ranks are degree-ordered, so gaps grow with
// where they start.
const (
	slotLen   = iota // a shape's len′<<1 | selfLast
	slotWide         // a shape's explicit second-tier count
	slotHubs         // how many hubs a list names
	slotHub          // the rank of a hub it names
	slotDrops        // how many of its hubs' union's entries it drops
	slotDrop         // a dropped position, as a gap
	slotGap          // the first of the gap slots
	numSlots  = slotGap + 33

	// inheritsFlag, in a model's first byte above kLen, says the block's
	// lists carry a hub count and may inherit.
	inheritsFlag = 0x80
)

type riceModel [numSlots]uint8

// gapSlots returns how many gap parameters the blocks of an index of n
// vertices carry: one per bit length a rank below n can have.
func gapSlots(n int) int { return 1 + bits.Len32(uint32(max(n, 1)-1)) }

// modelSlots appends to dst the slots a block's model carries, in the
// order it carries them: kLen, kWide where ranks reach the second tier,
// kHubs kHub kDrops kDrop where lists may inherit, and the gap slots.
func modelSlots(dst []uint8, n int, inherits bool) []uint8 {
	dst = append(dst, slotLen)
	if n > wideFrom {
		dst = append(dst, slotWide)
	}
	if inherits {
		dst = append(dst, slotHubs, slotHub, slotDrops, slotDrop)
	}
	for s := 0; s < gapSlots(n); s++ {
		dst = append(dst, uint8(slotGap+s))
	}
	return dst
}

// parseModel takes a labels block's model off its payload.
func parseModel(payload []byte, n int) (m riceModel, inherits bool, rest []byte, err error) {
	if len(payload) == 0 {
		return m, false, nil, errors.New("corrupt block: shorter than its model")
	}
	inherits = payload[0]&inheritsFlag != 0
	var buf [numSlots]uint8
	slots := modelSlots(buf[:0], n, inherits)
	if len(payload) < len(slots) {
		return m, false, nil, errors.New("corrupt block: shorter than its model")
	}
	for i, s := range slots {
		m[s] = payload[i]
	}
	if m[slotLen] &^= inheritsFlag; slices.Max(m[:]) > maxRiceK {
		return m, false, nil, fmt.Errorf("corrupt block: a Rice parameter above %d", maxRiceK)
	}
	return m, inherits, payload[len(slots):], nil
}

// A symbol is one value of a labels block's stream and the slot of the
// model it is coded under.
type symbol struct {
	slot uint8
	v    uint32
}

// fit returns the parameters the symbols are coded with: per slot
// ⌊log₂(0.96 · mean)⌋ of the values it codes, the Rice parameter that
// takes the fewest bits for a geometric distribution of that mean.
// Integer arithmetic on sums, so a block's bytes are a function of its
// symbols.
func fit(groups ...[]symbol) (m riceModel) {
	var sum, count [numSlots]uint64
	for _, syms := range groups {
		for _, s := range syms {
			sum[s.slot] += uint64(s.v)
			count[s.slot]++
		}
	}
	for i, c := range count {
		if x := sum[i] - sum[i]>>5 - sum[i]>>7; c > 0 && x >= c {
			m[i] = uint8(min(bits.Len64(x/c)-1, maxRiceK))
		}
	}
	return m
}

// bits returns the width of syms coded under m.
func (m *riceModel) bits(syms []symbol) (n uint64) {
	for _, s := range syms {
		n += riceWidth(s.v, m[s.slot])
	}
	return n
}

// symbols writes syms coded under m.
func (w *bitWriter) symbols(m *riceModel, syms []symbol) {
	for _, s := range syms {
		w.put(riceCode(s.v, m[s.slot]))
	}
}

// explicit returns the entries of a list that are written, and 1 if its
// last one — self, its vertex's own rank — is left to the permutation.
func explicit(list []order.Rank, self order.Rank) ([]order.Rank, uint32) {
	if k := len(list) - 1; k >= 0 && list[k] == self {
		return list[:k], 1
	}
	return list, 0
}

// appendGaps appends the gap symbols of ranks, which must be strictly
// ascending and below n — the gap coding cannot express anything else —
// and returns the least rank the list could continue with; ok is false
// if they are not.
func appendGaps(syms []symbol, ranks []order.Rank, n int) (_ []symbol, next uint32, ok bool) {
	for _, r := range ranks {
		if r < 0 || uint32(r) < next || int64(r) >= int64(n) {
			return syms, next, false
		}
		syms = append(syms, symbol{uint8(slotGap + bits.Len32(next)), uint32(r) - next})
		next = uint32(r) + 1
	}
	return syms, next, true
}

const (
	// maxHubs is how many hubs an inheriting list may name.
	maxHubs = 4

	// hubCandidates is how many hubs each round of a list's cover
	// tries: its last ranks below its vertex's own that no hub named so
	// far covers — the closest hubs, whose lists it most nearly contains.
	hubCandidates = 4
)

// A hubCover is an ascending list as the union U of the lists of the
// hubs it names leaves it: which of its ranks U holds, and U's ranks it
// lacks.
type hubCover struct {
	hubs    []order.Rank // ascending
	covered []uint64     // bit i (of word i/64) set where U holds the list's i-th rank
	lacked  []lackedRank // U's ranks the list lacks, ascending
	left    int          // how many of the list's ranks U does not hold
}

// A lackedRank is a rank r a list lacks, and how many of the list's
// ranks are below it: r<<32 | below, so that they order as their ranks.
type lackedRank uint64

// reset makes c the cover of a list of length ranks by no hub.
func (c *hubCover) reset(length int) {
	words := (length + 63) / 64
	c.hubs, c.lacked, c.left = c.hubs[:0], c.lacked[:0], length
	c.covered = slices.Grow(c.covered[:0], words)[:words]
	clear(c.covered)
}

// A hubMatch is how a candidate hub's list meets a list, found in one
// merge: which of the list's ranks they share, and the hub's ranks the
// list lacks.
type hubMatch struct {
	hub    order.Rank
	shared []uint64 // bit i set where the list's i-th rank is the hub's too
	lacked []lackedRank
}

// match finds how hub, the list of rank h, meets list.
func (m *hubMatch) match(list []order.Rank, h order.Rank, hub []order.Rank) {
	lacked := slices.Grow(m.lacked[:0], len(hub))[:len(hub)]
	shared := slices.Grow(m.shared[:0], (len(list)+63)/64)[:(len(list)+63)/64]
	clear(shared)
	// No branch on the ranks: a merge of two such lists would mispredict
	// one at nearly every rank of the hub's.
	i, j, k := 0, 0, 0
	for i < len(list) && j < len(hub) {
		a, b := list[i], hub[j]
		lacked[k] = lackedRank(b)<<32 | lackedRank(i)
		k += int(bit(a > b))
		shared[uint(i)/64] |= uint64(bit(a == b)) << (uint(i) % 64)
		i += int(bit(a <= b))
		j += int(bit(a >= b))
	}
	for ; j < len(hub); j++ {
		lacked[k] = lackedRank(hub[j])<<32 | lackedRank(len(list))
		k++
	}
	m.hub, m.shared, m.lacked = h, shared, lacked[:k]
}

// with makes c the cover from with m's hub named too, and returns its
// gain: how many more of the list's ranks c holds, less how many more
// ranks it holds that the list lacks.
func (c *hubCover) with(from *hubCover, m *hubMatch) int {
	c.hubs = append(append(c.hubs[:0], from.hubs...), m.hub)
	for k := len(c.hubs) - 1; k > 0 && c.hubs[k-1] > c.hubs[k]; k-- {
		c.hubs[k-1], c.hubs[k] = c.hubs[k], c.hubs[k-1]
	}
	c.covered = append(c.covered[:0], from.covered...)
	added := 0
	for w, shared := range m.shared {
		added += bits.OnesCount64(shared &^ c.covered[w])
		c.covered[w] |= shared
	}
	c.left = from.left - added
	c.lacked = union(c.lacked[:0], from.lacked, m.lacked)
	return added - (len(c.lacked) - len(from.lacked))
}

// bit is 1 for true, 0 for false.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// union appends to dst the union of the ascending a and b, ascending, in
// a merge that does not branch on their values.
func union[T lackedRank | uint32](dst, a, b []T) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))[:n+len(a)+len(b)]
	out := dst[n:]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		out[k] = min(x, y)
		k++
		i += int(bit(x <= y))
		j += int(bit(x >= y))
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return dst[:n+k]
}

// code returns the width of list's code against c as an estimate
// weighs it before its block's model is fitted — each hub's rank at one
// bit more than its bit length, the drop count and positions as Elias γ
// codes, the gaps under m, the model of the block's lists coded alone —
// and, with emit, appends that code to syms: the hub count, the hubs'
// ranks, the count and gap-coded positions in U of the ranks list lacks,
// and the gaps of list's ranks U lacks. The hub count is left out of the
// width, as it is from the alone code that width is weighed against.
func (c *hubCover) code(syms []symbol, list []order.Rank, m *riceModel, emit bool) ([]symbol, uint64) {
	if emit {
		syms = append(syms, symbol{slotHubs, uint32(len(c.hubs))})
	}
	width := gammaWidth(uint32(len(c.lacked)))
	for _, h := range c.hubs {
		if width += uint64(bits.Len32(uint32(h))) + 1; emit {
			syms = append(syms, symbol{slotHub, uint32(h)})
		}
	}
	if emit {
		syms = append(syms, symbol{slotDrops, uint32(len(c.lacked))})
	}
	next := uint32(0)
	for k, e := range c.lacked {
		// e's place in U: behind the list's ranks U holds that are below
		// it, and the k lacked ranks before it.
		pos := uint32(onesBelow(c.covered, int(uint32(e))) + k)
		if width += gammaWidth(pos - next); emit {
			syms = append(syms, symbol{slotDrop, pos - next})
		}
		next = pos + 1
	}
	next = 0
	for w, held := range c.covered {
		free := ^held
		if rest := len(list) - 64*w; rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			r := uint32(list[64*w+bits.TrailingZeros64(free)])
			slot := uint8(slotGap + bits.Len32(next))
			if width += riceWidth(r-next, m[slot]); emit {
				syms = append(syms, symbol{slot, r - next})
			}
			next = r + 1
		}
	}
	return syms, width
}

// onesBelow returns how many of the bits below bit i of words are set.
func onesBelow(words []uint64, i int) (n int) {
	for _, w := range words[:i/64] {
		n += bits.OnesCount64(w)
	}
	if i%64 != 0 {
		n += bits.OnesCount64(words[i/64] & (1<<(i%64) - 1))
	}
	return n
}

// perm is the order a labels section is coded under. *order.Ordering
// is one; a test codes blocks of a vertex count no Ordering could hold.
type perm interface {
	N() int
	RankOf(graph.VertexID) order.Rank
	VertexAt(order.Rank) graph.VertexID
}

// side is one direction of an index as its lists are read: the layout,
// and on a patched index the lists that override it.
type side struct {
	l    *layout
	over *graph.Overlay[order.Rank]
}

func (x *Index) sides() (in, out side) {
	in, out = side{l: &x.in}, side{l: &x.out}
	if x.patch != nil {
		in.over, out.over = x.patch.in, x.patch.out
	}
	return in, out
}

// appendList appends v's list to dst.
func (s side) appendList(dst []order.Rank, v graph.VertexID) []order.Rank {
	if l, ok := s.over.Get(v); ok {
		return append(dst, l...)
	}
	return s.l.appendList(dst, v)
}

// shape returns what the shape stream says of v's list, own being v's
// rank: how many ranks are written (len′), whether the last is own and
// left out (selfLast), and how many of the written are in the second
// tier.
func (s side) shape(v graph.VertexID, own order.Rank) (length, self, wide uint32) {
	if l, ok := s.over.Get(v); ok {
		list, self := explicit(l, own)
		return uint32(len(list)), self, wideCount(list)
	}
	narrow, w, implicit := s.l.tiers(v)
	length, wide = uint32(len(narrow)+len(w)/2), uint32(len(w)/2)
	switch {
	case implicit:
		self = 1
	case len(w) == 0 && len(narrow) > 0 && uint32(narrow[len(narrow)-1]) == uint32(own):
		length, self = length-1, 1
	}
	return length, self, wide
}

// largestBlock returns the most ranks the lists of one block hold: the
// lists of a labels block are those of consecutive ranks.
func (s side) largestBlock(ord perm) int {
	most := 0
	for r0 := 0; r0 < ord.N(); r0 += blockValues {
		entries := 0
		for r := order.Rank(r0); int(r) < min(r0+blockValues, ord.N()); r++ {
			length, self, _ := s.shape(ord.VertexAt(r), r)
			entries += int(length + self)
		}
		most = max(most, entries)
	}
	return most
}

// labelCoder encodes labels blocks, its buffers reused block after
// block: one per writer goroutine.
type labelCoder struct {
	lists                blockLists   // the block's lists, in rank order
	hub                  []order.Rank // a candidate hub's list
	matches              []hubMatch   // how the hubs tried for a list meet it, in the order tried
	covers               [3]hubCover  // a list's cover, and it with the best and with the next candidate
	code                 []symbol     // a list's code against its cover
	shapes, alone, mixed []symbol     // the block's codes: shapes, and its lists alone or some inheriting
}

// size gives c's block buffers room for a block of at most entries
// ranks, so that coding the blocks of one file grows none of them.
func (c *labelCoder) size(entries int) {
	c.lists.lab = make([]order.Rank, 0, entries+1) // appendList asks room for one more
	c.lists.ends = make([]int, 0, blockValues)
	c.shapes = make([]symbol, 0, 2*blockValues)
	c.alone = make([]symbol, 0, entries)
	c.mixed = make([]symbol, 0, entries+blockValues)
	c.matches = make([]hubMatch, 0, maxHubs*hubCandidates)
}

// appendLabelBlock codes block k of the labels section s under ord
// into buf as a finished block: the shapes of the block's vertices, then
// the lists of its ranks. Those lists are coded alone under a model
// fitted to them; where that codes the block in more bits, they are
// coded again with a hub count each, a list inheriting where an estimate
// under the first model says that is the cheaper, under a model fitted
// to that. A block's bytes depend on the label sets alone.
func (c *labelCoder) appendLabelBlock(buf []byte, s side, ord perm, k int) ([]byte, error) {
	n := ord.N()
	v0, v1 := k*blockValues, min((k+1)*blockValues, n)
	c.shapes = c.shapes[:0]
	entries := 0
	for v := graph.VertexID(v0); int(v) < v1; v++ {
		length, self, wide := s.shape(v, ord.RankOf(v))
		entries += int(length + self)
		c.shapes = append(c.shapes, symbol{slotLen, length<<1 | self})
		if n > wideFrom && length > 0 {
			c.shapes = append(c.shapes, symbol{slotWide, wide})
		}
	}

	c.lists.fill(func(dst []order.Rank, r graph.VertexID) []order.Rank {
		return s.appendList(dst, ord.VertexAt(order.Rank(r)))
	}, v0, v1)
	c.alone = c.alone[:0]
	for r := v0; r < v1; r++ {
		list, self := explicit(c.lists.list(r-v0), order.Rank(r))
		var next uint32
		var ok bool
		if c.alone, next, ok = appendGaps(c.alone, list, n); !ok || self != 0 && next > uint32(r) || len(list) > math.MaxInt32 {
			return nil, fmt.Errorf("label: vertex %d's label list is not a strictly ascending set of ranks below %d; it cannot be serialized", ord.VertexAt(order.Rank(r)), n)
		}
	}
	lists, m, inherits := c.alone, fit(c.alone), false
	if mixed := c.inheriting(s, ord, k, &m); mixed != nil {
		lists, inherits = mixed, true
	}
	m = fit(c.shapes, lists)
	var slots [numSlots]uint8
	model := modelSlots(slots[:0], n, inherits)
	// The writer stores 8 bytes at a time.
	buf = sized(buf, blockHeaderRoom+len(model)+int((m.bits(c.shapes)+m.bits(lists)+7)/8)+8)
	for i, s := range model {
		buf[blockHeaderRoom+i] = m[s]
	}
	if inherits {
		buf[blockHeaderRoom] |= inheritsFlag
	}
	w := bitWriter{b: buf, pos: blockHeaderRoom + len(model)}
	w.symbols(&m, c.shapes)
	w.symbols(&m, lists)
	return sealBlock(buf, w.end(), int64(entries)), nil
}

// inheriting codes block k's lists with a hub count each, every list
// against its cover, and returns those symbols if they take fewer bits
// than c.alone, the four more model bytes included; nil otherwise.
func (c *labelCoder) inheriting(s side, ord perm, k int, alone *riceModel) []symbol {
	v0, v1 := k*blockValues, min((k+1)*blockValues, ord.N())
	c.mixed = c.mixed[:0]
	inheriting := false
	at := 0 // where the list's gaps are in c.alone
	for r := v0; r < v1; r++ {
		list, _ := explicit(c.lists.list(r-v0), order.Rank(r))
		gaps := c.alone[at : at+len(list)]
		if at += len(list); len(list) == 0 {
			continue
		}
		if code := c.cover(s, ord, list, order.Rank(r), alone, alone.bits(gaps)); len(code) > 0 {
			c.mixed, inheriting = append(c.mixed, code...), true
		} else {
			c.mixed = append(append(c.mixed, symbol{slotHubs, 0}), gaps...)
		}
	}
	if !inheriting {
		return nil // the hub counts alone make it longer
	}
	m := fit(c.mixed)
	if m.bits(c.mixed)+4*8 >= alone.bits(c.alone) {
		return nil
	}
	return c.mixed
}

// cover returns the code of list, of rank own, against the hubs a greedy
// cover names, or nothing where coding it alone, in cost bits, is no
// longer. Round by round, the candidate whose list gains most (see hubCover.with; the
// closest on a tie) is named while the estimate under alone, the model
// of the block's lists coded alone, says that shortens the list's code,
// and up to maxHubs of them. A list's cover depends on the label sets
// alone.
func (c *labelCoder) cover(s side, ord perm, list []order.Rank, own order.Rank, alone *riceModel, cost uint64) []symbol {
	cur := &c.covers[0]
	cur.reset(len(list))
	c.matches = c.matches[:0]
	for len(cur.hubs) < maxHubs {
		next := c.candidate(s, ord, cur, list, own)
		if next == nil {
			break
		}
		_, width := next.code(nil, list, alone, false)
		if width >= cost {
			break
		}
		cost, cur = width, next
	}
	if len(cur.hubs) == 0 {
		return nil
	}
	c.code, _ = cur.code(c.code[:0], list, alone, true)
	return c.code
}

// candidate returns cur with one more hub: of list's last hubCandidates
// ranks below own that cur neither holds nor names, the one whose list
// gains most, the closest (highest rank) on a tie; nil if there is none.
// How a hub meets list does not depend on the cover, so a hub tried in
// an earlier round is matched once.
func (c *labelCoder) candidate(s side, ord perm, cur *hubCover, list []order.Rank, own order.Rank) *hubCover {
	var best *hubCover
	most, tried := 0, 0
	for w := len(cur.covered) - 1; w >= 0; w-- {
		free := ^cur.covered[w] // the ranks U lacks, the last first
		if rest := len(list) - 64*w; rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0 && tried < hubCandidates; free &^= 1 << (bits.Len64(free) - 1) {
			h := list[64*w+bits.Len64(free)-1]
			if h >= own || slices.Contains(cur.hubs, h) {
				continue
			}
			tried++
			m := c.matchOf(s, ord, list, h)
			try := c.spare(cur, best)
			if g := try.with(cur, m); best == nil || g > most {
				best, most = try, g // on a tie the earlier, closer candidate stands
			}
		}
	}
	return best
}

// matchOf returns how hub h, a rank of list, meets it: the match found
// when h was first tried for list, or a new one.
func (c *labelCoder) matchOf(s side, ord perm, list []order.Rank, h order.Rank) *hubMatch {
	for i := range c.matches {
		if c.matches[i].hub == h {
			return &c.matches[i]
		}
	}
	c.matches = slices.Grow(c.matches, 1)[:len(c.matches)+1] // the slot's buffers, from a list before
	m := &c.matches[len(c.matches)-1]
	c.hub = s.appendList(c.hub[:0], ord.VertexAt(h))
	m.match(list, h, c.hub)
	return m
}

// spare returns the one of c.covers that is neither a nor b.
func (c *labelCoder) spare(a, b *hubCover) *hubCover {
	for i := range c.covers {
		if p := &c.covers[i]; p != a && p != b {
			return p
		}
	}
	panic("unreachable")
}

// gammaWidth is the width of v + 1's Elias γ code.
func gammaWidth(v uint32) uint64 { return uint64(2*bits.Len64(uint64(v)+1) - 1) }

// A section is one labels section between its reading and its
// decoding: its chunks, allocated at their final size from the shapes —
// a shape's selfLast is its word's selfBit where the own rank is in the
// second tier, and otherwise a slot the reader puts it in — and per
// block the model and the bit stream of its lists, which decodeLists
// takes in rank order.
type section struct {
	l      layout
	ord    perm
	self   []uint64 // bit v set where v's list ends with its own first-tier rank, not written
	blocks []listStream
}

// listStream is one labels block's model and its lists' bits.
type listStream struct {
	m        riceModel
	inherits bool
	r        bitReader
}

// unionScratch is the decoder's room for one inheriting list:
// the union of its hubs' lists, at most maxHubs times the longest list,
// and its dropped positions.
type unionScratch struct {
	union, merged, hub []uint32
	drops              []uint32
}

// readSection reads one labels section of total entries under ord and
// reads each block's shapes as it arrives. An inherited entry costs no
// bits, so a block's entry count is bounded by its shapes — each list
// at most n entries, all of them adding up to the count — and the
// header's total, not by its bytes.
func readSection(br *checkedReader, ord perm, total uint64) (*section, error) {
	n := ord.N()
	s := &section{l: layout{ord: ord, chunks: make([]chunk, blocksFor(n)), entries: int64(total)}, ord: ord, self: make([]uint64, (n+63)/64), blocks: make([]listStream, blocksFor(n))}
	var sum uint64
	var shapes []shape
	for k := range s.l.chunks {
		entries, payload, err := readBlock(br, nil, 0)
		if err != nil {
			return nil, err
		}
		if sum += entries; sum > total {
			return nil, fmt.Errorf("corrupt block: the %d entries of the vertices from %d exceed the header's count", entries, k*blockValues)
		}
		if s.l.chunks[k], shapes, err = s.blocks[k].readShapes(payload, ord, k, entries, shapes[:0], s.self); err != nil {
			return nil, err
		}
	}
	if sum != total {
		return nil, fmt.Errorf("corrupt index: %d label entries where the header counts %d", sum, total)
	}
	return s, nil
}

// readShapes reads block k's model and the shapes of its vertices into
// shapes (returned, for the next block to reuse), sets the bits of self
// of those whose own first-tier rank ends their list, and returns their
// chunk, allocated at its final size. The stream is left where the
// block's lists start.
func (b *listStream) readShapes(payload []byte, ord perm, k int, entries uint64, shapes []shape, self []uint64) (chunk, []shape, error) {
	n := ord.N()
	var err error
	if b.m, b.inherits, payload, err = parseModel(payload, n); err != nil {
		return chunk{}, shapes, err
	}
	b.r = bitReader{b: payload}
	v0, v1 := k*blockValues, min((k+1)*blockValues, n)
	for i := range v1 - v0 {
		hdr := b.r.rice(b.m[slotLen])
		length, last := uint64(hdr>>1), uint64(hdr&1)
		if length+last > entries {
			return chunk{}, shapes, errors.New("corrupt block: list length beyond the block's entry count")
		}
		if length+last > uint64(n) {
			return chunk{}, shapes, fmt.Errorf("corrupt block: a list of %d ranks below %d", length+last, n)
		}
		entries -= length + last
		wide := uint64(0)
		if n > wideFrom && length > 0 {
			if wide = uint64(b.r.rice(b.m[slotWide])); wide > length {
				return chunk{}, shapes, errors.New("corrupt block: a second-tier count beyond its list's length")
			}
		}
		sh := shape{narrow: uint32(length - wide), wide: uint32(wide)}
		if last != 0 {
			own := uint64(ord.RankOf(graph.VertexID(v0 + i)))
			if length > own || own < wideFrom && wide > 0 {
				return chunk{}, shapes, errors.New("corrupt block: a list's implicit last entry, its vertex's own rank, is not above the ranks before it")
			}
			if own >= wideFrom {
				sh.self = true
			} else {
				sh.narrow++
				self[(v0+i)/64] |= 1 << ((v0 + i) % 64)
			}
		}
		shapes = append(shapes, sh)
	}
	if entries != 0 {
		return chunk{}, shapes, errors.New("corrupt block: fewer entries than its header counts")
	}
	return allocChunk(shapes), shapes, nil
}

// decodeLists decodes the section's lists into the chunks readSection
// laid out, block after block and each block's in rank order, so a
// list's hubs, all of lower rank, are in place before it. A block's
// payload is let go once its lists are decoded.
func (s *section) decodeLists() error {
	var u unionScratch
	for k := range s.blocks {
		b := &s.blocks[k]
		for r := k * blockValues; r < min((k+1)*blockValues, s.ord.N()); r++ {
			if err := s.decodeList(b, uint32(r), &u); err != nil {
				return err
			}
		}
		if err := b.r.end(); err != nil {
			return err
		}
		*b = listStream{}
	}
	for k, c := range s.l.chunks {
		assertTiers(c, s.ord, k*blockValues)
	}
	return nil
}

var errRankRange = errors.New("corrupt block: rank out of range")

// decodeList decodes the list of rank own into the slots its shape gave
// it: alone, len′ gaps; or inheriting, the ranks of its hubs, the count
// and positions of the entries of their union it drops, and the gaps of
// the ranks it adds.
func (s *section) decodeList(b *listStream, own uint32, u *unionScratch) error {
	v := s.ord.VertexAt(order.Rank(own))
	narrow, wide, implicit := s.l.tiers(v)
	self := implicit || s.self[v/64]>>(v%64)&1 != 0
	if self && !implicit {
		narrow[len(narrow)-1] = uint16(own)
		narrow = narrow[:len(narrow)-1]
	}
	f := listFill{narrow: narrow, wide: wide}
	count := len(narrow) + len(wide)/2
	if count == 0 {
		return nil
	}
	n := uint64(s.ord.N())
	hubs := uint32(0)
	if b.inherits {
		hubs = b.r.rice(b.m[slotHubs])
	}
	if hubs > 0 {
		if err := s.inherit(b, &f, own, count, hubs, u); err != nil {
			return err
		}
	} else {
		for ; count > 0; count-- {
			r := uint64(f.next) + uint64(b.r.rice(b.m[slotGap+bits.Len32(f.next)]))
			if r >= n {
				return errRankRange
			}
			if !f.put(uint32(r)) {
				return f.err(uint32(r))
			}
		}
	}
	if self && f.next > own {
		return errors.New("corrupt block: a list's implicit last entry, its vertex's own rank, is not above the ranks before it")
	}
	return nil
}

// inherit decodes a list of count explicit entries that names hubs hubs
// into f: the union of the hubs' lists, merged in u, less the dropped
// positions, merged with the residual ranks, which are read one ahead
// of the merge.
func (s *section) inherit(b *listStream, f *listFill, own uint32, count int, hubs uint32, u *unionScratch) error {
	if hubs > maxHubs {
		return fmt.Errorf("corrupt block: a list names %d hubs, more than %d", hubs, maxHubs)
	}
	n := uint64(s.ord.N())
	u.union = u.union[:0]
	for k, next := 0, uint32(0); k < int(hubs); k++ {
		hub := b.r.rice(b.m[slotHub])
		switch {
		case hub >= own:
			return errors.New("corrupt block: a list inherits from a rank at or above its own")
		case hub < next:
			return errors.New("corrupt block: a list's hubs are not strictly ascending")
		}
		next = hub + 1
		narrow, wide, self := s.l.tiers(s.ord.VertexAt(order.Rank(hub)))
		u.add(narrow, wide, self, hub)
	}
	drops := b.r.rice(b.m[slotDrops])
	if uint64(drops) > uint64(len(u.union)) {
		return errors.New("corrupt block: a list drops more entries than its hubs' lists hold")
	}
	u.drops = u.drops[:0]
	for next := uint64(0); drops > 0; drops-- {
		p := next + uint64(b.r.rice(b.m[slotDrop]))
		if p >= uint64(len(u.union)) {
			return errors.New("corrupt block: a dropped position past the end of its hubs' lists")
		}
		u.drops = append(u.drops, uint32(p))
		next = p + 1
	}
	q := residuals{r: &b.r, m: &b.m, left: count - (len(u.union) - len(u.drops))}
	if q.left < 0 {
		return errors.New("corrupt block: a list inherits more entries than its shape holds")
	}
	if err := q.advance(n); err != nil {
		return err
	}
	d := 0
	for j, e := range u.union {
		if d < len(u.drops) && u.drops[d] == uint32(j) {
			d++
			continue
		}
		for q.head < uint64(e) {
			if !f.put(uint32(q.head)) {
				return f.err(uint32(q.head))
			}
			if err := q.advance(n); err != nil {
				return err
			}
		}
		if !f.put(e) {
			return f.err(e)
		}
	}
	for q.head != noResidual {
		if !f.put(uint32(q.head)) {
			return f.err(uint32(q.head))
		}
		if err := q.advance(n); err != nil {
			return err
		}
	}
	return nil
}

// add merges a list into the union, given as its two tiers and, where
// self says so, its last rank own, not stored.
func (u *unionScratch) add(narrow, wide []uint16, self bool, own uint32) {
	list := slices.Grow(u.hub[:0], len(narrow)+len(wide)/2+1)[:len(narrow)+len(wide)/2]
	for k, r := range narrow {
		list[k] = uint32(r)
	}
	for k := len(narrow); k < len(list); k++ {
		list[k] = wideAt(wide, 2*(k-len(narrow)))
	}
	if self {
		list = append(list, own)
	}
	if len(u.union) == 0 { // the first hub's list is the union so far
		u.union, u.hub = list, u.union
		return
	}
	u.union, u.merged, u.hub = union(u.merged[:0], u.union, list), u.union, list
}

// noResidual is residuals.head once none is left: above every rank.
const noResidual = 1 << 32

// residuals reads an inheriting list's residual ranks, ascending, one
// ahead: head is the next one to merge.
type residuals struct {
	r    *bitReader
	m    *riceModel
	left int
	next uint32 // the least rank the next one may be
	head uint64
}

func (q *residuals) advance(n uint64) error {
	if q.left == 0 {
		q.head = noResidual
		return nil
	}
	q.left--
	r := uint64(q.next) + uint64(q.r.rice(q.m[slotGap+bits.Len32(q.next)]))
	if r >= n {
		return errRankRange
	}
	q.head, q.next = r, uint32(r)+1
	return nil
}

// listFill puts one list's ranks, ascending, into the slots its shape
// gave it in a chunk: its first tier's, then its second's.
type listFill struct {
	narrow, wide []uint16
	i, j         int
	next         uint32 // the least rank the list may continue with
}

// put stores r and reports whether it could: above the ranks before it,
// and in its tier with a slot left. err says why it could not.
func (f *listFill) put(r uint32) bool {
	if r < f.next {
		return false
	}
	if r < wideFrom {
		if f.i == len(f.narrow) {
			return false
		}
		f.narrow[f.i] = uint16(r)
		f.i++
	} else {
		if f.j == len(f.wide) {
			return false
		}
		f.wide[f.j], f.wide[f.j+1] = uint16(r>>16), uint16(r)
		f.j += 2
	}
	f.next = r + 1
	return true
}

func (f *listFill) err(r uint32) error {
	if r < f.next {
		return errors.New("corrupt block: an inherited and an added rank collide")
	}
	return errors.New("corrupt block: a list's ranks disagree with its shape's tier counts")
}
