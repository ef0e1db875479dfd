package label

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// The reference encoder: the file grammar of DESIGN.md §11 written
// down once more, one goroutine, one append per value and per bit, no
// buffer reuse, its own model fit and its own cover of each list by hubs.
// WriteTo must produce these bytes whatever GOMAXPROCS is.

// blockPayload takes a block's header off: its entry count, its payload.
func blockPayload(block []byte) (entries uint64, payload []byte) {
	entries, k1 := binary.Uvarint(block)
	_, k2 := binary.Uvarint(block[k1:])
	return entries, block[k1+k2:]
}

// sealed appends the file's trailer to its bytes: their CRC-32C.
func sealed(file []byte) []byte {
	return binary.LittleEndian.AppendUint32(file, crc32.Checksum(file, crc32.MakeTable(crc32.Castagnoli)))
}

// resealed returns a copy of file whose last four bytes are the CRC-32C
// of those before them, as if they were its trailer.
func resealed(file []byte) []byte {
	if len(file) < 4 {
		return file
	}
	return sealed(slices.Clone(file[:len(file)-4]))
}

func refBlock(out []byte, entries int, payload []byte) []byte {
	out = binary.AppendUvarint(out, uint64(entries))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// refBits is a bit stream, a bool a bit.
type refBits []bool

func (b *refBits) uint(v uint64, width int) {
	for i := 0; i < width; i++ {
		*b = append(*b, v>>i&1 != 0)
	}
}

// rice appends v under parameter k: v>>k ones, a zero, v's low k bits;
// from 20 ones on, those and v in 32 bits.
func (b *refBits) rice(k int, v uint64) {
	q := min(v>>k, 20)
	for i := uint64(0); i < q; i++ {
		*b = append(*b, true)
	}
	if q == 20 {
		b.uint(v, 32)
		return
	}
	*b = append(*b, false)
	b.uint(v, k)
}

// bytes packs the stream, first bit lowest, zero bits to the last byte's end.
func (b refBits) bytes() []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, bit := range b {
		if bit {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// refWidth is how many bits rice(k, v) appends.
func refWidth(k int, v uint64) int {
	var b refBits
	b.rice(k, v)
	return len(b)
}

// refBitLen is the bit length of v: 0 for 0.
func refBitLen(v int64) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	return n
}

// refGamma is the width of v + 1's Elias γ code.
func refGamma(v uint64) int { return 2*refBitLen(int64(v+1)) - 1 }

// refParam is the parameter for count values that add up to sum:
// ⌊log₂(x/count)⌋ for x = sum − ⌊sum/32⌋ − ⌊sum/128⌋, 0 below 1.
func refParam(sum, count uint64) (k int) {
	if count == 0 {
		return 0
	}
	for mean := (sum - sum/32 - sum/128) / count; mean > 1; mean /= 2 {
		k++
	}
	return k
}

// refCode is one value of a labels block's stream and the name of the
// parameter it is coded under: "len", "wide", "hubs", "hub", "drops",
// "drop", "gap0" … "gap32".
type refCode struct {
	param string
	v     uint64
}

func refGap(next int64) string { return fmt.Sprintf("gap%d", refBitLen(next)) }

// refFit fits a parameter to each name's values.
func refFit(codes ...[]refCode) map[string]int {
	sum, count := map[string]uint64{}, map[string]uint64{}
	for _, cs := range codes {
		for _, c := range cs {
			sum[c.param] += c.v
			count[c.param]++
		}
	}
	m := map[string]int{}
	for p := range count {
		m[p] = refParam(sum[p], count[p])
	}
	return m
}

// refCost is the width of codes under m.
func refCost(m map[string]int, codes []refCode) int {
	bits := 0
	for _, c := range codes {
		bits += refWidth(m[c.param], c.v)
	}
	return bits
}

// refGaps codes ascending ranks as gaps from next: 0, then r + 1.
func refGaps(ranks []order.Rank) (codes []refCode) {
	next := int64(0)
	for _, r := range ranks {
		codes = append(codes, refCode{refGap(next), uint64(int64(r) - next)})
		next = int64(r) + 1
	}
	return codes
}

// refExplicit is the part of a list that is written: all of it, or all
// but a last entry that is own.
func refExplicit(list []order.Rank, own order.Rank) (written []order.Rank, self uint64) {
	if len(list) > 0 && list[len(list)-1] == own {
		return list[:len(list)-1], 1
	}
	return list, 0
}

// refHas reports whether the ascending set holds r.
func refHas(set []order.Rank, r order.Rank) bool {
	_, found := slices.BinarySearch(set, r)
	return found
}

// refSource is what a labels block is coded from: one direction's
// lists and the order, of n vertices.
type refSource struct {
	list     func(graph.VertexID) []order.Rank
	rankOf   func(graph.VertexID) order.Rank
	vertexAt func(order.Rank) graph.VertexID
	n        int
}

// refInherit is list coded against the union of the lists of hubs:
// the hub count, the hubs, the count and gaps of the positions in the
// union of its ranks the list lacks, and the gaps of the list's ranks the
// union lacks; and that code's width as the encoder estimates it before
// fitting — a hub at one bit more than its bit length, the drop count and
// positions as Elias γ codes, the gaps under m.
func refInherit(src refSource, list, hubs []order.Rank, m map[string]int) (codes []refCode, estimate int) {
	var union, residual []order.Rank
	for _, h := range hubs {
		union = append(union, src.list(src.vertexAt(h))...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	for _, r := range list {
		if !refHas(union, r) {
			residual = append(residual, r)
		}
	}
	codes = append(codes, refCode{"hubs", uint64(len(hubs))})
	for _, h := range hubs {
		codes = append(codes, refCode{"hub", uint64(h)})
		estimate += refBitLen(int64(h)) + 1
	}
	var drops []uint64
	for j, r := range union {
		if !refHas(list, r) {
			drops = append(drops, uint64(j))
		}
	}
	codes = append(codes, refCode{"drops", uint64(len(drops))})
	estimate += refGamma(uint64(len(drops)))
	for j, p := range drops {
		if j > 0 {
			p -= drops[j-1] + 1
		}
		codes = append(codes, refCode{"drop", p})
		estimate += refGamma(p)
	}
	gaps := refGaps(residual)
	return append(codes, gaps...), estimate + refCost(m, gaps)
}

// refCover returns the hubs, ascending, that list — of rank own —
// names, given m, the model of its block's lists coded alone. Round by
// round, of the list's last four ranks below own that neither the union
// of the lists of the hubs named so far holds nor are named themselves,
// it takes the one whose list holds the most of the list's ranks the
// union does not, less its ranks that neither the list nor the union
// holds (the last such on a tie), and names it if that makes the
// estimate of the list's code shorter than without it: up to four hubs,
// none where the list alone is no longer.
func refCover(src refSource, list []order.Rank, own order.Rank, m map[string]int) []order.Rank {
	var hubs, union []order.Rank
	cost := refCost(m, refGaps(list))
	for len(hubs) < 4 {
		best, most, tried := order.Rank(-1), 0, 0
		for j := len(list) - 1; j >= 0 && tried < 4; j-- {
			h := list[j]
			if h >= own || refHas(union, h) || slices.Contains(hubs, h) {
				continue
			}
			tried++
			gain := 0
			for _, r := range src.list(src.vertexAt(h)) {
				switch inList, inUnion := refHas(list, r), refHas(union, r); {
				case inList && !inUnion:
					gain++
				case !inList && !inUnion:
					gain--
				}
			}
			if best < 0 || gain > most {
				best, most = h, gain
			}
		}
		if best < 0 {
			break
		}
		more := append(slices.Clone(hubs), best)
		slices.Sort(more)
		if _, estimate := refInherit(src, list, more, m); estimate >= cost {
			break
		} else {
			cost = estimate
		}
		hubs = more
		union = append(union, src.list(src.vertexAt(best))...)
		slices.Sort(union)
		union = slices.Compact(union)
	}
	return hubs
}

// refLabelBlock is block k of a labels section: the shapes of vertices
// [4096k, 4096k+4096), then the lists of those ranks — each alone, or,
// if that is the fewer bits with 32 of model bytes added, each with a
// hub count and coded against the hubs refCover names. It returns the
// block and, per hub count, how many of its lists name that many.
func refLabelBlock(out []byte, src refSource, k int) ([]byte, [5]int) {
	n := src.n
	lo, hi := k*4096, min(k*4096+4096, n)
	var shapes []refCode
	entries := 0
	for v := lo; v < hi; v++ {
		list := src.list(graph.VertexID(v))
		entries += len(list)
		written, self := refExplicit(list, src.rankOf(graph.VertexID(v)))
		shapes = append(shapes, refCode{"len", uint64(len(written))<<1 | self})
		if n > 65536 && len(written) > 0 {
			wide := 0
			for _, r := range written {
				if r >= 65536 {
					wide++
				}
			}
			shapes = append(shapes, refCode{"wide", uint64(wide)})
		}
	}
	var alone, mixed []refCode
	var lists [][]order.Rank
	for r := lo; r < hi; r++ {
		written, _ := refExplicit(src.list(src.vertexAt(order.Rank(r))), order.Rank(r))
		lists = append(lists, written)
		alone = append(alone, refGaps(written)...)
	}
	m := refFit(alone)
	var named [5]int
	inheriting := false
	for i, list := range lists {
		if len(list) == 0 {
			continue
		}
		hubs := refCover(src, list, order.Rank(lo+i), m)
		if named[len(hubs)]++; len(hubs) == 0 {
			mixed = append(append(mixed, refCode{"hubs", 0}), refGaps(list)...)
			continue
		}
		codes, _ := refInherit(src, list, hubs, m)
		mixed, inheriting = append(mixed, codes...), true
	}
	chosen, inherits := alone, false
	if inheriting && refCost(refFit(mixed), mixed)+32 < refCost(m, alone) {
		chosen, inherits = mixed, true
	} else {
		named = [5]int{}
	}
	m = refFit(shapes, chosen)
	params := []string{"len"}
	if n > 65536 {
		params = append(params, "wide")
	}
	if inherits {
		params = append(params, "hubs", "hub", "drops", "drop")
	}
	for b := 0; b <= refBitLen(int64(max(n, 1)-1)); b++ {
		params = append(params, fmt.Sprintf("gap%d", b))
	}
	var payload []byte
	for _, p := range params {
		payload = append(payload, byte(m[p]))
	}
	if inherits {
		payload[0] |= 0x80
	}
	var stream refBits
	for _, c := range append(shapes, chosen...) {
		stream.rice(m[c.param], c.v)
	}
	return refBlock(out, entries, append(payload, stream.bytes()...)), named
}

// refPermBlock is a block of the rank→vertex sequence: the Rice
// parameter that codes it in the fewest bits, the least such, then each
// vertex as the zigzag of its difference from the one before.
func refPermBlock(out []byte, vertices []graph.VertexID) []byte {
	var zs []uint64
	prev := int64(0)
	for _, v := range vertices {
		d := int64(v) - prev
		z := uint64(2 * d)
		if d < 0 {
			z = uint64(-2*d - 1)
		}
		zs = append(zs, z)
		prev = int64(v)
	}
	best, bestBits := 0, -1
	for k := 0; k < 32; k++ {
		bits := 0
		for _, z := range zs {
			bits += refWidth(k, z)
		}
		if bestBits < 0 || bits < bestBits {
			best, bestBits = k, bits
		}
	}
	var stream refBits
	for _, z := range zs {
		stream.rice(best, z)
	}
	return refBlock(out, len(vertices), append([]byte{byte(best)}, stream.bytes()...))
}

// writeToReference returns x's file and, per hub count, how many of its
// lists name that many hubs.
func writeToReference(x *Index) ([]byte, [5]int) {
	le := binary.LittleEndian
	out := le.AppendUint64(nil, indexMagic)
	out = le.AppendUint32(le.AppendUint32(out, uint32(x.n)), 0) // no optional part
	nIn, nOut := x.entries()
	out = le.AppendUint64(le.AppendUint64(out, uint64(nIn)), uint64(nOut))
	vertices := x.ord.Vertices()
	for r0 := 0; r0 < x.n; r0 += 4096 {
		out = refPermBlock(out, vertices[r0:min(r0+4096, x.n)])
	}
	var named [5]int
	for _, list := range []func(graph.VertexID) []order.Rank{x.InLabels, x.OutLabels} {
		src := refSource{list: list, rankOf: x.ord.RankOf, vertexAt: x.ord.VertexAt, n: x.n}
		for k := 0; k*4096 < x.n; k++ {
			var block [5]int
			out, block = refLabelBlock(out, src, k)
			for c, lists := range block {
				named[c] += lists
			}
		}
	}
	return sealed(out), named
}

// shuffledRanks returns a random permutation of n ranks.
func shuffledRanks(rng *rand.Rand, n int) []order.Rank {
	ranks := make([]order.Rank, n)
	for i := range ranks {
		ranks[i] = order.Rank(i)
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	return ranks
}

// sparseIndex is an index of n vertices under a shuffled order whose
// lists hold 0 to maxLen random ranks: many blocks for little memory.
func sparseIndex(t testing.TB, n, maxLen int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks := shuffledRanks(rng, n)
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for v := 0; v < n; v++ {
		for _, lists := range [][][]order.Rank{in, out} {
			for k := rng.Intn(maxLen + 1); k > 0; k-- {
				lists[v] = append(lists[v], order.Rank(rng.Intn(n)))
			}
			slices.Sort(lists[v])
			lists[v] = slices.Compact(lists[v])
		}
	}
	return FromLists(order.FromRanks(ranks), in, out)
}

// hierIndex is an index of n vertices under a shuffled order whose
// lists are shaped as a labeler's are: in rank order, each vertex's list
// is the union of the lists of one to four random vertices ranked above
// it, less the ranks it drops (each with chance 1 − keep/100), plus one
// or two ranks above its own and, nine times in ten, its own rank last.
// The vertices a list is drawn from are among the first eighth of the
// ranks, whose lists are drawn from one each, so lists stay short. Most
// lists nearly contain a close hub's, many two or more hubs' together,
// and inheriting from several pays.
func hierIndex(t testing.TB, n, keep int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ord := order.FromRanks(shuffledRanks(rng, n))
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for _, lists := range [][][]order.Rank{in, out} {
		for r := 1; r < n; r++ {
			var list []order.Rank
			hubs := 1
			if r >= n/8 {
				hubs += rng.Intn(4)
			}
			for ; hubs > 0; hubs-- {
				for _, h := range lists[ord.VertexAt(order.Rank(rng.Intn(min(r, max(n/8, 1)))))] {
					if rng.Intn(100) < keep {
						list = append(list, h)
					}
				}
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				list = append(list, order.Rank(rng.Intn(r)))
			}
			if rng.Intn(10) > 0 {
				list = append(list, order.Rank(r))
			}
			slices.Sort(list)
			lists[ord.VertexAt(order.Rank(r))] = slices.Compact(list)
		}
	}
	return FromLists(ord, in, out)
}

// edgeIndex holds the shapes the list coding distinguishes. L_in: per
// power of two 2^b below n, a gap that starts at 2^b − 1 and one that
// starts at 2^b — either side of a model slot's boundary; six hundred
// first ranks of 0 or 1 beside one of 4,000, which the slot's parameter
// therefore escapes; and lists that are their vertex's own rank alone,
// end with it, hold it before a larger one, or do not hold it. L_out:
// every list its vertex's own rank and nothing else, so blocks with
// nothing to code but shapes.
func edgeIndex(t testing.TB) *Index {
	t.Helper()
	const n = 5000
	rng := rand.New(rand.NewSource(23))
	ranks := shuffledRanks(rng, n)
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	v := 0
	for b := 1; 1<<b+5 < n; b++ {
		in[v], in[v+1] = []order.Rank{1<<b - 2, 1<<b + 3}, []order.Rank{1<<b - 1, 1<<b + 5}
		v += 2
	}
	for ; v < 700; v++ {
		in[v] = []order.Rank{order.Rank(v % 2)}
	}
	in[v] = []order.Rank{4000}
	escaped := ranks[v]
	for v++; v < 800; v++ {
		switch r := ranks[v]; {
		case v%4 == 0 || r < 2 || r > n-2:
			in[v] = []order.Rank{r}
		case v%4 == 1:
			in[v] = []order.Rank{r / 2, r}
		case v%4 == 2:
			in[v] = []order.Rank{r, r + 1}
		default:
			in[v] = []order.Rank{r + 1}
		}
	}
	for v := range out {
		out[v] = []order.Rank{ranks[v]}
	}
	x := FromLists(order.FromRanks(ranks), in, out)
	// The list {4000} is coded in the block of its vertex's rank; the
	// first gap's parameter there, fitted alone, must escape it.
	var gaps []refCode
	for r := int(escaped) / 4096 * 4096; r < min(int(escaped)/4096*4096+4096, n); r++ {
		written, _ := refExplicit(x.InLabels(x.ord.VertexAt(order.Rank(r))), order.Rank(r))
		gaps = append(gaps, refGaps(written)...)
	}
	if k := refFit(gaps)["gap0"]; 4000>>k < 20 {
		t.Fatalf("the edge fixture moved: a first rank of 4000 is not escaped under parameter %d", k)
	}
	return x
}

// ioFixtures covers the shapes the block codec has to get right: no
// block, one short block, a vertex count that is not a multiple of the
// block size, lists long enough for wide headers, sections with no
// entries at all, edgeIndex's, and lists that inherit — in an index
// whose ranks stay in the first tier and in one whose reach the second.
func ioFixtures(t testing.TB) map[string]*Index {
	small, _ := buildSmallIndex(t)
	return map[string]*Index{
		"small":           small,
		"empty":           randomIndex(t, 0, 1),
		"one-vertex":      sparseIndex(t, 1, 1, 3),
		"dense":           randomIndex(t, 300, 7),
		"ragged":          sparseIndex(t, 2*blockValues+123, 6, 5),
		"block-exact":     sparseIndex(t, blockValues, 3, 6),
		"no-entries":      sparseIndex(t, blockValues+17, 0, 8),
		"long-lengths":    sparseIndex(t, 700, 400, 9),
		"edges":           edgeIndex(t),
		"inheriting":      hierIndex(t, 3000, 90, 10),
		"inheriting-wide": hierIndex(t, wideFrom+2500, 60, 11),
		"tier-line":       sparseIndex(t, wideFrom, 3, 12), // n = 2¹⁶: no rank in the second tier, so no model slot for it
		// Vertex 1 ranked first: the permutation's zigzag gaps 2 and 1
		// cost 5 bits under parameter 0 and under 1, and the least wins.
		"tied-parameters": FromLists(order.FromRanks([]order.Rank{1, 0}), make([][]order.Rank, 2), make([][]order.Rank, 2)),
		"tied-inheriting": tiedIndex(),
	}
}

// tiedIndex is a 38-vertex index one of whose labels blocks, coded with
// a hub count a list, takes exactly the 32 bits of the four model bytes
// that coding adds fewer than coded alone: at that tie the block is
// coded alone. It is FuzzLabelBlock's shape drawn from seed 278, the
// first of the seeds tried whose file an encoder that inherits at a tie
// writes differently.
func tiedIndex() *Index {
	rng := rand.New(rand.NewSource(278))
	n := 2 + rng.Intn(40)
	raw := make([]byte, 2*n+rng.Intn(400))
	rng.Read(raw)
	return hierLists(orderOf(raw[:2*n]), raw[2*n:])
}

func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func mustWrite(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestWriteToMatchesReferenceEncoder is the golden test of the block
// encoder: the reference encoder's bytes at every worker count, an Equal
// index back from them, its rank table at its final size, that writes
// them again, and — in the fixtures
// built for it — lists that inherit, a quarter of them from two hubs or
// more.
func TestWriteToMatchesReferenceEncoder(t *testing.T) {
	for name, x := range ioFixtures(t) {
		want, named := writeToReference(x)
		inheriting := named[1] + named[2] + named[3] + named[4]
		if strings.HasPrefix(name, "inheriting") && (inheriting < x.n/4 || 4*(inheriting-named[1]) < inheriting) {
			t.Errorf("%s: of %d vertices' two lists, %v name 0, 1, 2, 3 and 4 hubs", name, x.n, named)
		}
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			got := mustWrite(t, x)
			if !bytes.Equal(want, got) {
				t.Errorf("%s at GOMAXPROCS %d: %d bytes written differ from the reference encoder's %d", name, procs, len(got), len(want))
			}
			y, err := Read(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !x.Equal(y) {
				t.Errorf("%s at GOMAXPROCS %d: round trip changed the index: %s", name, procs, x.Diff(y))
			}
			for v := 0; v < x.n; v++ {
				if x.ord.RankOf(graph.VertexID(v)) != y.ord.RankOf(graph.VertexID(v)) {
					t.Fatalf("%s: ordering lost in round trip at vertex %d", name, v)
				}
			}
			// The rank table read back keeps no slack for the index's
			// lifetime, however many blocks it arrived in.
			if c := cap(y.ord.Vertices()); c != x.n {
				t.Errorf("%s: the rank table of %d vertices read back with capacity %d", name, x.n, c)
			}
			if again := mustWrite(t, y); !bytes.Equal(again, got) {
				t.Errorf("%s at GOMAXPROCS %d: the index read back writes other bytes", name, procs)
			}
		}
	}
}

// bigPerm is the identity order of n vertices, n beyond what an
// Ordering could hold.
type bigPerm struct{ n int }

func (p bigPerm) N() int                               { return p.n }
func (p bigPerm) RankOf(v graph.VertexID) order.Rank   { return order.Rank(v) }
func (p bigPerm) VertexAt(r order.Rank) graph.VertexID { return graph.VertexID(r) }

// decodeBlock decodes a payload as block 0 of a labels section under
// ord into the section it leaves.
func decodeBlock(payload []byte, ord perm, entries uint64) (*section, error) {
	var b listStream
	self := make([]uint64, blockValues/64)
	c, _, err := b.readShapes(payload, ord, 0, entries, nil, self)
	if err != nil {
		return nil, err
	}
	s := &section{l: layout{ord: ord, chunks: []chunk{c}, entries: int64(entries)}, ord: ord, self: self, blocks: []listStream{b}}
	return s, s.decodeLists()
}

// TestLabelBlockWideGaps: what only an index of two thousand million
// vertices holds — the last rank there is, first in its list; gaps so
// far beyond their parameter that they are escaped to 32 raw bits;
// shapes that count second-tier ranks — is reached at the block level.
func TestLabelBlockWideGaps(t *testing.T) {
	const n = 1 << 31
	lists := make([][]order.Rank, blockValues)
	lists[0] = []order.Rank{0, 1<<21 + 1, 1<<21 + 2}            // escaped, then a gap of zero
	lists[2] = []order.Rank{1, 2}                               // ending in its vertex's rank, which is not written
	lists[3] = []order.Rank{1<<31 - 1}                          // the last rank there is
	lists[5] = []order.Rank{1, 5, 1 << 15, 1<<31 - 2}           // its vertex's rank in the middle, so written
	lists[6] = []order.Rank{0, 1<<21 + 1, 1<<21 + 2, 1<<31 - 1} // list 0's and one more
	c, entries := chunkOf(bigPerm{n}, 0, len(lists), func(i int) []order.Rank { return lists[i] })
	s := side{l: &layout{ord: bigPerm{n}, chunks: []chunk{c}}}
	var coder labelCoder
	block, err := coder.appendLabelBlock(nil, s, bigPerm{n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := refSource{list: func(v graph.VertexID) []order.Rank { return lists[v] }, rankOf: bigPerm{n}.RankOf, vertexAt: bigPerm{n}.VertexAt, n: n}
	if want, _ := refLabelBlock(nil, src, 0); !bytes.Equal(block, want) {
		t.Fatalf("block % x, reference % x", block, want)
	}
	got, payload := blockPayload(block)
	if got != uint64(entries) {
		t.Fatalf("block counts %d entries, the lists hold %d", got, entries)
	}
	sec, err := decodeBlock(payload, bigPerm{n}, got)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range lists {
		if got := sec.l.appendList(nil, graph.VertexID(v)); !slices.Equal(got, want) {
			t.Fatalf("list %d decoded as %v, want %v", v, got, want)
		}
	}
	// The same bytes against a vertex count one too small.
	if _, err := decodeBlock(payload, bigPerm{n - 1}, got); err == nil {
		t.Error("rank n-1 accepted in an index of n-1 vertices")
	}
}

// TestWriteToRejectsUnsortedList: the gap coding cannot express a
// repeated rank — nor a list that holds its vertex's own rank twice, the
// second time where it would go unwritten, nor rank n — so the writer's block
// encoder refuses such a list. No Index holds one — FromLists takes
// label sets, and the layout asserts strict ascent — so the test lays the
// list out by hand, and checks that the list holding the rank once
// round-trips.
func TestWriteToRejectsUnsortedList(t *testing.T) {
	ord := order.FromRanks([]order.Rank{0, 1, 2})
	for _, c := range []struct {
		repeated order.Rank
		word     []uint32
		lab      []uint16
	}{
		{2, []uint32{0, 0, 2, 2}, []uint16{2, 2}}, // vertex 1's run stores rank 2 twice
		{1, []uint32{0, 0, 2, 2}, []uint16{1, 1}}, // and rank 1, its own, twice
	} {
		var coder labelCoder
		l := &layout{ord: ord, chunks: []chunk{{word: c.word, lab: c.lab}}}
		if _, err := coder.appendLabelBlock(nil, side{l: l}, ord, 0); err == nil || !strings.Contains(err.Error(), "strictly ascending") {
			t.Fatalf("rank %d twice: err = %v, want the list refused", c.repeated, err)
		}
		// No constructor lays such a list out, so an index holding one
		// is made by hand: WriteTo returns the encoder's refusal.
		bad := &Index{n: 3, ord: ord, in: *l, out: FromLists(ord, make([][]order.Rank, 3), make([][]order.Rank, 3)).out}
		if _, err := bad.WriteTo(io.Discard); err == nil || !strings.Contains(err.Error(), "strictly ascending") {
			t.Fatalf("rank %d twice, through WriteTo: err = %v, want the list refused", c.repeated, err)
		}
		x := FromLists(ord, [][]order.Rank{nil, {c.repeated}, nil}, make([][]order.Rank, 3))
		if y, err := Read(bytes.NewReader(mustWrite(t, x))); err != nil || !x.Equal(y) {
			t.Fatalf("rank %d once: the index does not round-trip (%v)", c.repeated, err)
		}
	}
	// Nor can it express rank n: vertex 1's run stores rank 3.
	var coder labelCoder
	l := &layout{ord: ord, chunks: []chunk{{word: []uint32{0, 0, 1, 1}, lab: []uint16{3}}}}
	if _, err := coder.appendLabelBlock(nil, side{l: l}, ord, 0); err == nil || !strings.Contains(err.Error(), "ranks below 3") {
		t.Fatalf("rank n: err = %v, want the list refused", err)
	}
}

// failAfter fails the write that would take it past limit bytes,
// keeping those up to limit, and takes every write after that one: a
// writer that writes on after an error shows as bytes past limit.
type failAfter struct {
	limit, n int
	failed   bool
}

var errSink = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if !w.failed && w.n+len(p) > w.limit {
		k := w.limit - w.n
		w.n, w.failed = w.limit, true
		return k, errSink
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteToReportsWriterError fails the sink in the header, in the
// permutation, and in the first and a late label block: WriteTo must
// return the sink's error and the byte count the sink took, write
// nothing after the error, with its
// encode workers gone (the race detector and -count would show a
// straggler writing into a recycled buffer).
func TestWriteToReportsWriterError(t *testing.T) {
	x := sparseIndex(t, 6*blockValues, 6, 11)
	size := len(mustWrite(t, x))
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for _, limit := range []int{0, 20, 40, size / 4, size / 2, size - 1} {
			w := &failAfter{limit: limit}
			n, err := x.WriteTo(w)
			if !errors.Is(err, errSink) {
				t.Fatalf("limit %d: err = %v, want the writer's error", limit, err)
			}
			if n != int64(w.n) || w.n != limit {
				t.Fatalf("limit %d: WriteTo reported %d bytes, the writer took %d", limit, n, w.n)
			}
		}
		// A capped index is written with its graph, or not at all.
		if _, err := x.WriteWith(io.Discard, Extras{Budget: 4}); err == nil {
			t.Fatal("a capped index written without its graph's fingerprint and flags")
		}
		// A graph's fingerprint is written after the header, so a header
		// write that fails has one more write behind it.
		w := &failAfter{limit: 20}
		if n, err := x.WriteWith(w, Extras{Graph: &graph.Fingerprint{N: int32(x.n)}}); !errors.Is(err, errSink) || n != 20 || w.n != 20 {
			t.Fatalf("header fails: WriteWith reported %d bytes and %v, the writer took %d", n, err, w.n)
		}
	}
}

// blockStarts returns the file offset of every block of an index file
// of n vertices, and that of its checksum last.
func blockStarts(t testing.TB, file []byte, n int) []int {
	t.Helper()
	pos := 32
	var starts []int
	for i := 0; i < 3*((n+blockValues-1)/blockValues); i++ {
		starts = append(starts, pos)
		_, k1 := binary.Uvarint(file[pos:])
		size, k2 := binary.Uvarint(file[pos+k1:])
		pos += k1 + k2 + int(size)
	}
	if pos+4 != len(file) {
		t.Fatalf("blocks end at %d of a %d-byte file, not 4 bytes before its end", pos, len(file))
	}
	return append(starts, pos)
}

// TestReadTruncatedMultiChunk: an index file has no valid proper
// prefix. Every prefix of a small file, and of a many-block file every
// cut at a block boundary, inside a block header, and inside a
// payload — which lands mid-varint as often as not — must fail.
func TestReadTruncatedMultiChunk(t *testing.T) {
	small, _ := buildSmallIndex(t)
	good := mustWrite(t, small)
	for cut := 0; cut < len(good); cut++ {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("small: truncation at %d of %d bytes accepted", cut, len(good))
		}
	}
	x := sparseIndex(t, 3*blockValues+9, 5, 13)
	good = mustWrite(t, x)
	starts := blockStarts(t, good, x.n)
	for i, at := range starts[:len(starts)-1] {
		next := starts[i+1]
		for _, cut := range []int{at, at + 1, at + 2, at + 3, (at + next) / 2, (at+next)/2 + 1, next - 1} {
			if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncation at %d (block %d spans %d–%d) accepted", cut, i, at, next)
			}
		}
	}
}

// TestReadErrorIsDeterministic damages the lists of each block of a
// section whose blocks inherit from one another. The reader decodes
// them on one goroutine, in rank order, so whatever GOMAXPROCS is,
// every read ends with the same error: a decoder whose error depends on
// scheduling would fail here.
func TestReadErrorIsDeterministic(t *testing.T) {
	x := hierIndex(t, 3*blockValues+100, 90, 12)
	good := mustWrite(t, x)
	starts := blockStarts(t, good, x.n)
	perSection := len(starts) / 3
	for k := 0; k < perSection-1; k++ { // the full blocks
		at := starts[2*perSection+k+1] - 100 // among L_out's lists, not its shapes
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x5a
		var want string
		for i, procs := range []int{1, 2, 8, 2, 8, 2, 8} {
			setProcs(t, procs)
			_, err := Read(bytes.NewReader(bad))
			got := fmt.Sprint(err)
			if i == 0 {
				if want = got; err == nil {
					t.Fatalf("byte %d damaged: the file reads", at)
				}
			} else if got != want {
				t.Fatalf("byte %d damaged, GOMAXPROCS %d: %s; one goroutine: %s", at, procs, got, want)
			}
		}
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rc is one code of a crafted payload: rice(k, v).
type rc struct {
	k int
	v uint64
}

// stream is a crafted payload: the model's bytes, then the codes.
func stream(model []byte, codes ...rc) []byte {
	var b refBits
	for _, c := range codes {
		b.rice(c.k, c.v)
	}
	return append(slices.Clone(model), b.bytes()...)
}

// zeros is values coded under parameter 0 each.
func zeros(vs ...uint64) []rc {
	codes := make([]rc, len(vs))
	for i, v := range vs {
		codes[i] = rc{0, v}
	}
	return codes
}

// TestReadRejectsCorruptInput damages one field at a time. Each must
// fail for its own reason, and none may allocate more than a small
// multiple of the bytes that back it, whatever count it claims — besides
// what the vertices it really has take once their permutation has
// arrived, which can be as little as two bits a vertex: 32 bytes each.
func TestReadRejectsCorruptInput(t *testing.T) {
	x := sparseIndex(t, 2*blockValues+50, 5, 17)
	good := mustWrite(t, x)
	starts := blockStarts(t, good, x.n)
	perSection := len(starts) / 3
	firstIn, lastOut := starts[perSection], starts[3*perSection-1]
	_, entriesLen := binary.Uvarint(good[firstIn:])
	_, lastEntriesLen := binary.Uvarint(good[lastOut:])
	lastSize, _ := binary.Uvarint(good[lastOut+lastEntriesLen:])
	inEntries, _ := blockPayload(good[firstIn:])
	nIn, nOut := x.entries()

	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // overflows 64 bits
	// patch replaces the uvarint at file[at:] with repl.
	patch := func(file []byte, at int, repl []byte) []byte {
		_, k := binary.Uvarint(file[at:])
		return append(append(append([]byte(nil), file[:at]...), repl...), file[at+k:]...)
	}
	// The header is magic(8) n(4) parts(4) nIn(8) nOut(8): word 1 is n
	// and the parts word together, n in its low half.
	header := func(word int, v uint64) []byte {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[8*word:], v)
		return bad
	}

	// The three-vertex index, in the identity order, is one block a
	// section: the permutation's, then L_in's, then L_out's. craft
	// writes L_in's anew, with nIn in the header to match, and craftPerm
	// the permutation's; both then write the checksum anew.
	small, _ := buildSmallIndex(t)
	goodSmall := mustWrite(t, small)
	smallStarts := blockStarts(t, goodSmall, small.n)
	// spliced is craft's file before its checksum is made anew.
	spliced := func(entries int, payload []byte) []byte {
		file := append([]byte(nil), goodSmall[:smallStarts[1]]...)
		binary.LittleEndian.PutUint64(file[16:], uint64(entries))
		return append(refBlock(file, entries, payload), goodSmall[smallStarts[2]:]...)
	}
	craft := func(entries int, payload []byte) []byte { return resealed(spliced(entries, payload)) }
	craftPerm := func(entries int, payload []byte) []byte {
		return resealed(append(refBlock(slices.Clone(goodSmall[:32]), entries, payload), goodSmall[smallStarts[1]:]...))
	}
	// A permutation payload: parameter 0, then the vertices' zigzag gaps.
	perm := func(zs ...uint64) []byte {
		var codes []rc
		for _, z := range zs {
			codes = append(codes, rc{0, z})
		}
		return stream([]byte{0}, codes...)
	}
	// L_in is {0}, {0, 1}, {0} at ranks 0, 1, 2. Its models: parameter 1
	// for the shapes and 0 for the gaps of each of three slots — and, in
	// a block whose lists may inherit, 0 for the hub counts, the hubs, the
	// drops and the dropped positions. The shapes are len′<<1 | selfLast:
	// 0|1, 1|1, 1|0; withLast has rank 2's say it writes last ranks.
	alone := []byte{1, 0, 0, 0}
	inherits := []byte{1 | inheritsFlag, 0, 0, 0, 0, 0, 0, 0}
	shapes := []rc{{1, 0<<1 | 1}, {1, 1<<1 | 1}, {1, 1 << 1}}
	in := func(model []byte, lists ...uint64) []byte {
		return stream(model, append(slices.Clone(shapes), zeros(lists...)...)...)
	}
	withLast := func(last uint64, lists ...uint64) []byte {
		return stream(inherits, append([]rc{{1, 0<<1 | 1}, {1, 1<<1 | 1}, {1, last << 1}}, zeros(lists...)...)...)
	}
	goodIn := in(alone, 0, 0)
	// Ranks 1 and 2 inheriting rank 0's {0} whole: one hub, rank 0, no
	// drops.
	goodInherit := in(inherits, 1, 0, 0, 1, 0, 0)
	// Rank 2 inheriting the union {0, 1} of ranks 0's and 1's lists less
	// its rank 1: hubs 0 and 1, one drop, at position 1.
	goodUnion := in(inherits, 1, 0, 0, 2, 0, 1, 1, 1)
	with := func(at int, b byte) []byte {
		bad := append([]byte(nil), goodIn...)
		bad[at] = b
		return bad
	}

	// An index of 2¹⁶ + 1 vertices, every list empty but vertex 0's
	// L_in, which is one rank; its shape says how many are in the second
	// tier. Its model has a parameter for those counts.
	wide := wideIndexFile(t)
	wideCraft := func(tier uint64, rank uint64) []byte {
		model := make([]byte, 2+gapSlots(wideFrom+1))
		model[0] = 1
		codes := []rc{{1, 1 << 1}, {0, tier}}
		for v := 1; v < blockValues; v++ {
			codes = append(codes, rc{1, 0})
		}
		return wide(1, stream(model, append(codes, rc{0, rank})...))
	}

	type row struct {
		name     string
		file     []byte
		want     string // part of the error
		vertices int    // those of the file's index, where more than the 1 MB of slack holds
	}
	r := func(name string, file []byte, want string) row { return row{name, file, want, 0} }
	if _, err := ReadSections(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("ReadSections took a file with no header")
	}
	if _, err := ReadSections(bytes.NewReader(resealed(header(0, retiredMagics[0])))); err == nil || !strings.Contains(err.Error(), "retired format") {
		t.Errorf("ReadSections on a retired format whose blocks and checksum hold: err = %v, want the header refused", err)
	}
	if _, err := ReadSections(bytes.NewReader(append(slices.Clone(good), 0))); err == nil || !strings.Contains(err.Error(), "goes on after its checksum") {
		t.Errorf("ReadSections on a file that goes on after its checksum: err = %v", err)
	}
	for _, c := range []row{
		r("garbage", []byte("garbage"), "header"),
		r("bad magic", header(0, 0x1122334455667788), "bad magic"),
		r("n beyond plausible", header(1, 1<<31+1), "implausible"),
		r("a fourth optional part", header(1, uint64(x.n)|8<<32), "implausible"),
		r("a label budget and no graph", header(1, uint64(x.n)|uint64(partBudget)<<32), "implausible"),
		r("an SCC condensation's component table, retired with v6", header(1, uint64(x.n)|uint64(partGraph|2)<<32), "implausible"),
		r("an optional part, to Read", mustWriteWith(t, x, Extras{Graph: &graph.Fingerprint{N: int32(x.n)}}), "reachlab.ReadIndex"),
		r("n inflated", header(1, 1<<31), "values where 4096 belong"),
		r("n deflated", header(1, uint64(x.n-1)), "a permutation gap leaves [0, 8241)"),
		r("nIn inflated", header(2, 1<<40), "where the header counts"),
		r("nIn deflated", header(2, uint64(nIn-1)), "exceed the header's count"),
		r("nOut inflated", header(3, uint64(nOut+1)), "where the header counts"),
		r("nOut at the plausible bound", header(3, 1<<40), "where the header counts"),
		r("a vertex at two ranks", craftPerm(3, perm(0, 0, 2)), "a vertex at two ranks"),
		r("a permutation gap below 0", craftPerm(3, perm(1, 2, 2)), "a permutation gap leaves [0, 3)"),
		r("a permutation gap to n", craftPerm(3, perm(0, 2, 4)), "a permutation gap leaves [0, 3)"),
		r("a permutation's parameter of 32", craftPerm(3, append([]byte{32}, perm(0, 2, 2)[1:]...)), "one above 31"),
		r("permutation entry count", patch(good, starts[0], []byte{7}), "7 values where 4096 belong"),
		r("permutation entry count huge", patch(good, starts[0], uv(1<<39)), "entries declared in"),
		r("permutation entry count overflowing 64 bits", patch(good, starts[0], overlong), "block header: binary: varint overflows"),
		r("nine values in a byte", craftPerm(9, []byte{0}), "9 entries declared in 1 bytes"),
		r("a Rice parameter of 32 for the shapes", craft(4, with(0, 32)), "Rice parameter above 31"),
		r("a Rice parameter of 32 for a gap", craft(4, with(2, 32)), "Rice parameter above 31"),
		r("a Rice parameter of 32 for the hubs", craft(4, append(slices.Clone(inherits[:1]), append([]byte{32}, goodInherit[2:]...)...)), "Rice parameter above 31"),
		r("a block shorter than its model", craft(4, alone[:3]), "shorter than its model"),
		r("an empty labels block", craft(4, nil), "shorter than its model"),
		r("a block shorter than its inheriting model", craft(4, inherits[:6]), "shorter than its model"),
		r("block entry count beyond uint32 half-word offsets", patch(patch(good, firstIn+entriesLen, uv(1<<29)), firstIn, uv(1<<31)), "more than a block's offsets can count"),
		r("block entry count at the bound", patch(good, firstIn, uv(maxBlockEntries)), "exceed the header's count"),
		r("block entry count +1", patch(good, firstIn, uv(inEntries+1)), "fewer entries than its header counts"),
		r("block entry count -1", patch(good, firstIn, uv(inEntries-1)), "beyond the block's entry count"),
		r("block and header entry count +1", patch(header(2, uint64(nIn+1)), firstIn, uv(inEntries+1)), "fewer entries than its header counts"),
		r("block and header entry count -1", patch(header(2, uint64(nIn-1)), firstIn, uv(inEntries-1)), "beyond the block's entry count"),
		r("block byte length huge", patch(good, firstIn+entriesLen, uv(1<<39)), "unexpected EOF"),
		r("block byte length overflowing 64 bits", patch(good, firstIn+entriesLen, overlong), "block header: binary: varint overflows"),
		r("block byte length -1", patch(good, lastOut+lastEntriesLen, uv(lastSize-1)), "run past the payload's end"),
		r("byte after the lists", append(patch(good, lastOut+lastEntriesLen, uv(lastSize+1)), 0), "1 bytes left over"),
		// Gaps 0, 2 and -1 code in exactly 8 bits, so the byte after them
		// is a whole byte of padding.
		r("byte after codes that end on a byte", craftPerm(3, append(perm(0, 4, 1), 0)), "1 bytes left over"),
		r("lists cut short", craft(4, goodIn[:5]), "run past the payload's end"),
		r("padding bit set", craft(4, with(5, goodIn[5]|0x80)), "padding bits set"),
		r("list length beyond the block", craft(4, stream(alone, rc{1, 9 << 1})), "beyond the block's entry count"),
		r("a list longer than n", craft(9, stream(alone, rc{1, 4 << 1}, rc{1, 2 << 1}, rc{1, 3 << 1})), "a list of 4 ranks below 3"),
		r("implicit entry beyond the block", craft(1, stream(alone, rc{1, 1<<1 | 1})), "beyond the block's entry count"),
		r("gap to rank n", craft(4, in(alone, 0, 3)), "rank out of range"),
		r("escaped gap past rank n", craft(4, in(alone, 0, 1<<32-1)), "rank out of range"),
		r("own rank not above a shape's length", craft(5, stream(alone, rc{1, 1<<1 | 1}, rc{1, 1<<1 | 1}, rc{1, 1 << 1}, rc{0, 0}, rc{0, 0})), "not above the ranks before it"),
		r("own rank not above the ranks before it", craft(6, stream(alone, rc{1, 0<<1 | 1}, rc{1, 1<<1 | 1}, rc{1, 2<<1 | 1}, rc{0, 0}, rc{0, 0}, rc{0, 1})), "not above the ranks before it"),
		r("more hubs than four", craft(4, in(inherits, 5)), "names 5 hubs, more than 4"),
		r("a reference to its own rank", craft(4, in(inherits, 1, 1, 0)), "inherits from a rank at or above its own"),
		r("a reference above its own rank", craft(4, in(inherits, 1, 2, 0)), "inherits from a rank at or above its own"),
		r("a reference above its own rank among several", craft(4, in(inherits, 0, 0, 2, 0, 2)), "inherits from a rank at or above its own"),
		r("hubs in descending order", craft(4, in(inherits, 0, 0, 2, 1, 0)), "hubs are not strictly ascending"),
		r("a hub named twice", craft(4, in(inherits, 0, 0, 2, 0, 0)), "hubs are not strictly ascending"),
		r("a dropped position past the hub's list", craft(4, in(inherits, 1, 0, 1, 1)), "dropped position past the end of its hubs' lists"),
		r("a dropped position past the hubs' union", craft(4, in(inherits, 0, 0, 2, 0, 1, 1, 2)), "dropped position past the end of its hubs' lists"),
		r("more drops than the hub's list holds", craft(4, in(inherits, 1, 0, 2, 0, 0)), "drops more entries than its hubs' lists hold"),
		r("more drops than the hubs' union holds", craft(4, in(inherits, 0, 0, 2, 0, 1, 3, 0, 0, 0)), "drops more entries than its hubs' lists hold"),
		// Rank 2's shape says two ranks; it inherits {0} and adds 0 again.
		r("an added rank colliding with an inherited one", craft(5, withLast(2, 1, 0, 0, 1, 0, 0, 0)), "collide"),
		// Rank 2's shape says three ranks; it inherits {0, 1} from ranks 0
		// and 1, and adds 1 again.
		r("an added rank colliding with one of several hubs' entries", craft(6, withLast(3, 0, 0, 2, 0, 1, 0, 1)), "collide"),
		// Rank 2's shape says one rank; it inherits rank 1's {0, 1}.
		r("more inherited than the shape holds", craft(4, in(inherits, 0, 0, 1, 1, 0)), "inherits more entries than its shape holds"),
		// Rank 2's shape says one rank; it inherits {0, 1} from ranks 0 and 1.
		r("more inherited from several hubs than the shape holds", craft(4, in(inherits, 0, 0, 2, 0, 1, 0)), "inherits more entries than its shape holds"),
		r("an added rank past n", craft(5, withLast(2, 1, 0, 0, 1, 0, 0, 3)), "rank out of range"),
		// Rank 2's shape says three ranks; it inherits {1}, rank 1's {0, 1}
		// less position 0, and adds 0, below it, then 3.
		r("an added rank past n after one below an inherited rank", craft(6, withLast(3, 1, 0, 0, 1, 1, 1, 0, 0, 2)), "rank out of range"),
		// Rank 2's shape says three ranks; it inherits rank 0's {0} and
		// adds 1, then 3, above it.
		r("an added rank past n after one above the inherited ranks", craft(6, withLast(3, 1, 0, 0, 1, 0, 0, 1, 1)), "rank out of range"),
		r("no checksum", good[:len(good)-4], "reading the index's checksum: unexpected EOF"),
		r("a checksum cut short", good[:len(good)-1], "reading the index's checksum: unexpected EOF"),
		r("a checksum bit flipped", append(slices.Clone(good[:len(good)-1]), good[len(good)-1]^0x10), "the index file is damaged"),
		r("a byte after the checksum", append(slices.Clone(good), 0), "goes on after its checksum"),
		r("lists coded another way under the old checksum", spliced(4, goodInherit), "the index file is damaged"),
		{"a second-tier rank its shape does not count", wideCraft(0, wideFrom), "disagree with its shape's tier counts", wideFrom + 1},
		{"a second-tier count with a first-tier rank", wideCraft(1, 5), "disagree with its shape's tier counts", wideFrom + 1},
		{"a second-tier count beyond the list", wideCraft(2, wideFrom), "second-tier count beyond its list's length", wideFrom + 1},
	} {
		var err error
		used := allocatedBy(func() { _, err = Read(bytes.NewReader(c.file)) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", c.name, err, c.want)
		}
		if budget := uint64(32*len(c.file) + 32*c.vertices + 1<<20); used > budget {
			t.Errorf("%s: allocated %d bytes reading a %d-byte file", c.name, used, len(c.file))
		}
	}
	for _, c := range []struct {
		name string
		file []byte
		want func(*Index) bool
	}{
		{"the sparse index", good, x.Equal},
		{"the small index", goodSmall, small.Equal},
		{"the small index crafted", craft(4, goodIn), small.Equal},
		{"the small index, its permutation under parameter 31", craftPerm(3, stream([]byte{31}, rc{31, 0}, rc{31, 2}, rc{31, 2})), small.Equal},
		{"the small index, its shapes under parameter 31", craft(4, stream([]byte{31, 0, 0, 0}, rc{31, 0<<1 | 1}, rc{31, 1<<1 | 1}, rc{31, 1 << 1}, rc{0, 0}, rc{0, 0})), small.Equal},
		{"the small index inheriting", craft(4, goodInherit), small.Equal},
		{"the small index inheriting from two hubs", craft(4, goodUnion), small.Equal},
		{"one second-tier rank", wideCraft(1, wideFrom), func(y *Index) bool {
			return slices.Equal(y.InLabels(0), []order.Rank{wideFrom}) && y.Entries() == 1
		}},
	} {
		got, err := Read(bytes.NewReader(c.file))
		if err != nil {
			t.Fatalf("%s, undamaged: %v", c.name, err)
		}
		if !c.want(got) {
			t.Fatalf("%s, undamaged, reads back changed", c.name)
		}
	}
}

// wideIndexFile returns a function that writes the file of an index of
// 2¹⁶ + 1 vertices in the identity order, with no label but what L_in's
// first block, given as its entry count and payload, holds.
func wideIndexFile(t testing.TB) func(entries int, payload []byte) []byte {
	const n = wideFrom + 1
	ranks := make([]order.Rank, n)
	for v := range ranks {
		ranks[v] = order.Rank(v)
	}
	file := mustWrite(t, FromLists(order.FromRanks(ranks), make([][]order.Rank, n), make([][]order.Rank, n)))
	starts := blockStarts(t, file, n)
	perSection := len(starts) / 3
	return func(entries int, payload []byte) []byte {
		out := append([]byte(nil), file[:starts[perSection]]...)
		binary.LittleEndian.PutUint64(out[16:], uint64(entries))
		return resealed(append(refBlock(out, entries, payload), file[starts[perSection+1]:]...))
	}
}

// TestReadRefusesRetiredFormat: a file of any format before this one —
// the one without a checksum, the one whose lists inherited from one hub each, the one that coded
// every list alone, the byte-aligned one, the label
// file without optional parts, the fixed-width one before it, and the
// root package's envelope around either — says what to do about it.
func TestReadRefusesRetiredFormat(t *testing.T) {
	for _, magic := range []string{"DRLINDX6", "DRLINDX5", "DRLINDX4", "DRLINDX3", "DRLINDX2", "RLIXNVE2", "DRLINDEX", "RLIXNVE1"} {
		old := make([]byte, 48)
		for i := range magic { // the magics read as text in a big-endian word
			old[7-i] = magic[i]
		}
		_, err := Read(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "rebuild the index") {
			t.Errorf("%s: err = %v, want a rebuild message", magic, err)
		}
	}
}

// benchIndex is the fixture of BenchmarkIndexWrite and BenchmarkIndexRead:
// a labeler-shaped index of 20,000 vertices, five blocks a section.
func benchIndex(b *testing.B) *Index { return hierIndex(b, 20000, 90, 1) }

// BenchmarkIndexWrite times WriteTo alone, into io.Discard.
func BenchmarkIndexWrite(b *testing.B) {
	x := benchIndex(b)
	b.SetBytes(int64(len(mustWrite(b, x))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexRead times Read alone, from the file in memory.
func BenchmarkIndexRead(b *testing.B) {
	file := mustWrite(b, benchIndex(b))
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}
