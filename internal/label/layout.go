package label

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// The served layout. Ranks are degree-ordered and a label list is
// mostly hubs, so nearly every entry is a small rank: 95% of the
// benchmark index's are below 2¹⁶. A list is therefore one run of
// half-words in two tiers — its ranks below wideFrom one half-word each,
// then the others two each, high half first. Both tiers ascend and every
// rank of the first is below every rank of the second, so two lists
// share a rank iff their first tiers do or their second tiers do: the
// kernel merges tier by tier and never decodes.
//
// Nearly every list ends with its vertex's own rank, the largest in it.
// Where that rank is in the second tier — as it is for most vertices,
// whose ranks are high — the run leaves it out and a flag says it is
// there: the ordering holds it, as the index file's permutation does for
// its selfLast. The kernel reads it only when it merges second tiers,
// and treats it as a virtual last element there; every other reader sees
// the list whole. A first-tier own rank stays in the run, so the first
// tiers' merge, which answers most reachable pairs, runs as it would
// without the flag.
//
// A direction's lists are chunked by the index file's block of
// blockValues vertices. A chunk holds its vertices' runs back to back in
// one []uint16 and, per vertex, one uint32 word relative to the chunk:
// where its run starts (the next vertex's start ends it) and two flags,
// selfBit — the list ends with the vertex's own rank, at or above
// wideFrom, not stored — and wideBit — the run has a second tier, and
// opens with a head, the first tier's length. Only a run with a second
// tier needs to say where it starts. So a file block's shapes lay out
// one chunk without knowing where any other block lands: every
// constructor lays chunks out through allocChunk, and fills each list's
// slots whole.

// wideFrom is the least rank of the second tier.
const wideFrom = 1 << 16

// The flags of a chunk word, above its run's start.
const (
	selfBit   = 1 << 31 // the list ends with its vertex's own second-tier rank, not stored
	wideBit   = 1 << 30 // the run opens with its first tier's length, and has a second tier
	startMask = wideBit - 1
)

// layout is one direction's lists, under ord: it holds the own ranks
// the runs leave out.
type layout struct {
	ord     perm
	chunks  []chunk
	entries int64 // Σ list lengths, own ranks included
}

// chunk holds the lists of up to blockValues consecutive vertices:
// vertex i's run is lab[word[i]&startMask : word[i+1]&startMask], and
// word[len(word)-1] is where the last run ends.
type chunk struct {
	word []uint32
	lab  []uint16
}

// run returns vertex i's run and its word.
func (c *chunk) run(i uint32) ([]uint16, uint32) {
	w := c.word[i]
	return c.lab[w&startMask : c.word[i+1]&startMask], w
}

// tiers returns vertex i's stored list as its two tiers — first-tier
// ranks, and second-tier ranks as half-word pairs — and whether its own
// rank ends the list, not stored.
func (c *chunk) tiers(i uint32) (narrow, wide []uint16, self bool) {
	narrow, w := c.run(i)
	if w&wideBit != 0 {
		narrow, wide = splitRun(narrow)
	}
	return narrow, wide, w&selfBit != 0
}

// longHead is the largest first-tier length a head holds alone: a head
// of longHead is followed by a half-word that adds to it, so a first
// tier can hold all 2¹⁶ ranks.
const longHead = math.MaxUint16

// splitRun splits a run that opens with a head into its two tiers.
func splitRun(run []uint16) (narrow, wide []uint16) {
	from, head := 1, int(run[0])
	if head == longHead {
		head += int(run[1])
		from++
	}
	return run[from : from+head], run[from+head:]
}

// run returns v's run and its word: the kernel's way in, which splits
// the run itself (tiers does not inline).
func (l *layout) run(v graph.VertexID) ([]uint16, uint32) {
	return l.chunks[uint32(v)/blockValues].run(uint32(v) % blockValues)
}

// tiers returns v's stored list as its two tiers and whether it ends
// with v's own rank, not stored.
func (l *layout) tiers(v graph.VertexID) (narrow, wide []uint16, self bool) {
	return l.chunks[uint32(v)/blockValues].tiers(uint32(v) % blockValues)
}

// wideAt returns the second-tier rank whose high half is w[i].
func wideAt(w []uint16, i int) uint32 { return uint32(w[i])<<16 | uint32(w[i+1]) }

// appendList appends v's list to dst as ranks, its own rank included.
func (l *layout) appendList(dst []order.Rank, v graph.VertexID) []order.Rank {
	narrow, wide, self := l.tiers(v)
	n0 := len(dst)
	dst = slices.Grow(dst, len(narrow)+len(wide)/2+1)[:n0+len(narrow)+len(wide)/2]
	out := dst[n0:]
	for j, r := range narrow {
		out[j] = order.Rank(r)
	}
	out = out[len(narrow):]
	for j := range out {
		out[j] = order.Rank(wideAt(wide, 2*j))
	}
	if self {
		dst = append(dst, l.ord.RankOf(v))
	}
	return dst
}

// resident returns the bytes the direction's arrays hold.
func (l *layout) resident() int64 {
	var b int64
	for _, c := range l.chunks {
		b += 4*int64(cap(c.word)) + 2*int64(cap(c.lab))
	}
	return b
}

// shape is what laying a list out needs to know before its ranks: how
// many it stores in each tier, and whether its vertex's own rank ends
// it, not stored.
type shape struct {
	narrow, wide uint32
	self         bool
}

// shapeOf returns the shape of list, own being its vertex's rank: a
// second-tier own rank at its end is left out.
func shapeOf(list []order.Rank, own order.Rank) shape {
	k := len(list)
	self := k > 0 && list[k-1] == own && own >= wideFrom
	if self {
		k--
	}
	wide := wideCount(list[:k])
	return shape{narrow: uint32(k) - wide, wide: wide, self: self}
}

// wideCount returns how many of an ascending list's ranks are in the
// second tier: its tail from wideFrom on.
func wideCount(list []order.Rank) uint32 {
	k := len(list)
	for k > 0 && uint32(list[k-1]) >= wideFrom {
		k--
	}
	return uint32(len(list) - k)
}

// allocChunk lays out a chunk for lists of the given shapes, one per
// vertex: their words, and their half-words, zero but for the heads.
func allocChunk(shapes []shape) chunk {
	word := make([]uint32, len(shapes)+1)
	var sum uint64
	for i, s := range shapes {
		word[i] = uint32(sum)
		if s.self {
			word[i] |= selfBit
		}
		sum += uint64(s.narrow) + 2*uint64(s.wide)
		if s.wide > 0 {
			word[i] |= wideBit
			sum++
			if s.narrow >= longHead {
				sum++
			}
		}
		if sum > startMask {
			panic("label: a block's lists exceed 2³⁰ half-words")
		}
	}
	word[len(shapes)] = uint32(sum)
	c := chunk{word: word, lab: make([]uint16, sum)}
	for i, s := range shapes {
		if start := word[i] & startMask; s.wide > 0 && s.narrow < longHead {
			c.lab[start] = uint16(s.narrow)
		} else if s.wide > 0 {
			c.lab[start], c.lab[start+1] = longHead, uint16(s.narrow-longHead)
		}
	}
	return c
}

// assertTiers checks, under the invariants tag, each word of a chunk of
// lists of vertices from v0 on under ord: its run lies in the chunk and
// has a strictly increasing first tier (being half-words, below 2¹⁶) and
// a strictly increasing second at or above 2¹⁶ — there iff wideBit says
// so, and then whole ranks, at least one, from where the head says the
// first tier ends; an own rank selfBit says ends the list is in the
// second tier, absent from the run and above every rank in it.
func assertTiers(c chunk, ord perm, v0 int) {
	if !invariant.Enabled {
		return
	}
	for i := 0; i+1 < len(c.word); i++ {
		start, end := c.word[i]&startMask, c.word[i+1]&startMask
		invariant.Assert(start <= end && int(end) <= len(c.lab), "label: block vertex %d: run [%d, %d) outside its chunk of %d", i, start, end, len(c.lab))
		narrow, wide, self := c.tiers(uint32(i))
		if c.word[i]&wideBit != 0 {
			invariant.Assert(len(wide) > 0 && len(wide)%2 == 0, "label: block vertex %d: its head leaves %d half-words to the second tier", i, len(wide))
		}
		invariant.StrictlyIncreasing("label: a list's first tier", narrow)
		top := int64(-1)
		if len(narrow) > 0 {
			top = int64(narrow[len(narrow)-1])
		}
		for k := 0; k < len(wide); k += 2 {
			r := wideAt(wide, k)
			invariant.Assert(r >= wideFrom, "label: block vertex %d: rank %d in the second tier", i, r)
			invariant.Assert(int64(r) > top, "label: block vertex %d: second tier not strictly increasing at rank %d", i, r)
			top = int64(r)
		}
		if own := ord.RankOf(graph.VertexID(v0 + i)); self {
			invariant.Assert(own >= wideFrom && int64(own) > top, "label: block vertex %d: its implicit own rank %d not in the second tier above the stored %d", i, own, top)
		}
	}
}

// blockLists is one block's lists back to back, the i-th ending at
// ends[i]: what the index file's writer codes a block's lists from.
// Reused from block to block.
type blockLists struct {
	lab  []order.Rank
	ends []int
}

func (s *blockLists) reset() { s.lab, s.ends = s.lab[:0], s.ends[:0] }

func (s *blockLists) list(i int) []order.Rank {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.lab[start:s.ends[i]]
}

// fill takes the lists of vertices [v0, v1) from appendList.
func (s *blockLists) fill(appendList func([]order.Rank, graph.VertexID) []order.Rank, v0, v1 int) {
	s.reset()
	for v := v0; v < v1; v++ {
		s.lab = appendList(s.lab, graph.VertexID(v))
		s.ends = append(s.ends, len(s.lab))
	}
}

// chunkOf lays out the lists of vertices [v0, v0+vertices) under ord,
// list(i) the i-th's, ascending — called twice per vertex, its result
// used before the next call: once for its shape, once to put its ranks.
func chunkOf(ord perm, v0, vertices int, list func(i int) []order.Rank) (chunk, int64) {
	shapes := make([]shape, vertices)
	var entries int64
	for i := range shapes {
		l := list(i)
		shapes[i] = shapeOf(l, ord.RankOf(graph.VertexID(v0+i)))
		entries += int64(len(l))
	}
	c := allocChunk(shapes)
	for i := range shapes {
		l := list(i)
		narrow, wide, _ := c.tiers(uint32(i))
		for j, r := range l[:len(narrow)] {
			narrow[j] = uint16(r)
		}
		for j := 0; j < len(wide); j += 2 {
			r := uint32(l[len(narrow)+j/2])
			wide[j], wide[j+1] = uint16(r>>16), uint16(r)
		}
	}
	assertTiers(c, ord, v0)
	return c, entries
}

// layoutOf lays out the lists of ord's vertices, list(v) v's as chunkOf
// takes it, one block at a time.
func layoutOf(ord perm, list func(graph.VertexID) []order.Rank) layout {
	n := ord.N()
	l := layout{ord: ord, chunks: make([]chunk, blocksFor(n))}
	for k := range l.chunks {
		v0 := k * blockValues
		c, entries := chunkOf(ord, v0, min(blockValues, n-v0), func(i int) []order.Rank { return list(graph.VertexID(v0 + i)) })
		l.chunks[k] = c
		l.entries += entries
	}
	return l
}
