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
// A direction's lists are chunked by the index file's block of
// blockValues vertices. A chunk holds its vertices' runs back to back in
// one []uint16 and, per vertex, two uint32 offsets relative to the chunk:
// where its run starts and where its second tier starts (the next
// vertex's start ends it). So a file block's shapes lay out one chunk
// without knowing where any other block lands: every constructor lays
// chunks out through chunkOf, and the index file's reader allocates them
// through its allocChunk and fills each list's slots whole.

// wideFrom is the least rank of the second tier.
const wideFrom = 1 << 16

// layout is one direction's lists.
type layout struct {
	chunks  []chunk
	entries int64 // Σ list lengths
}

// chunk holds the lists of up to blockValues consecutive vertices:
// vertex i's is lab[off[2i]:off[2i+2]], its second tier from off[2i+1].
type chunk struct {
	off []uint32
	lab []uint16
}

// tiers returns v's list as its two tiers: first-tier ranks, and
// second-tier ranks as half-word pairs.
func (l *layout) tiers(v graph.VertexID) (narrow, wide []uint16) {
	c := &l.chunks[uint32(v)/blockValues]
	i := 2 * (uint32(v) % blockValues)
	start, split, end := c.off[i], c.off[i+1], c.off[i+2]
	return c.lab[start:split], c.lab[split:end]
}

// wideAt returns the second-tier rank whose high half is w[i].
func wideAt(w []uint16, i int) uint32 { return uint32(w[i])<<16 | uint32(w[i+1]) }

// endsWith reports whether a list, given as its two tiers, ends with
// rank r.
func endsWith(narrow, wide []uint16, r uint32) bool {
	if len(wide) > 0 {
		return wideAt(wide, len(wide)-2) == r
	}
	return len(narrow) > 0 && uint32(narrow[len(narrow)-1]) == r
}

// appendList appends v's list to dst as ranks.
func (l *layout) appendList(dst []order.Rank, v graph.VertexID) []order.Rank {
	narrow, wide := l.tiers(v)
	n0 := len(dst)
	dst = slices.Grow(dst, len(narrow)+len(wide)/2)[:n0+len(narrow)+len(wide)/2]
	out := dst[n0:]
	for j, r := range narrow {
		out[j] = order.Rank(r)
	}
	out = out[len(narrow):]
	for j := range out {
		out[j] = order.Rank(wideAt(wide, 2*j))
	}
	return dst
}

// resident returns the bytes the direction's arrays hold.
func (l *layout) resident() int64 {
	var b int64
	for _, c := range l.chunks {
		b += 4*int64(cap(c.off)) + 2*int64(cap(c.lab))
	}
	return b
}

// allocChunk turns per-vertex counts — off[2i+1] vertex i's first-tier
// half-words, off[2i+2] its second tier's — into offsets, in place, and
// allocates the chunk's half-words.
func allocChunk(off []uint32) chunk {
	var sum uint64
	for k := 1; k < len(off); k++ {
		if sum += uint64(off[k]); sum > math.MaxUint32 {
			panic("label: a block's lists exceed 2³² half-words")
		}
		off[k] = uint32(sum)
	}
	return chunk{off: off, lab: make([]uint16, sum)}
}

// assertTiers checks, under the invariants tag, that each of the chunk's
// lists has a strictly increasing first tier (being half-words, below
// 2¹⁶) and a strictly increasing second at or above 2¹⁶.
func assertTiers(c chunk) {
	if !invariant.Enabled {
		return
	}
	for i := 0; i < len(c.off)/2; i++ {
		invariant.StrictlyIncreasing("label: a list's first tier", c.lab[c.off[2*i]:c.off[2*i+1]])
		wide := c.lab[c.off[2*i+1]:c.off[2*i+2]]
		for k := 0; k < len(wide); k += 2 {
			r := wideAt(wide, k)
			invariant.Assert(r >= wideFrom, "label: block vertex %d: rank %d in the second tier", i, r)
			invariant.Assert(k == 0 || r > wideAt(wide, k-2), "label: block vertex %d: second tier not strictly increasing at rank %d", i, r)
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

// chunkOf lays out a block of vertices' lists, list(i) the i-th's,
// ascending — called twice per vertex, its result used before the next
// call: once to count the list's half-words, once to put them. A list's
// second tier is its tail of ranks from wideFrom on, short enough to
// find from the end.
func chunkOf(vertices int, list func(i int) []order.Rank) (chunk, int64) {
	off := make([]uint32, 2*vertices+1)
	var entries int64
	for i := 0; i < vertices; i++ {
		l := list(i)
		k := len(l)
		for k > 0 && uint32(l[k-1]) >= wideFrom {
			k--
		}
		off[2*i+1], off[2*i+2] = uint32(k), 2*uint32(len(l)-k)
		entries += int64(len(l))
	}
	c := allocChunk(off)
	for i := 0; i < vertices; i++ {
		l := list(i)
		narrow, wide := c.lab[off[2*i]:off[2*i+1]], c.lab[off[2*i+1]:off[2*i+2]]
		for j, r := range l[:len(narrow)] {
			narrow[j] = uint16(r)
		}
		for j, r := range l[len(narrow):] {
			wide[2*j], wide[2*j+1] = uint16(uint32(r)>>16), uint16(r)
		}
	}
	assertTiers(c)
	return c, entries
}

// layoutOf lays out the lists of n vertices, list(v) v's as chunkOf
// takes it, one block at a time.
func layoutOf(n int, list func(graph.VertexID) []order.Rank) layout {
	l := layout{chunks: make([]chunk, blocksFor(n))}
	for k := range l.chunks {
		v0 := k * blockValues
		c, entries := chunkOf(min(blockValues, n-v0), func(i int) []order.Rank { return list(graph.VertexID(v0 + i)) })
		l.chunks[k] = c
		l.entries += entries
	}
	return l
}
