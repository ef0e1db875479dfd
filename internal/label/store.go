package label

import (
	"math"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// The working store: one direction's label lists while a labeler grows
// them, in the served layout's tiers (layout.go) — ranks below wideFrom
// one half-word each, then the others as half-word pairs, high half
// first. A labeler appends ranks in increasing order, so a list is its
// first tier followed by its second, and the served kernel's tiered
// merge runs over it as it lies: the pruning tests read half the bytes
// a []order.Rank would, behind no slice header.
//
// The lists of every storeBlock consecutive vertices lie in one arena,
// in vertex order, each in a room of its own: a run of half-words of
// which it uses a prefix. Appends go in place. Before a batch appends,
// Reserve learns from the labeler how many ranks each list of a block
// may gain and grows the rooms that are too small for that, shifting
// the lists after them along the arena; only an arena too small for its
// rooms is replaced, by one with half again as much. Blocks reserve
// independently, so a labeler reserves them in parallel, each just
// before it appends to that block's lists.

// storeBlock is how many consecutive vertices' lists share an arena.
const storeBlock = 1 << 10

// A Store is one direction's working label lists.
type Store struct {
	lists  []storeList
	arenas [][]uint16 // one per storeBlock vertices, its length the sum of their rooms
}

// storeList is where one list lies in its block's arena lab: lab[start :
// start+room] is its room, of which its first tier takes narrow
// half-words and its second, after them, wide. A list's room starts
// where the room of the vertex before it in the block ends.
type storeList struct {
	start, room  uint32
	narrow, wide uint32
}

// NewStore returns a store of n empty lists.
func NewStore(n int) *Store {
	return &Store{lists: make([]storeList, n), arenas: make([][]uint16, (n+storeBlock-1)/storeBlock)}
}

// Blocks returns how many blocks Reserve takes.
func (s *Store) Blocks() int { return len(s.arenas) }

// Block returns the vertices [lo, hi) of block b.
func (s *Store) Block(b int) (lo, hi graph.VertexID) {
	return graph.VertexID(b * storeBlock), graph.VertexID(min((b+1)*storeBlock, len(s.lists)))
}

// A List is a label list as a Store holds it: its first tier, and its
// second as half-word pairs.
type List struct {
	narrow, wide []uint16
}

// List returns v's list, valid until the next Reserve of its block.
func (s *Store) List(v graph.VertexID) List {
	l := s.lists[v]
	lab := s.arenas[uint32(v)/storeBlock]
	mid := l.start + l.narrow
	return List{narrow: lab[l.start:mid], wide: lab[mid : mid+l.wide]}
}

// Len returns how many ranks v's list holds.
func (s *Store) Len(v graph.VertexID) int {
	l := s.lists[v]
	return int(l.narrow + l.wide/2)
}

// Empty reports whether the list holds no rank.
func (a List) Empty() bool { return len(a.narrow) == 0 && len(a.wide) == 0 }

// Disjoint reports whether two lists share no rank: the pruning test
// of the batch labeler, the served kernel's merge tier by tier.
func (a List) Disjoint(b List) bool {
	if mergeIntersects(a.narrow, b.narrow) {
		return false
	}
	return len(a.wide) == 0 || len(b.wide) == 0 || !mergeWide(a.wide, noSelf, b.wide, noSelf)
}

// Append appends r to v's list. r must exceed every rank the list
// holds, and Reserve must have made room for it. Appends to distinct
// lists may run concurrently.
func (s *Store) Append(v graph.VertexID, r order.Rank) {
	l := &s.lists[v]
	lab := s.arenas[uint32(v)/storeBlock]
	end := l.start + l.narrow + l.wide
	if invariant.Enabled {
		last := int64(-1)
		if k := s.Len(v); k > 0 {
			last = int64(s.rankAt(v, k-1))
		}
		invariant.Assert(int64(r) > last, "label: rank %d appended to a list ending with %d", r, last)
		invariant.Assert(end+uint32(tierWidth(r)) <= l.start+l.room, "label: rank %d appended to a full room", r)
	}
	if r < wideFrom {
		lab[end] = uint16(r)
		l.narrow++
		return
	}
	lab[end], lab[end+1] = uint16(uint32(r)>>16), uint16(r)
	l.wide += 2
}

// rankAt returns the i-th rank of v's list.
func (s *Store) rankAt(v graph.VertexID, i int) order.Rank {
	a := s.List(v)
	if i < len(a.narrow) {
		return order.Rank(a.narrow[i])
	}
	return order.Rank(wideAt(a.wide, 2*(i-len(a.narrow))))
}

// tierWidth is how many half-words r takes.
func tierWidth(r order.Rank) int {
	if r < wideFrom {
		return 1
	}
	return 2
}

// Reserve makes room in each list of block b for the ranks a batch may
// append to it, all below hi: as many as row v of a table with offsets
// rows holds for list v, and no more than a list of budget ranks takes.
// Blocks may be reserved concurrently; no List of the block read before
// stays valid.
func (s *Store) Reserve(b int, hi order.Rank, rows []int64, budget int) {
	per := uint32(1)
	if hi > wideFrom {
		per = 2
	}
	lo, end := s.Block(b)
	lists := s.lists[lo:end]
	// Rooms never shrink, so no list's room starts before it did.
	var total uint64
	for i := range lists {
		l := &lists[i]
		v := int(lo) + i
		gain := per * uint32(min(rows[v+1]-rows[v], int64(max(budget-int(l.narrow+l.wide/2), 0))))
		l.room = max(l.room, l.narrow+l.wide+gain)
		total += uint64(l.room)
	}
	if total > math.MaxUint32 {
		panic("label: a block of a working store outgrew 2³² half-words")
	}
	lab := s.arenas[b]
	if total > uint64(cap(lab)) {
		arena := make([]uint16, total, total+total/2)
		start := uint32(0)
		for i := range lists {
			l := &lists[i]
			copy(arena[start:], lab[l.start:l.start+l.narrow+l.wide])
			l.start = start
			start += l.room
		}
		s.arenas[b] = arena
		return
	}
	// In place, the last list first: each lands at or after where it
	// was, over nothing a list before it still holds. From the first
	// list that stays where it was, every list before it does too.
	lab = lab[:total]
	start := uint32(total)
	for i := len(lists) - 1; i >= 0; i-- {
		l := &lists[i]
		if start -= l.room; start == l.start {
			break
		}
		copy(lab[start:], lab[l.start:l.start+l.narrow+l.wide])
		l.start = start
	}
	s.arenas[b] = lab
}

// Bytes returns the bytes the store's arenas hold: its rank slots, used
// or not. The list records add 16 bytes a vertex.
func (s *Store) Bytes() int64 {
	var b int64
	for _, lab := range s.arenas {
		b += 2 * int64(cap(lab))
	}
	return b
}

// FromStores assembles an Index from a labeler's working stores, the
// one way the batch labeler's lists become an Index: block by block,
// each list's tiers are copied as they lie, less its own rank where the
// layout leaves that out.
func FromStores(ord *order.Ordering, in, out *Store) *Index {
	return &Index{n: ord.N(), ord: ord, in: in.layout(ord), out: out.layout(ord)}
}

// layout lays the store's lists out under ord.
func (s *Store) layout(ord perm) layout {
	n := ord.N()
	l := layout{ord: ord, chunks: make([]chunk, blocksFor(n))}
	shapes := make([]shape, min(n, blockValues))
	for k := range l.chunks {
		v0 := k * blockValues
		shapes := shapes[:min(blockValues, n-v0)]
		for i := range shapes {
			v := graph.VertexID(v0 + i)
			sl := s.lists[v]
			sh := shape{narrow: sl.narrow, wide: sl.wide / 2}
			if own := ord.RankOf(v); own >= wideFrom && sh.wide > 0 && s.rankAt(v, s.Len(v)-1) == own {
				sh.wide, sh.self = sh.wide-1, true
			}
			shapes[i] = sh
			l.entries += int64(s.Len(v))
		}
		c := allocChunk(shapes)
		for i := range shapes {
			narrow, wide, _ := c.tiers(uint32(i))
			src := s.List(graph.VertexID(v0 + i))
			copy(narrow, src.narrow)
			copy(wide, src.wide) // less the own rank's pair, where the layout leaves it out
		}
		assertTiers(c, ord, v0)
		l.chunks[k] = c
	}
	return l
}
