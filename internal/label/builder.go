package label

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/order"
)

// Builder accumulates label entries and produces an immutable Index.
// Entries may arrive in any order and more than once; Finalize sorts
// each per-vertex list by rank and keeps each rank once.
type Builder struct {
	n   int
	ord *order.Ordering
	in  [][]order.Rank
	out [][]order.Rank
}

// NewBuilder returns a Builder for a graph with the given ordering.
func NewBuilder(ord *order.Ordering) *Builder {
	n := ord.N()
	return &Builder{n: n, ord: ord, in: make([][]order.Rank, n), out: make([][]order.Rank, n)}
}

// AddIn records r ∈ L_in(w): the vertex with rank r reaches w and
// survives pruning.
func (b *Builder) AddIn(w graph.VertexID, r order.Rank) { b.in[w] = append(b.in[w], r) }

// AddOut records r ∈ L_out(w).
func (b *Builder) AddOut(w graph.VertexID, r order.Rank) { b.out[w] = append(b.out[w], r) }

// Finalize sorts every label list and freezes the result into the
// served Index.
func (b *Builder) Finalize() *Index {
	return b.Lists().Freeze()
}

// Lists sorts every accumulated label list, drops repeated ranks, and
// returns the slice layout, aliasing the Builder's backing slices (the
// Builder should not be reused afterwards).
func (b *Builder) Lists() *Lists {
	for v := 0; v < b.n; v++ {
		sortRanks(b.in[v])
		sortRanks(b.out[v])
		b.in[v], b.out[v] = slices.Compact(b.in[v]), slices.Compact(b.out[v])
	}
	return NewLists(b.ord, b.in, b.out)
}

func sortRanks(rs []order.Rank) {
	if len(rs) < 2 {
		return
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}

// FromLists assembles an Index directly from per-vertex label lists.
// Each list must be a strictly increasing rank sequence — a sorted
// label *set* (TOL emits labels in round order, which is rank order,
// and never labels a vertex twice). The lists are copied, not aliased.
func FromLists(ord *order.Ordering, in, out [][]order.Rank) *Index {
	return NewLists(ord, in, out).Freeze()
}

// FromBackward assembles an Index from backward label sets: backIn[r]
// lists the vertices w with rank-r vertex ∈ L_in(w) (i.e. L_in^⁻ of
// the vertex ranked r), and likewise backOut for out-labels
// (Definition 4). Iterating ranks in increasing order keeps each
// forward list sorted without a final sort.
func FromBackward(ord *order.Ordering, backIn, backOut [][]graph.VertexID) *Index {
	n := ord.N()
	return &Index{n: n, ord: ord, in: layoutBackward(n, backIn), out: layoutBackward(n, backOut)}
}
