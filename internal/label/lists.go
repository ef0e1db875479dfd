package label

import (
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// Lists is the slice layout of a reachability index: one independently
// allocated rank slice per vertex and direction. It is the shape every
// builder accumulates labels in (FromLists freezes it) and the
// reference the served Index is checked against —
// Lists.Reachable runs the plain §II-A linear merge over the two
// per-vertex slices with no layout tricks.
//
// For serving, Freeze converts to the Index's two-tier layout
// (layout.go): per block of vertices one half-word array and
// block-relative offsets, so a query reads three offsets and two short
// runs per list instead of chasing slice headers across the heap, at
// about half the bytes of 32-bit ranks. Freeze and Thaw are exact
// inverses on the label sets, so the two layouts answer every query
// identically.
type Lists struct {
	n   int
	ord *order.Ordering
	in  [][]order.Rank
	out [][]order.Rank
}

// NewLists wraps per-vertex label lists (aliased, not copied) into the
// slice layout. Each list must be a label set: strictly increasing.
func NewLists(ord *order.Ordering, in, out [][]order.Rank) *Lists {
	l := &Lists{n: ord.N(), ord: ord, in: in, out: out}
	for v := 0; v < l.n; v++ {
		invariant.StrictlyIncreasing("label: NewLists in-list", in[v])
		invariant.StrictlyIncreasing("label: NewLists out-list", out[v])
	}
	return l
}

// FromLists assembles an Index from per-vertex label lists: the one
// way a builder's labels become an Index. Each list must be a label set,
// strictly increasing (TOL emits labels in round order, which is rank
// order, and never labels a vertex twice). The lists are copied, not
// aliased.
func FromLists(ord *order.Ordering, in, out [][]order.Rank) *Index {
	return NewLists(ord, in, out).Freeze()
}

// NumVertices returns the number of vertices the label sets cover.
func (l *Lists) NumVertices() int { return l.n }

// Ordering returns the vertex order the labels were built under.
func (l *Lists) Ordering() *order.Ordering { return l.ord }

// InLabels returns L_in(v) as a rank-sorted read-only slice.
func (l *Lists) InLabels(v graph.VertexID) []order.Rank { return l.in[v] }

// OutLabels returns L_out(v) as a rank-sorted read-only slice.
func (l *Lists) OutLabels(v graph.VertexID) []order.Rank { return l.out[v] }

// Reachable answers q(s, t) by the plain linear merge of L_out(s) and
// L_in(t). This is the reference query path: no galloping, no tiers,
// no layout assumptions beyond sortedness.
func (l *Lists) Reachable(s, t graph.VertexID) bool {
	a, b := l.out[s], l.in[t]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Freeze assembles the served Index from the slice layout, block by
// block through the one chunk builder. The label sets are copied, so the
// Lists may be mutated or dropped afterwards; the frozen Index is
// immutable from here on (which is what lets the serving layer cache
// query answers without any invalidation — see DESIGN.md §8).
func (l *Lists) Freeze() *Index {
	return &Index{
		n:   l.n,
		ord: l.ord,
		in:  layoutOf(l.ord, func(v graph.VertexID) []order.Rank { return l.in[v] }),
		out: layoutOf(l.ord, func(v graph.VertexID) []order.Rank { return l.out[v] }),
	}
}

// Thaw is the inverse of Freeze: it copies every list out of the layout
// into one independently allocated slice per vertex and direction. Tests
// and benchmarks use it to reconstruct the slice layout from any built
// index.
func (x *Index) Thaw() *Lists {
	in := make([][]order.Rank, x.n)
	out := make([][]order.Rank, x.n)
	for v := 0; v < x.n; v++ {
		in[v] = x.InLabels(graph.VertexID(v))
		out[v] = x.OutLabels(graph.VertexID(v))
	}
	return &Lists{n: x.n, ord: x.ord, in: in, out: out}
}
