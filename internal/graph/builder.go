package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Digraph.
// The zero value is ready to use.
type Builder struct {
	edges []Edge
	maxID VertexID
	// minVertices forces the built graph to contain at least this many
	// vertices even if the top IDs have no incident edges.
	minVertices int
}

// NewBuilder returns a Builder with capacity hints for n vertices and
// m edges. Both hints may be zero.
func NewBuilder(n int, m int) *Builder {
	return &Builder{edges: make([]Edge, 0, m), minVertices: n, maxID: -1}
}

// AddEdge records the directed edge u -> v. Duplicate edges are
// deduplicated at Build time; self-loops are kept (they never affect
// reachability but appear in real datasets).
func (b *Builder) AddEdge(u, v VertexID) *Builder {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id in edge (%d,%d)", u, v))
	}
	if u > b.maxID {
		b.maxID = u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
	return b
}

// EnsureVertices guarantees the built graph has at least n vertices.
func (b *Builder) EnsureVertices(n int) *Builder {
	if n > b.minVertices {
		b.minVertices = n
	}
	return b
}

// Build finalizes the graph. The builder may be reused afterwards; the
// built graph does not alias the builder's edge slice.
func (b *Builder) Build() *Digraph {
	n := int(b.maxID) + 1
	if b.minVertices > n {
		n = b.minVertices
	}
	return FromEdges(n, b.edges)
}

// FromEdges builds a Digraph with n vertices from an edge list. The
// input slice is neither modified nor copied. Duplicate edges are
// removed. It panics if an edge references a vertex outside [0, n).
//
// The build is the parallel counting construction of parallel.go:
// deterministic, and byte-identical to the historical global-sort
// builder (fromEdgesSort, kept as the test reference).
func FromEdges(n int, edges []Edge) *Digraph {
	return fromEdgesParallel(n, edges, 0)
}

// FromEdgesParallel is FromEdges with an explicit worker count
// (<= 0 picks automatically). The output is identical for every
// worker count; tests pin the builds against each other.
func FromEdgesParallel(n int, edges []Edge, workers int) *Digraph {
	return fromEdgesParallel(n, edges, workers)
}

// fromEdgesSort is the historical builder: copy the edge slice, one
// global (U, V) sort, dedup, then counting placement. It is the
// reference implementation the parallel build is pinned byte-identical
// to; only tests call it.
func fromEdgesSort(n int, edges []Edge) *Digraph {
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	// Deduplicate in place.
	dedup := sorted[:0]
	for i, e := range sorted {
		if i > 0 && e == sorted[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	sorted = dedup
	m := len(sorted)

	outOff := make([]int64, n+1)
	outAdj := make([]VertexID, m)
	inOff := make([]int64, n+1)
	inAdj := make([]VertexID, m)

	for _, e := range sorted {
		outOff[e.U+1]++
		inOff[e.V+1]++
	}
	for i := 1; i <= n; i++ {
		outOff[i] += outOff[i-1]
		inOff[i] += inOff[i-1]
	}
	// Out adjacency is already in (U, V) order.
	for i, e := range sorted {
		outAdj[i] = e.V
	}
	// In adjacency: counting placement, then per-vertex sort for
	// deterministic, ID-sorted neighborhoods.
	cursor := make([]int64, n)
	copy(cursor, inOff[:n])
	for _, e := range sorted {
		inAdj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		seg := inAdj[inOff[v]:inOff[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return newDigraph(int32(n), outOff, outAdj, inOff, inAdj)
}

// EdgePrefix returns the first fraction frac (0 < frac <= 1) of the
// edge slice, rounding to the nearest edge. It is the scalability
// workload of Exp 6 (Fig. 7): the i-th test graph contains the first
// i/5 of the generated edge stream.
func EdgePrefix(edges []Edge, frac float64) []Edge {
	if frac <= 0 {
		return nil
	}
	if frac >= 1 {
		return edges
	}
	k := int(float64(len(edges))*frac + 0.5)
	if k > len(edges) {
		k = len(edges)
	}
	return edges[:k]
}
