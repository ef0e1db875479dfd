// Package order computes the total vertex order that drives every
// labeling algorithm in this repository.
//
// The paper defines ord(v) = (d_in(v)+1)·(d_out(v)+1) + ID(v)/(n+1):
// a degree product with the vertex ID as an ascending tie-breaker
// (§II-B). Because only comparisons between order values matter, the
// order is materialized as a rank permutation — rank 0 is the
// highest-order vertex — and every algorithm compares int32 ranks
// instead of floating-point order values.
package order

import "repro/internal/graph"

// Rank is a position in the total order; rank 0 is the highest-order
// vertex (the first one TOL would label).
type Rank int32

// Ordering is a materialized total order over the vertices of a graph.
type Ordering struct {
	// rank[v] is the rank of vertex v.
	rank []Rank
	// vertex[r] is the vertex with rank r.
	vertex []graph.VertexID
	n      int
}

// Compute derives the paper's degree-product ordering for g: by
// descending (d_in+1)(d_out+1), the +ID/(n+1) term making the larger ID
// the higher order among equal products.
func Compute(g *graph.Digraph) *Ordering {
	in := inDegrees(g)
	return computeByKey(g, func(v graph.VertexID) int64 {
		return int64(in[v]+1) * int64(g.OutDegree(v)+1)
	})
}

// inDegrees counts d_in(v) of every vertex from g's out-adjacency.
func inDegrees(g *graph.Digraph) []int32 {
	in := make([]int32, g.NumVertices())
	for u := range in {
		for _, v := range g.OutNeighbors(graph.VertexID(u)) {
			in[v]++
		}
	}
	return in
}

// FromRanks builds an Ordering from an explicit rank permutation,
// used by tests to force adversarial orders. It panics if ranks is not
// a permutation of 0..n-1.
func FromRanks(ranks []Rank) *Ordering {
	n := len(ranks)
	o := &Ordering{rank: make([]Rank, n), vertex: make([]graph.VertexID, n), n: n}
	seen := make([]bool, n)
	for v, r := range ranks {
		if r < 0 || int(r) >= n || seen[r] {
			panic("order: ranks is not a permutation")
		}
		seen[r] = true
		o.rank[v] = r
		o.vertex[r] = graph.VertexID(v)
	}
	return o
}

// FromVertices builds an Ordering from its rank→vertex sequence, which
// it keeps: vertices[r] is the vertex of rank r. It returns nil if
// vertices is not a permutation of 0..n-1 — the check an index file's
// reader needs, so it is an answer rather than FromRanks's panic.
func FromVertices(vertices []graph.VertexID) *Ordering {
	n := len(vertices)
	o := &Ordering{rank: make([]Rank, n), vertex: vertices, n: n}
	for i := range o.rank {
		o.rank[i] = -1
	}
	for r, v := range vertices {
		if v < 0 || int(v) >= n || o.rank[v] >= 0 {
			return nil
		}
		o.rank[v] = Rank(r)
	}
	return o
}

// N returns the number of vertices in the order.
func (o *Ordering) N() int { return o.n }

// RankOf returns the rank of vertex v.
func (o *Ordering) RankOf(v graph.VertexID) Rank { return o.rank[v] }

// VertexAt returns the vertex with rank r.
func (o *Ordering) VertexAt(r Rank) graph.VertexID { return o.vertex[r] }

// Higher reports whether ord(u) > ord(v).
func (o *Ordering) Higher(u, v graph.VertexID) bool { return o.rank[u] < o.rank[v] }

// Ranks returns the underlying vertex→rank slice. Callers must not
// modify it.
func (o *Ordering) Ranks() []Rank { return o.rank }

// Vertices returns the underlying rank→vertex slice. Callers must not
// modify it.
func (o *Ordering) Vertices() []graph.VertexID { return o.vertex }
