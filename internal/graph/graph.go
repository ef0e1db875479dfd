// Package graph provides the directed-graph substrate used by every
// labeling algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form in both edge
// directions, so out-neighborhoods and in-neighborhoods are contiguous
// slices and the inverse graph is available without copying. Vertex
// identifiers are dense int32 values in [0, N).
package graph

import "fmt"

// VertexID identifies a vertex. IDs are dense: a graph with n vertices
// uses exactly the IDs 0..n-1.
type VertexID int32

// Edge is a directed edge from U to V.
type Edge struct {
	U, V VertexID
}

// Digraph is an immutable directed graph in dual-direction CSR form,
// every neighborhood sorted and free of duplicates. Construct one with
// FromEdges or FromEdgeStream (one builder, build.go) or a loader from
// the io files.
type Digraph struct {
	n      int32
	m      int64
	outOff []int64
	outAdj []VertexID
	inOff  []int64
	inAdj  []VertexID

	// inverse caches the view with edge directions swapped. The two
	// views share all four slices.
	inverse *Digraph
}

// NumVertices returns the number of vertices n.
func (g *Digraph) NumVertices() int { return int(g.n) }

// NumEdges returns the number of directed edges m (after any
// deduplication performed at build time).
func (g *Digraph) NumEdges() int64 { return g.m }

// OutNeighbors returns the out-neighborhood N_out(v) as a shared,
// read-only slice sorted by vertex ID.
func (g *Digraph) OutNeighbors(v VertexID) []VertexID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-neighborhood N_in(v) as a shared,
// read-only slice sorted by vertex ID.
func (g *Digraph) InNeighbors(v VertexID) []VertexID {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns d_out(v).
func (g *Digraph) OutDegree(v VertexID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns d_in(v).
func (g *Digraph) InDegree(v VertexID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// Inverse returns the inverse graph G̅: same vertices, every edge
// reversed. The returned graph shares storage with g and is built once.
func (g *Digraph) Inverse() *Digraph {
	return g.inverse
}

// Edges appends every edge of g to dst and returns the extended slice.
// Edges are produced in (source, target) sorted order.
func (g *Digraph) Edges(dst []Edge) []Edge {
	for u := VertexID(0); u < VertexID(g.n); u++ {
		for _, v := range g.OutNeighbors(u) {
			dst = append(dst, Edge{U: u, V: v})
		}
	}
	return dst
}

// String returns a short human-readable summary.
func (g *Digraph) String() string {
	return fmt.Sprintf("Digraph(n=%d, m=%d)", g.n, g.m)
}

// newDigraph assembles the dual CSR views and links the inverse.
func newDigraph(n int32, outOff []int64, outAdj []VertexID, inOff []int64, inAdj []VertexID) *Digraph {
	g := &Digraph{
		n:      n,
		m:      int64(len(outAdj)),
		outOff: outOff,
		outAdj: outAdj,
		inOff:  inOff,
		inAdj:  inAdj,
	}
	inv := &Digraph{
		n:       n,
		m:       g.m,
		outOff:  inOff,
		outAdj:  inAdj,
		inOff:   outOff,
		inAdj:   outAdj,
		inverse: g,
	}
	g.inverse = inv
	return g
}

// FromEdges builds a Digraph with n vertices from an edge list. The
// input slice is neither modified nor copied. Duplicate edges are
// removed; self-loops are kept (they never affect reachability but
// appear in real datasets). It is FromEdgeStream over the slice, and
// panics where that returns an error: an out-of-range vertex count, or
// an edge referencing a vertex outside [0, n).
func FromEdges(n int, edges []Edge) *Digraph {
	g, err := FromEdgeStream(n, StreamOfEdges(edges))
	if err != nil {
		panic(err.Error())
	}
	return g
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
