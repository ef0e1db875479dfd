// Package graph provides the directed-graph substrate used by every
// labeling algorithm in this repository.
//
// A graph is one direction: its out-edges in compressed sparse row
// (CSR) form, so every out-neighborhood is a contiguous slice. The
// in-edges are the out-edges of the inverse graph, which Inverse
// returns and whoever walks in-edges holds for as long as it does.
// Vertex identifiers are dense int32 values in [0, N).
package graph

import "fmt"

// VertexID identifies a vertex. IDs are dense: a graph with n vertices
// uses exactly the IDs 0..n-1.
type VertexID int32

// Edge is a directed edge from U to V.
type Edge struct {
	U, V VertexID
}

// Digraph is an immutable directed graph in out-direction CSR form,
// every neighborhood sorted and free of duplicates. Construct one with
// FromEdges or FromEdgeStream (one builder, build.go) or a loader from
// the io files.
type Digraph struct {
	n      int32
	m      int64
	outOff []int64
	outAdj []VertexID

	// inverse is the transpose where g comes with one: the in-sections
	// of the v2 file g was read or mapped from, or the graph g was
	// derived from by Inverse. Otherwise it is nil, and g holds one
	// direction only.
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

// OutDegree returns d_out(v).
func (g *Digraph) OutDegree(v VertexID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// Inverse returns the inverse graph G̅: same vertices, every edge
// reversed, so its out-neighborhoods are g's in-neighborhoods. A graph
// from a v2 file returns the file's own in-sections, and the inverse
// of an Inverse is the graph it came from: neither copies anything.
// Any other graph derives a fresh transpose per call (build.go's
// stable counting sort), which the caller owns and g does not keep.
func (g *Digraph) Inverse() *Digraph {
	if g.inverse != nil {
		return g.inverse
	}
	return g.transpose(buildWorkers(int(g.n), g.m))
}

// transpose derives G̅ with the given number of workers; the result is
// the same for every count.
func (g *Digraph) transpose(workers int) *Digraph {
	inOff, inAdj := inFromOut(int(g.n), g.outOff, g.outAdj, workers)
	return &Digraph{n: g.n, m: g.m, outOff: inOff, outAdj: inAdj, inverse: g}
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

// newDigraph assembles a graph and its inverse from both directions'
// CSR arrays — a v2 file's four sections — and links the two.
func newDigraph(n int32, outOff []int64, outAdj []VertexID, inOff []int64, inAdj []VertexID) *Digraph {
	g := &Digraph{n: n, m: int64(len(outAdj)), outOff: outOff, outAdj: outAdj}
	g.inverse = &Digraph{n: n, m: g.m, outOff: inOff, outAdj: inAdj, inverse: g}
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
