package reachlab

import (
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
)

// VertexID identifies a vertex: graphs with n vertices use IDs 0..n-1.
type VertexID = graph.VertexID

// Edge is a directed edge.
type Edge struct {
	From, To VertexID
}

// Graph is an immutable directed graph.
type Graph struct {
	d *graph.Digraph
}

// NewGraph builds a graph with numVertices vertices from an edge
// list. Duplicate edges are removed; self-loops are allowed. It
// panics if an edge references a vertex outside [0, numVertices).
func NewGraph(numVertices int, edges []Edge) *Graph {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: e.From, V: e.To}
	}
	return &Graph{d: graph.FromEdges(numVertices, es)}
}

// LoadGraph reads a graph from a file in either the text edge-list
// format ("u v" per line, '#' comments) or the binary format written
// by SaveGraph/cmd/drgen.
func LoadGraph(path string) (*Graph, error) {
	d, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{d: d}, nil
}

// ReadGraph parses a text edge list from r.
func ReadGraph(r io.Reader) (*Graph, error) {
	d, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{d: d}, nil
}

// SaveGraph writes the graph to path, in binary format when binary is
// true and as a text edge list otherwise.
func SaveGraph(path string, g *Graph, binary bool) error {
	return graph.SaveFile(path, g.d, binary)
}

// MapGraph memory-maps a binary graph file (the v2 format written by
// SaveGraph and cmd/drgen) and serves its CSR arrays zero-copy out of
// the page cache — the loading path for graphs near physical memory.
// The returned close function unmaps the file; the graph (and any
// index built from it that retains it) must not be used afterwards.
// On platforms without mmap the graph is read into memory and close
// is a no-op.
func MapGraph(path string) (*Graph, func() error, error) {
	m, err := graph.MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{d: m.Digraph}, m.Close, nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.d.NumVertices() }

// NumEdges returns the number of distinct directed edges.
func (g *Graph) NumEdges() int64 { return g.d.NumEdges() }

// OutNeighbors returns N_out(v) as a read-only slice.
func (g *Graph) OutNeighbors(v VertexID) []VertexID { return g.d.OutNeighbors(v) }

// ReachableBFS answers q(s, t) by an online BFS — the index-free
// ground truth, linear in the graph size per query.
func (g *Graph) ReachableBFS(s, t VertexID) bool {
	return graph.Reachable(g.d, s, t)
}

// Stats returns a one-line structural summary (degrees, SCCs, ...).
func (g *Graph) Stats() string {
	return graph.ComputeStats(g.d).String()
}

// GenerateGraph produces a seeded synthetic graph from one of the
// structural families used by the evaluation suite: "web",
// "citation", "social", "knowledge", "biology", or "synthetic"
// (RMAT). Deterministic in (family, n, avgDegree, seed).
func GenerateGraph(family string, n int, avgDegree float64, seed int64) (*Graph, error) {
	d, err := gen.Generate(gen.Params{
		Family:    gen.Family(family),
		N:         n,
		AvgDegree: avgDegree,
		Seed:      seed,
	})
	if err != nil {
		return nil, fmt.Errorf("reachlab: %w", err)
	}
	return &Graph{d: d}, nil
}
