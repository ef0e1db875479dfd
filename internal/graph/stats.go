package graph

import (
	"fmt"
	"slices"
)

// Stats summarizes a graph for the Table V dataset inventory.
type Stats struct {
	Vertices     int
	Edges        int64
	MaxOutDegree int
	MaxInDegree  int
	AvgDegree    float64
	SelfLoops    int
	Components   int // strongly connected components
	LargestSCC   int
	Acyclic      bool
}

// ComputeStats gathers the Stats of g. It counts in-degrees from the
// out-adjacency and runs SCC, and is therefore linear in the graph
// size.
func ComputeStats(g *Digraph) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	inDeg := make([]int32, g.NumVertices())
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if d := g.OutDegree(v); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		for _, w := range g.OutNeighbors(v) {
			inDeg[w]++
			if w == v {
				s.SelfLoops++
			}
		}
	}
	if s.Vertices > 0 {
		s.MaxInDegree = int(slices.Max(inDeg))
		s.AvgDegree = float64(s.Edges) / float64(s.Vertices)
	}
	scc := SCC(g)
	s.Components = scc.NumComponents()
	s.LargestSCC = scc.LargestComponent()
	s.Acyclic = s.LargestSCC <= 1 && s.SelfLoops == 0
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d avg-deg=%.2f max-out=%d max-in=%d self-loops=%d SCCs=%d largest-SCC=%d acyclic=%v",
		s.Vertices, s.Edges, s.AvgDegree, s.MaxOutDegree, s.MaxInDegree, s.SelfLoops, s.Components, s.LargestSCC, s.Acyclic)
}
