package label

import (
	"repro/internal/graph"
	"repro/internal/order"
)

// Trimmed BFS (Algorithm 2): a v-sourced BFS over out-edges that only
// expands through vertices of order lower than v. It returns
//
//	BFS_low(v): the visited vertices (all of order ≤ ord(v), v first),
//	BFS_hig(v): the higher-order vertices at which expansion blocked.
//
// Lemma 2: one call costs O(|V| + |E|); with a Scratch the per-call
// allocation is amortized away, which matters because every labeling
// algorithm performs n of these.

// Scratch holds the reusable state for repeated trimmed BFS calls.
// It is not safe for concurrent use; allocate one per goroutine.
type Scratch struct {
	mark  Marks // visited or blocked
	block Marks // recorded in BFS_hig
	queue []graph.VertexID
}

// NewScratch returns a Scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	s := &Scratch{queue: make([]graph.VertexID, 0, 256)}
	s.mark.Reset(n)
	s.block.Reset(n)
	return s
}

// TrimmedBFS runs Algorithm 2 from v on g under ord, appending results
// to low and hig (both may be nil) and returning the extended slices.
// Vertices appear in low in BFS discovery order, so low[0] == v; hig
// is deduplicated.
func TrimmedBFS(g *graph.Digraph, ord *order.Ordering, v graph.VertexID, s *Scratch, low, hig []graph.VertexID) (outLow, outHig []graph.VertexID) {
	s.mark.Reset(g.NumVertices())
	s.block.Reset(g.NumVertices())
	rv := ord.RankOf(v)
	s.queue = append(s.queue[:0], v)
	s.mark.Add(v)
	low = append(low, v)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for _, w := range g.OutNeighbors(u) {
			if s.mark.Has(w) {
				continue
			}
			if ord.RankOf(w) > rv { // ord(w) < ord(v): keep expanding
				s.mark.Add(w)
				s.queue = append(s.queue, w)
				low = append(low, w)
			} else if !s.block.Has(w) { // block expansion via w
				s.block.Add(w)
				hig = append(hig, w)
			}
		}
	}
	return low, hig
}
