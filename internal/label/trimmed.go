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
	mark  []int32 // epoch when the vertex was last visited or blocked
	block []int32 // epoch when the vertex was last recorded in BFS_hig
	epoch int32
	queue []graph.VertexID
}

// NewScratch returns a Scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		mark:  make([]int32, n),
		block: make([]int32, n),
		epoch: 0,
		queue: make([]graph.VertexID, 0, 256),
	}
}

func (s *Scratch) next() int32 {
	s.epoch++
	if s.epoch == 0 { // wrapped around: reset lazily
		for i := range s.mark {
			s.mark[i] = 0
			s.block[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// TrimmedBFS runs Algorithm 2 from v on g under ord, appending results
// to low and hig (both may be nil) and returning the extended slices.
// Vertices appear in low in BFS discovery order, so low[0] == v; hig
// is deduplicated.
func TrimmedBFS(g *graph.Digraph, ord *order.Ordering, v graph.VertexID, s *Scratch, low, hig []graph.VertexID) (outLow, outHig []graph.VertexID) {
	epoch := s.next()
	rv := ord.RankOf(v)
	s.queue = s.queue[:0]
	s.queue = append(s.queue, v)
	s.mark[v] = epoch
	low = append(low, v)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for _, w := range g.OutNeighbors(u) {
			if s.mark[w] == epoch {
				continue
			}
			if ord.RankOf(w) > rv { // ord(w) < ord(v): keep expanding
				s.mark[w] = epoch
				s.queue = append(s.queue, w)
				low = append(low, w)
			} else if s.block[w] != epoch { // block expansion via w
				s.block[w] = epoch
				hig = append(hig, w)
			}
		}
	}
	return low, hig
}
