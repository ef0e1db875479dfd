package drl

import (
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// BuildNaive computes the index through the raw filtering-and-
// refinement framework of Theorem 2:
//
//	L⁻_in(v) = DES(v) − ∪_{u ∈ DES_hig(v)} DES(u)
//
// with one full BFS for v and one per higher-order descendant. It is
// quadratic in the worst case and exists as the most literal oracle
// against which the optimized variants are verified.
func BuildNaive(g *graph.Digraph, ord *order.Ordering, opt Options) (*label.Index, error) {
	n := g.NumVertices()
	backIn := make([][]graph.VertexID, n)
	backOut := make([][]graph.VertexID, n)
	inv := g.Inverse()

	type scratch struct {
		epoch []int32
		cur   int32
		queue []graph.VertexID
	}
	scratches := make([]*scratch, opt.workers())
	for i := range scratches {
		scratches[i] = &scratch{epoch: make([]int32, n)}
	}

	// eliminate marks DES(u) for every higher-order descendant u of v.
	// A u already marked by an earlier elimination BFS is skipped: its
	// descendants are a subset of the marker's (§III-C).
	eliminate := func(dir *graph.Digraph, s *scratch, des []graph.VertexID, rv order.Rank) {
		s.cur++
		for _, u := range des {
			if ord.RankOf(u) >= rv || s.epoch[u] == s.cur {
				continue // not higher order, or already swept
			}
			// Full BFS from u marking everything it reaches.
			s.queue = s.queue[:0]
			s.queue = append(s.queue, u)
			s.epoch[u] = s.cur
			for head := 0; head < len(s.queue); head++ {
				x := s.queue[head]
				for _, y := range dir.OutNeighbors(x) {
					if s.epoch[y] != s.cur {
						s.epoch[y] = s.cur
						s.queue = append(s.queue, y)
					}
				}
			}
		}
	}

	run := func(dir *graph.Digraph, back [][]graph.VertexID) error {
		return parallelRanks(0, order.Rank(n), opt.workers(), opt.Ctx, func(wk int, r order.Rank) {
			v := ord.VertexAt(r)
			s := scratches[wk]
			des := graph.Descendants(dir, v)
			eliminate(dir, s, des, r)
			var keep []graph.VertexID
			for _, w := range des {
				if s.epoch[w] != s.cur {
					keep = append(keep, w)
				}
			}
			back[r] = keep
		})
	}
	if err := run(g, backIn); err != nil {
		return nil, err
	}
	if err := run(inv, backOut); err != nil {
		return nil, err
	}
	return label.FromLists(ord, forward(backIn), forward(backOut)), nil
}

// forward turns backward label sets — back[r] holds every vertex whose
// list has rank r (Definition 4) — into forward lists. Taking ranks in
// increasing order leaves each list ascending, as BuildBatch's are.
func forward(back [][]graph.VertexID) [][]order.Rank {
	lists := make([][]order.Rank, len(back))
	for r, ws := range back {
		for _, w := range ws {
			lists[w] = append(lists[w], order.Rank(r))
		}
	}
	return lists
}
