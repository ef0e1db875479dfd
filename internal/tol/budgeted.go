package tol

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// BuildBudgeted runs TOL with every per-vertex label list capped at
// budget entries per direction — the memory-bounded mode for graphs
// whose full 2-hop cover does not fit. The rounds are identical to
// Build; the only change is at the append: when the pruning rule asks
// for an entry a full list cannot take, the entry is dropped and the
// list is marked incomplete. Dropping never invalidates stored
// entries (they remain factual reachability witnesses), and later
// rounds keep running their pruning tests against the capped lists,
// which can only add entries full TOL would have pruned — also
// factual. See label.Budgeted for why this keeps both query
// directions sound.
//
// The returned index retains g for fallback queries.
func BuildBudgeted(g *graph.Digraph, ord *order.Ordering, budget int, cancel <-chan struct{}) (*label.Budgeted, error) {
	if budget < 1 {
		return nil, fmt.Errorf("tol: label budget %d must be at least 1", budget)
	}
	n := g.NumVertices()
	in := make([][]order.Rank, n)
	out := make([][]order.Rank, n)
	inFull := make([]bool, n)
	outFull := make([]bool, n)
	for v := range inFull {
		inFull[v], outFull[v] = true, true
	}

	fw := label.NewScratch(n)
	bw := label.NewScratch(n)
	inv := g.Inverse()
	var des, anc []graph.VertexID

	for r := order.Rank(0); int(r) < n; r++ {
		if r%256 == 0 && cancel != nil {
			select {
			case <-cancel:
				return nil, ErrCanceled
			default:
			}
		}
		v := ord.VertexAt(r)
		des, _ = label.TrimmedBFS(g, ord, v, fw, des[:0], nil)
		anc, _ = label.TrimmedBFS(inv, ord, v, bw, anc[:0], nil)
		for _, w := range des {
			if label.Disjoint(out[v], in[w]) {
				if len(in[w]) < budget {
					in[w] = append(in[w], r)
				} else {
					// A needed entry was refused: from here on a miss
					// in L_in(w) proves nothing.
					inFull[w] = false
				}
			}
		}
		for _, w := range anc {
			if label.Disjoint(in[v], out[w]) {
				if len(out[w]) < budget {
					out[w] = append(out[w], r)
				} else {
					outFull[w] = false
				}
			}
		}
	}
	x := label.FromLists(ord, in, out)
	return label.NewBudgeted(x, g, budget, inFull, outFull), nil
}
