// Package tol implements Total Order Labeling (Algorithm 1 of the
// paper; Zhu et al., SIGMOD 2014), the serial state-of-the-art
// index-only method the distributed algorithms must reproduce exactly.
//
// TOL labels vertices in decreasing total order. In round i it finds
// the descendants and ancestors of the round's vertex v_i in the
// residual graph G_i (G with all previously-labeled vertices removed)
// and adds v_i to the label sets of those that pass the pruning
// operation. Two implementation facts keep this linear-ish in
// practice:
//
//   - The BFS over the residual graph G_i never materializes G_i: it
//     is exactly the trimmed BFS of Algorithm 2, which blocks at
//     vertices of order higher than v_i (all of which were removed in
//     earlier rounds).
//   - Labels are appended in round order, so every label list stays
//     sorted by rank and the pruning test L_out(v) ∩ L_in(w) = ∅ is a
//     linear merge.
package tol

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Build runs TOL on g under ord and returns the index. The graph may
// be cyclic (§II-C); pass order.Compute(g) for the paper's
// degree-product order.
func Build(g *graph.Digraph, ord *order.Ordering) *label.Index {
	idx, _ := BuildCancelable(context.Background(), g, ord)
	return idx
}

// BuildCancelable is Build under ctx, checked once per 256 labeling
// rounds: a build ctx stops returns ctx's error. A nil ctx never stops.
func BuildCancelable(ctx context.Context, g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
	in, out, err := rounds(ctx, g, ord, math.MaxInt, nil, nil)
	if err != nil {
		return nil, err
	}
	return label.FromLists(ord, in, out), nil
}

// rounds is Algorithm 1, the one round loop behind Build and
// BuildBudgeted. It returns the per-vertex label lists. A list holding
// budget entries takes no more: the refused entry clears the vertex's
// inFull/outFull mark instead. The unbudgeted builds pass a budget no
// list reaches and nil marks.
func rounds(ctx context.Context, g *graph.Digraph, ord *order.Ordering, budget int, inFull, outFull []bool) (in, out [][]order.Rank, err error) {
	n := g.NumVertices()
	in = make([][]order.Rank, n)
	out = make([][]order.Rank, n)

	fw := label.NewScratch(n)
	bw := label.NewScratch(n)
	inv := g.Inverse()
	var des, anc []graph.VertexID

	for r := order.Rank(0); int(r) < n; r++ {
		if r%256 == 0 && ctx != nil && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		v := ord.VertexAt(r)
		des, _ = label.TrimmedBFS(g, ord, v, fw, des[:0], nil)
		anc, _ = label.TrimmedBFS(inv, ord, v, bw, anc[:0], nil)
		// Pruning operation (lines 7-12). Both tests read the label
		// state of rounds < r only; same-round additions are all of
		// rank r and can never produce an intersection because the
		// opposite side still holds ranks < r at test time.
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
	return in, out, nil
}
