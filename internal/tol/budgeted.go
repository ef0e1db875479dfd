package tol

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// BuildBudgeted runs TOL with every per-vertex label list capped at
// budget entries per direction — the memory-bounded mode for graphs
// whose full 2-hop cover does not fit. The rounds are Build's (one
// loop, rounds); the only change is at the append: when the pruning
// rule asks for an entry a full list cannot take, the entry is dropped
// and the list is marked incomplete. Dropping never invalidates stored
// entries (they remain factual reachability witnesses), and later
// rounds keep running their pruning tests against the capped lists,
// which can only add entries full TOL would have pruned — also
// factual. See label.Budgeted for why this keeps both query
// directions sound.
//
// The returned index retains g for fallback queries. ctx stops the
// build as it stops BuildCancelable's; nil never stops it.
func BuildBudgeted(g *graph.Digraph, ord *order.Ordering, budget int, ctx context.Context) (*label.Budgeted, error) {
	if budget < 1 {
		return nil, fmt.Errorf("tol: label budget %d must be at least 1", budget)
	}
	n := g.NumVertices()
	inFull := make([]bool, n)
	outFull := make([]bool, n)
	for v := range inFull {
		inFull[v], outFull[v] = true, true
	}
	in, out, err := rounds(ctx, g, ord, budget, inFull, outFull)
	if err != nil {
		return nil, err
	}
	return label.NewBudgeted(label.FromLists(ord, in, out), g, budget, inFull, outFull), nil
}
