package label

import (
	"context"
	"sync"

	"repro/internal/graph"
)

// Budgeted is a reachability index whose per-vertex label lists are
// capped at a fixed width (the FERRARI idea adapted to TOL labels):
// when a graph's full 2-hop cover would not fit in memory, the builder
// keeps at most `budget` ranks per vertex per direction and records,
// per vertex and direction, whether the list is complete — i.e. the
// builder never refused an addition the pruning rule asked for.
//
// Query semantics rest on two facts:
//
//   - Every stored entry is factual (rank r ∈ L_out(v) still means v
//     reaches the rank-r vertex; capping elsewhere only weakens
//     pruning, which adds entries, never invents them), so a label hit
//     is always a sound "reachable".
//   - The 2-hop cover property survives capping for any pair whose two
//     endpoint lists are both complete: the inductive witness argument
//     of TOL only ever needs additions to those two lists, and a
//     pruning test that blocks such an addition stores its blocking
//     witness in the very list being tested. So a miss with
//     outFull(s) ∧ inFull(t) is a sound "unreachable".
//
// Both builders — the parallel drl.BuildBatchBudgeted and the serial
// reference tol.BuildBudgeted — uphold the two facts (DESIGN.md §5
// has the argument for each).
//
// Every other pair falls back to a guarded BFS over the retained
// graph, pruned by whichever endpoint label is complete. The graph is
// therefore part of the index: its file (Extras) carries the budget,
// the flags and the graph's fingerprint, and is reopened with the graph.
type Budgeted struct {
	x *Index
	g *graph.Digraph
	// inverse derives g's transpose at the first backward fallback and
	// holds it from then on: an index whose fallbacks all run forward
	// never pays for one.
	inverse func() *graph.Digraph
	budget  int
	// inFull[v] / outFull[v] report that L_in(v) / L_out(v) is the
	// complete label set the uncapped build would have produced a
	// superset-witness for (see above), not a truncation.
	inFull, outFull []bool
}

// NewBudgeted assembles a budgeted index from the capped Index, the
// graph it covers, and the per-vertex completeness flags produced by
// the builder. The graph is retained for fallback queries, and its
// transpose from the first fallback that walks backward.
func NewBudgeted(x *Index, g *graph.Digraph, budget int, inFull, outFull []bool) *Budgeted {
	return &Budgeted{x: x, g: g, inverse: sync.OnceValue(g.Inverse), budget: budget, inFull: inFull, outFull: outFull}
}

// Index returns the capped label index (entries are factual; lists may
// be incomplete where the flags say so).
func (b *Budgeted) Index() *Index { return b.x }

// Budget returns the per-vertex per-direction label cap.
func (b *Budgeted) Budget() int { return b.budget }

// InFull and OutFull report whether L_in(v) / L_out(v) is complete —
// the builder never refused it an entry.
func (b *Budgeted) InFull(v graph.VertexID) bool  { return b.inFull[v] }
func (b *Budgeted) OutFull(v graph.VertexID) bool { return b.outFull[v] }

// Flags returns the two per-vertex completeness lists, read-only.
func (b *Budgeted) Flags() (inFull, outFull []bool) { return b.inFull, b.outFull }

// Overflowed returns how many vertices have an incomplete in-label and
// out-label list respectively — the vertices whose queries may need
// the BFS fallback.
func (b *Budgeted) Overflowed() (in, out int) {
	for v := range b.inFull {
		if !b.inFull[v] {
			in++
		}
		if !b.outFull[v] {
			out++
		}
	}
	return in, out
}

// Reachable answers q(s, t). A label hit is always trusted; a miss is
// trusted when both endpoint lists are complete; the residual cases
// run a BFS pruned by whichever side's labels are complete.
func (b *Budgeted) Reachable(s, t graph.VertexID) bool {
	if s == t {
		// A vertex's own rank may have been capped out of its lists,
		// so reflexivity is answered before looking at them.
		return true
	}
	if b.x.Reachable(s, t) {
		return true
	}
	if b.outFull[s] && b.inFull[t] {
		return false
	}
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	ans, _ := b.fallback(context.Background(), w, s, t) // only a cancelled ctx fails it
	return ans
}

// ReachableBatch answers q(s, t) for every pair, in the callers'
// order, identically to calling Reachable per pair.
func (b *Budgeted) ReachableBatch(pairs []Pair) []bool {
	res := make([]bool, len(pairs))
	for i, p := range pairs {
		res[i] = b.Reachable(p.S, p.T)
	}
	return res
}

// fallback resolves, on w, a label miss where at least one endpoint
// list overflowed. Three regimes, in order of preference:
//
//   - t's in-label is complete: forward BFS from s; any frontier
//     vertex with a complete out-label is resolved against L_in(t) by
//     one intersection — a hit answers the query, a miss proves that
//     vertex reaches nothing relevant and prunes its subtree.
//   - s's out-label is complete: the mirror image, backward from t.
//   - both endpoints overflowed: a plain forward BFS (rare by
//     construction — only the widest vertices overflow).
func (b *Budgeted) fallback(ctx context.Context, w *walk, s, t graph.VertexID) (bool, error) {
	n := b.g.NumVertices()
	switch {
	case b.inFull[t]:
		return w.run(ctx, n, s, b.g.OutNeighbors, func(u graph.VertexID) (hit, cut bool) {
			if u == t || !b.outFull[u] {
				return u == t, false
			}
			// u's out-label is the complete story of what u reaches
			// among label targets; t's in-label is complete too, so
			// this one intersection decides u's whole subtree.
			return b.x.Reachable(u, t), true
		}, false)
	case b.outFull[s]:
		return w.run(ctx, n, t, b.inverse().OutNeighbors, func(u graph.VertexID) (hit, cut bool) {
			if u == s || !b.inFull[u] {
				return u == s, false
			}
			return b.x.Reachable(s, u), true
		}, false)
	}
	return w.run(ctx, n, s, b.g.OutNeighbors, func(u graph.VertexID) (hit, cut bool) { return u == t, false }, false)
}
