package label

import (
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
// reference tol.BuildBudgeted — uphold the two facts (DESIGN.md §14
// has the argument for each).
//
// Every other pair falls back to a guarded BFS over the retained
// graph, pruned by whichever endpoint label is complete. The graph is
// therefore part of the index: a Budgeted cannot be serialized and
// served without it.
type Budgeted struct {
	x      *Index
	g      *graph.Digraph
	budget int
	// inFull[v] / outFull[v] report that L_in(v) / L_out(v) is the
	// complete label set the uncapped build would have produced a
	// superset-witness for (see above), not a truncation.
	inFull, outFull []bool

	scratch sync.Pool // *bfsScratch, reused across queries and goroutines
}

// bfsScratch is the per-query BFS state, epoch-marked so reuse costs
// no clearing: a vertex is visited iff mark[v] == epoch.
type bfsScratch struct {
	mark  []int32
	epoch int32
	queue []graph.VertexID
}

// NewBudgeted assembles a budgeted index from the capped Index, the
// graph it covers, and the per-vertex completeness flags produced by
// the builder. The graph is retained for fallback queries.
func NewBudgeted(x *Index, g *graph.Digraph, budget int, inFull, outFull []bool) *Budgeted {
	b := &Budgeted{x: x, g: g, budget: budget, inFull: inFull, outFull: outFull}
	b.scratch.New = func() any {
		return &bfsScratch{mark: make([]int32, g.NumVertices())}
	}
	return b
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
	return b.fallbackBFS(s, t)
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

// fallbackBFS resolves a label miss where at least one endpoint list
// overflowed. Three regimes, in order of preference:
//
//   - t's in-label is complete: forward BFS from s; any frontier
//     vertex with a complete out-label is resolved against L_in(t) by
//     one intersection — a hit answers the query, a miss proves that
//     vertex reaches nothing relevant and prunes its subtree.
//   - s's out-label is complete: the mirror image, backward from t.
//   - both endpoints overflowed: a plain forward BFS (rare by
//     construction — only the widest vertices overflow).
func (b *Budgeted) fallbackBFS(s, t graph.VertexID) bool {
	sc := b.scratch.Get().(*bfsScratch)
	defer b.scratch.Put(sc)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks are stale, reset once
		clear(sc.mark)
		sc.epoch = 1
	}

	backward := b.outFull[s] && !b.inFull[t]
	start, goal := s, t
	var next func(graph.VertexID) []graph.VertexID
	prune := func(graph.VertexID) (hit, cut bool) { return false, false }
	switch {
	case b.inFull[t]:
		next = b.g.OutNeighbors
		prune = func(u graph.VertexID) (hit, cut bool) {
			if !b.outFull[u] {
				return false, false
			}
			// u's out-label is the complete story of what u reaches
			// among label targets; t's in-label is complete too, so
			// this one intersection decides u's whole subtree.
			return intersects(b.x.OutLabels(u), b.x.InLabels(t)), true
		}
	case backward:
		start, goal = t, s
		next = b.g.InNeighbors
		prune = func(u graph.VertexID) (hit, cut bool) {
			if !b.inFull[u] {
				return false, false
			}
			return intersects(b.x.OutLabels(s), b.x.InLabels(u)), true
		}
	default:
		next = b.g.OutNeighbors
	}

	sc.mark[start] = sc.epoch
	sc.queue = append(sc.queue[:0], start)
	for head := 0; head < len(sc.queue); head++ {
		for _, u := range next(sc.queue[head]) {
			if u == goal {
				return true
			}
			if sc.mark[u] == sc.epoch {
				continue
			}
			sc.mark[u] = sc.epoch
			if hit, cut := prune(u); cut {
				if hit {
					return true
				}
				continue
			}
			sc.queue = append(sc.queue, u)
		}
	}
	return false
}
