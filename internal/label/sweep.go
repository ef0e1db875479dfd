package label

import (
	"context"

	"repro/internal/graph"
)

// One-source sweeps: ReachableFrom and ReachableSetSize amortize the
// out-label load the way ReachableBatch amortizes sorting. A pairwise
// loop pays O(|L_out(s)| + |L_in(t)|) per target; the sweep marks
// L_out(s)'s ranks into an epoch-stamped scratch table once and then
// answers each target with a single scan of L_in(t) — the out side is
// read exactly once no matter how many targets follow.

// markOut leaves exactly the ranks of L_out(s) stamped in the mark
// table of w, a pooled walk of which a sweep uses nothing else but its
// list buffer.
func (x *Index) markOut(w *walk, s graph.VertexID) {
	w.seen.Reset(x.n)
	w.lab[0] = x.AppendOutLabels(w.lab[0][:0], s)
	for _, r := range w.lab[0] {
		w.seen.mark[r] = w.seen.epoch
	}
}

// hitIn reports whether any rank of L_in(t) is stamped — exactly the
// L_out(s) ∩ L_in(t) ≠ ∅ test against the marked source.
func (x *Index) hitIn(w *walk, t graph.VertexID) bool {
	w.lab[0] = x.AppendInLabels(w.lab[0][:0], t)
	for _, r := range w.lab[0] {
		if w.seen.mark[r] == w.seen.epoch {
			return true
		}
	}
	return false
}

// ReachableFrom answers q(s, t) for every target, identically to
// calling Reachable(s, t) per target, in O(|L_out(s)| + Σ|L_in(t)|)
// for the whole sweep: L_out(s) is loaded once into the mark table and
// each target costs one scan of its in-label list. Like a traversal,
// a sweep looks at ctx every cancelPoll steps and ends with its error.
func (x *Index) ReachableFrom(ctx context.Context, s graph.VertexID, targets []graph.VertexID) ([]bool, error) {
	res := make([]bool, len(targets))
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	x.markOut(w, s)
	for i, t := range targets {
		if i%cancelPoll == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res[i] = x.hitIn(w, t)
	}
	return res, nil
}

// ReachableSetSize returns |{t : q(s, t)}| over the whole ID space —
// the one-source sweep with counting instead of materialization: the
// number of true bits ReachableFrom(s, allVertices) would return.
func (x *Index) ReachableSetSize(ctx context.Context, s graph.VertexID) (int, error) {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	x.markOut(w, s)
	total := 0
	for t := graph.VertexID(0); int(t) < x.n; t++ {
		if t%cancelPoll == 0 && ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if x.hitIn(w, t) {
			total++
		}
	}
	return total, nil
}

// Budgeted sweeps. Capped labels make a bare mark-table miss
// inconclusive, so the sweep splits by the completeness of L_out(s):
//
//   - L_out(s) complete: a label hit is a sound true, a miss against a
//     complete L_in(t) is a sound false, and only targets whose
//     in-label overflowed fall back to the pruned BFS.
//   - L_out(s) overflowed: every miss would need a fallback, so the
//     whole sweep collapses into one unpruned forward BFS from s —
//     exact by construction and cheaper than per-target fallbacks.

// ReachableFrom answers q(s, t) for every target, identically to
// calling Reachable(s, t) per target. Its traversals poll ctx and a
// cancelled one ends the sweep with the context's error.
func (b *Budgeted) ReachableFrom(ctx context.Context, s graph.VertexID, targets []graph.VertexID) ([]bool, error) {
	res := make([]bool, len(targets))
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	if !b.outFull[s] {
		if _, err := w.run(ctx, b.g.NumVertices(), s, b.g.OutNeighbors, nil); err != nil {
			return nil, err
		}
		for i, t := range targets {
			res[i] = w.seen.Has(t)
		}
		return res, nil
	}
	marks := walkPool.Get().(*walk)
	defer walkPool.Put(marks)
	b.x.markOut(marks, s)
	for i, t := range targets {
		// Reflexivity before labels: s's own rank may be capped out.
		res[i] = t == s || b.x.hitIn(marks, t)
		if !res[i] && !b.inFull[t] {
			var err error
			if res[i], err = b.fallback(ctx, w, s, t); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// ReachableSetSize returns |{t : q(s, t)}|. One unpruned BFS from s is
// exact regardless of which lists overflowed and costs O(n + m) total,
// which beats a label sweep whose misses against overflowed in-labels
// would each need their own fallback.
func (b *Budgeted) ReachableSetSize(ctx context.Context, s graph.VertexID) (int, error) {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	if _, err := w.run(ctx, b.g.NumVertices(), s, b.g.OutNeighbors, nil); err != nil {
		return 0, err
	}
	return len(w.queue), nil
}
