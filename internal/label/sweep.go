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

// Budgeted sweeps. Capped labels make a mark-table miss inconclusive,
// so a budgeted sweep is one unpruned forward BFS from s: exact however
// the lists overflowed, O(n + m) for the whole sweep. On the budget-32
// index of the 200k citation graph it is 8× faster than marking a
// complete L_out(s) and probing each target (a pruned BFS per target
// whose in-list overflowed) at 256 targets and 27× at 8,192; the label
// arm won only at one target (0.3 against 1.3 µs).

// ReachableFrom answers q(s, t) for every target, identically to
// calling Reachable(s, t) per target. Its traversal polls ctx and a
// cancelled one ends the sweep with the context's error.
func (b *Budgeted) ReachableFrom(ctx context.Context, s graph.VertexID, targets []graph.VertexID) ([]bool, error) {
	res := make([]bool, len(targets))
	if len(targets) == 0 { // a join with no targets sweeps every source
		return res, nil
	}
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	if _, err := w.run(ctx, b.g.NumVertices(), s, b.g.OutNeighbors, nil); err != nil {
		return nil, err
	}
	for i, t := range targets {
		res[i] = w.seen.Has(t)
	}
	return res, nil
}

// ReachableSetSize returns |{t : q(s, t)}|, the size of the same BFS.
func (b *Budgeted) ReachableSetSize(ctx context.Context, s graph.VertexID) (int, error) {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	if _, err := w.run(ctx, b.g.NumVertices(), s, b.g.OutNeighbors, nil); err != nil {
		return 0, err
	}
	return len(w.queue), nil
}
