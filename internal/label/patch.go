package label

import (
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// A patched Index is how a maintainer publishes an update without
// re-laying-out: the layout of the last fold, shared and untouched,
// under the label lists that have changed since. q(s, t) is a function
// of L_out(s) and L_in(t) alone, so an override reaches exactly the
// queries with that endpoint and every other query cannot tell the
// patch is there. Whole-index operations (WriteTo, Equal, Thaw, the
// size accessors) read through AppendInLabels and AppendOutLabels and
// so see the logical index; Fold materializes it.

type patch struct {
	in, out *graph.Overlay[order.Rank]
}

// touches reports whether q(s, t) reads an overridden list.
func (p *patch) touches(s, t graph.VertexID) bool {
	return p.out.Has(s) || p.in.Has(t)
}

// patchedReachable answers a pair that reads an override: both lists
// decoded into pooled scratch, then merged. Kept out of line so that
// Reachable's body stays the kernel every unpatched pair runs.
//
//go:noinline
func (x *Index) patchedReachable(s, t graph.VertexID) bool {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	w.lab[0] = x.AppendOutLabels(w.lab[0][:0], s)
	w.lab[1] = x.AppendInLabels(w.lab[1][:0], t)
	return intersects(w.lab[0], w.lab[1])
}

// entries returns Σ|L_in| and Σ|L_out| of the logical index.
func (x *Index) entries() (in, out int64) {
	in, out = x.in.entries, x.out.entries
	if p := x.patch; p != nil {
		in += int64(p.in.Entries() - p.in.Shadowed())
		out += int64(p.out.Entries() - p.out.Shadowed())
	}
	return in, out
}

// Patched returns the index that reads in[v] for L_in(v) and out[v]
// for L_out(v) wherever the overlays hold v, and x's own lists
// elsewhere. x must be unpatched. It shares x's layout and the overlays'
// lists, costs nothing in their size, and is x itself when both
// overlays are empty.
func (x *Index) Patched(in, out *graph.Overlay[order.Rank]) *Index {
	if in.Len() == 0 && out.Len() == 0 {
		return x
	}
	if x.patch != nil {
		panic("label: Patched called on a patched index")
	}
	px := *x
	px.patch = &patch{in: in, out: out}
	if invariant.Enabled {
		for v := graph.VertexID(0); int(v) < x.n; v++ {
			invariant.StrictlyIncreasing("label: patched in-list", px.InLabels(v))
			invariant.StrictlyIncreasing("label: patched out-list", px.OutLabels(v))
		}
	}
	return &px
}

// Fold returns the unpatched index with x's label sets: x itself when
// it is unpatched, otherwise a fresh layout with the overrides written
// in.
func (x *Index) Fold() *Index {
	if x.patch == nil {
		return x
	}
	var buf []order.Rank
	decoded := func(appendList func([]order.Rank, graph.VertexID) []order.Rank) func(graph.VertexID) []order.Rank {
		return func(v graph.VertexID) []order.Rank {
			buf = appendList(buf[:0], v)
			return buf
		}
	}
	return &Index{n: x.n, ord: x.ord, in: layoutOf(x.ord, decoded(x.AppendInLabels)), out: layoutOf(x.ord, decoded(x.AppendOutLabels))}
}
