package label

import (
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// A patched Index is how a maintainer publishes an update without
// re-freezing: the flat arrays of the last fold, shared and untouched,
// under the label lists that have changed since. q(s, t) is a function
// of L_out(s) and L_in(t) alone, so an override reaches exactly the
// queries with that endpoint and every other query cannot tell the
// patch is there. Whole-index operations (WriteTo, Equal, Thaw, the
// size accessors) read through InLabels and OutLabels and so see the
// logical index; Fold materializes it.

type patch struct {
	in, out *graph.Overlay[order.Rank]
}

// touches reports whether q(s, t) reads an overridden list.
func (p *patch) touches(s, t graph.VertexID) bool {
	return p.out.Has(s) || p.in.Has(t)
}

// patchedIn and patchedOut are the patched halves of InLabels and
// OutLabels, kept out of line so those stay within the inlining budget
// for the flat index every static caller has.
//
//go:noinline
func (x *Index) patchedIn(v graph.VertexID) []order.Rank {
	if l, ok := x.patch.in.Get(v); ok {
		return l
	}
	return x.inLab[x.inOff[v]:x.inOff[v+1]]
}

//go:noinline
func (x *Index) patchedOut(v graph.VertexID) []order.Rank {
	if l, ok := x.patch.out.Get(v); ok {
		return l
	}
	return x.outLab[x.outOff[v]:x.outOff[v+1]]
}

// entries returns Σ|L_in| and Σ|L_out| of the logical index.
func (x *Index) entries() (in, out int64) {
	in, out = int64(len(x.inLab)), int64(len(x.outLab))
	if p := x.patch; p != nil {
		in += int64(p.in.Entries() - p.in.Shadowed())
		out += int64(p.out.Entries() - p.out.Shadowed())
	}
	return in, out
}

// Patched returns the index that reads in[v] for L_in(v) and out[v]
// for L_out(v) wherever the overlays hold v, and x's own lists
// elsewhere. x must be flat. It shares x's arrays and the overlays'
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

// Fold returns the flat index with x's label sets: x itself when it is
// unpatched, otherwise fresh arrays with the overrides written in.
func (x *Index) Fold() *Index {
	if x.patch == nil {
		return x
	}
	nIn, nOut := x.entries()
	f := &Index{
		n:      x.n,
		ord:    x.ord,
		inOff:  make([]int64, x.n+1),
		inLab:  make([]order.Rank, 0, nIn),
		outOff: make([]int64, x.n+1),
		outLab: make([]order.Rank, 0, nOut),
	}
	for v := graph.VertexID(0); int(v) < x.n; v++ {
		f.inLab = append(f.inLab, x.InLabels(v)...)
		f.outLab = append(f.outLab, x.OutLabels(v)...)
		f.inOff[v+1] = int64(len(f.inLab))
		f.outOff[v+1] = int64(len(f.outLab))
	}
	return f
}
