package reachlab

import (
	"errors"
	"fmt"

	"repro/internal/drl"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// DynamicIndex is a reachability index that stays correct under edge
// insertions and deletions. Updates repair only the affected label
// region (falling back to a rebuild when an update touches most of
// the graph); queries are the same label-merge as Index.
//
// The vertex order is frozen at construction, as in the original TOL:
// updates never change which vertex ranks where, so label sizes can
// drift from the degree heuristic's optimum over long update
// sequences — reconstruct via Snapshot+Build when that matters.
// Distributed dynamic maintenance is the paper's stated future work;
// this maintainer is centralized.
type DynamicIndex struct {
	d *tol.DynamicIndex
}

// NewDynamicIndex builds a maintainable index over g.
func NewDynamicIndex(g *Graph) (*DynamicIndex, error) {
	if g == nil {
		return nil, errors.New("reachlab: nil graph")
	}
	d, err := newDynamic(g.d)
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{d: d}, nil
}

// newDynamic seeds the maintainer with the index the parallel batch
// labeler builds at GOMAXPROCS — byte-identical to the serial TOL
// build the maintainer would otherwise run itself — and hands it the
// same labeler for its rebuild fallback. g and the index become the
// base every snapshot shares; nothing is copied.
func newDynamic(g *graph.Digraph) (*tol.DynamicIndex, error) {
	ord := order.Compute(g)
	idx, err := batchBuild(g, ord)
	if err != nil {
		return nil, fmt.Errorf("reachlab: building index: %w", err)
	}
	return tol.NewDynamicFrom(g, ord, idx, batchBuild), nil
}

func batchBuild(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
	return drl.BuildBatch(g, ord, drl.DefaultBatchParams(), drl.Options{})
}

// Reachable answers q(s, t) against the current graph.
func (x *DynamicIndex) Reachable(s, t VertexID) bool { return x.d.Reachable(s, t) }

// InsertEdge adds the edge (u, v) and repairs the index. Inserting an
// existing edge is a no-op.
func (x *DynamicIndex) InsertEdge(u, v VertexID) error { return x.d.InsertEdge(u, v) }

// DeleteEdge removes the edge (u, v) and repairs the index. Deleting
// a missing edge is a no-op.
func (x *DynamicIndex) DeleteEdge(u, v VertexID) error { return x.d.DeleteEdge(u, v) }

// Graph materializes the current graph. The maintainer keeps only the
// neighbor lists that updates have changed, so this costs a full CSR
// construction — call it for inspection, not per update.
func (x *DynamicIndex) Graph() *Graph { return &Graph{d: x.d.Graph()} }

// UpdateStats reports how updates were absorbed so far.
type UpdateStats struct {
	// Repairs counts updates absorbed by the localized incremental
	// sweep; Rebuilds counts updates whose affected region covered
	// most of the graph, triggering the full-rebuild fallback.
	Repairs  int64
	Rebuilds int64
}

// UpdateStats returns the repair/rebuild tally. No-op updates
// (inserting a present edge, deleting a missing one) count in
// neither.
func (x *DynamicIndex) UpdateStats() UpdateStats {
	s := x.d.UpdateStats()
	return UpdateStats{Repairs: s.Repairs, Rebuilds: s.Rebuilds}
}

// Snapshot returns the current labels as an immutable, serializable
// Index. It shares the maintainer's flat base and carries the label
// lists updates have changed since that base was made, so it costs the
// number of such lists, not the size of the index, and later updates
// never show through it.
func (x *DynamicIndex) Snapshot() *Index {
	return newIndex(x.d.Snapshot(), nil)
}
