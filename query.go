package reachlab

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/label"
)

// Rich queries over the frozen index: witness-path reconstruction,
// one-source sweeps, and reachable-set cardinality. The boolean
// queries (ReachableFrom, ReachableSetSize) answer from the labels
// alone; WitnessPath additionally needs the graph, which full builds
// do not retain — AttachGraph supplies it.

// ErrNoGraph is returned by WitnessPath when the index has no graph
// to walk: the boolean answer needs only labels, but an actual path
// is read off the edges.
var ErrNoGraph = errors.New("reachlab: index has no attached graph (use AttachGraph)")

// AttachGraph attaches the indexed graph so WitnessPath can
// reconstruct actual paths. The graph must be the one the index was
// built from, and this is the one place that decides whether it is: by
// fingerprint for an index a build made or a file brought back, by
// vertex count for an epoch of an Updater, which carries none. Builds
// attach the graph automatically; an index loaded with ReadIndex starts
// without one.
func (x *Index) AttachGraph(g *Graph) error {
	switch {
	case g == nil:
		return errors.New("reachlab: nil graph")
	case x.fp == nil && g.NumVertices() != x.NumVertices():
		return fmt.Errorf("reachlab: graph has %d vertices, index covers %d", g.NumVertices(), x.NumVertices())
	case x.fp != nil && g.d.Fingerprint() != *x.fp:
		return fmt.Errorf("reachlab: wrong graph: the index was built over %+v, this one is %+v", *x.fp, g.d.Fingerprint())
	}
	x.g, x.adj = g.d, nil
	return nil
}

// HasGraph reports whether WitnessPath can answer.
func (x *Index) HasGraph() bool { return x.g != nil }

// outNeighbors returns N_out(v) in the graph this index covers: the
// attached graph's list, or the epoch's own where an update changed it
// — the rule label.Index reads a patched label list by.
func (x *Index) outNeighbors(v VertexID) []VertexID {
	if l, ok := x.adj.Get(v); ok {
		return l
	}
	return x.g.OutNeighbors(v)
}

// WitnessPath returns an actual s→t vertex path, or nil when t is not
// reachable from s. The search is a guided BFS: a frontier vertex's
// neighbor w is expanded only if Reachable(w, t) — the label
// intersection prunes every branch that cannot reach t. Since every
// vertex on every s→t path reaches t, all s→t paths survive the
// pruning, so the BFS still finds a shortest path; the pruning only
// removes dead branches.
//
// The path is positions s..t inclusive; s == t yields [s]. The only
// errors are ErrNoGraph and an attached graph that contradicts the
// index (reachable by labels, no path by edges).
func (x *Index) WitnessPath(s, t VertexID) ([]VertexID, error) {
	if x.g == nil {
		return nil, ErrNoGraph
	}
	if s != t && !x.Reachable(s, t) {
		return nil, nil
	}
	return x.walkPath(context.Background(), s, t)
}

// walkPath is WitnessPath's guided BFS for a pair the caller has
// found reachable, on an index with a graph attached. It polls ctx:
// cancelled, it ends the search with ctx's error.
func (x *Index) walkPath(ctx context.Context, s, t VertexID) ([]VertexID, error) {
	if s == t {
		return []VertexID{s}, nil
	}
	// A vertex whose label test fails is cut: marked like any other, so
	// never re-tested from another parent, and never expanded.
	path, err := label.FindPath(ctx, x.g.NumVertices(), s, x.outNeighbors, func(w VertexID) (hit, cut bool) {
		return w == t, !x.Reachable(w, t)
	})
	if path == nil && err == nil {
		err = fmt.Errorf("reachlab: index says %d reaches %d but the attached graph has no path (graph/index mismatch)", s, t)
	}
	return path, err
}

// ReachableFrom answers q(s, t) for every target, identically to
// calling Reachable per target, but loading L_out(s) once for the
// whole sweep (see label.Index.ReachableFrom).
func (x *Index) ReachableFrom(s VertexID, targets []VertexID) []bool {
	res, _ := x.q.ReachableFrom(context.Background(), s, targets) // only a cancelled ctx fails it
	return res
}

// ReachableSetSize returns |{t : q(s, t)}| over the whole vertex space.
func (x *Index) ReachableSetSize(s VertexID) int {
	n, _ := x.q.ReachableSetSize(context.Background(), s) // only a cancelled ctx fails it
	return n
}
