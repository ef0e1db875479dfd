package label

import (
	"context"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/order"
)

// The one traversal a query can start: a budgeted index's guarded
// fallback and its one-source sweeps (budgeted.go, sweep.go) and
// reachlab's witness paths all run walk.run. They differ only in the
// neighbor function — CSR out, CSR in, or an epoch's overlay adjacency
// — and in what visit says of each vertex the search discovers.

// Marks is an epoch-stamped vertex set, the one mark table of every
// repeated traversal: label's walks, sweeps and trimmed BFS, and tol's
// maintainer. v is in the set iff mark[v] == epoch, so emptying it is
// one increment and a pooled table is reused without clearing.
type Marks struct {
	mark  []int32
	epoch int32
}

// Reset empties the set and makes it cover at least n entries.
func (m *Marks) Reset(n int) {
	if len(m.mark) < n {
		m.mark, m.epoch = make([]int32, n), 0
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: marks are stale, clear once
		clear(m.mark)
		m.epoch = 1
	}
}

// Add puts v in the set.
func (m *Marks) Add(v graph.VertexID) { m.mark[v] = m.epoch }

// Has reports whether v is in the set.
func (m *Marks) Has(v graph.VertexID) bool { return m.mark[v] == m.epoch }

// walk is the scratch of a traversal and, after run, its result. It is
// pooled across queries, goroutines and indexes (grown to the largest
// graph seen), so a warm traversal allocates nothing; a label sweep
// borrows one for its mark table and a list buffer (sweep.go), a pair
// that reads a patched list for two list buffers (patch.go).
type walk struct {
	seen  Marks            // discovered, expanded or not
	queue []graph.VertexID // start, then every vertex visit let through, in discovery order
	from  []int32          // the queue position of queue[i]'s discoverer
	// expanded counts the vertices whose neighbor lists the last run read.
	expanded int
	lab      [2][]order.Rank // label lists decoded from the layout
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// cancelPoll is how many expansions pass between two looks at the
// context: a cancelled traversal stops within that many.
const cancelPoll = 1024

// run searches breadth-first from start over next's edges in a graph
// of n vertices. Each vertex is handed to visit once, when first
// discovered: hit ends the search there with found == true, cut keeps
// the vertex out of the queue so nothing is discovered through it. A
// nil visit lets every vertex through. The discovery chain is kept
// (FindPath reads it back). A cancelled ctx ends the search with its
// error.
func (w *walk) run(ctx context.Context, n int, start graph.VertexID, next func(graph.VertexID) []graph.VertexID,
	visit func(graph.VertexID) (hit, cut bool)) (found bool, err error) {
	w.seen.Reset(n)
	w.seen.Add(start)
	w.queue = append(w.queue[:0], start)
	w.from = append(w.from[:0], 0)
	for head := 0; head < len(w.queue); head++ {
		if head%cancelPoll == 0 && ctx.Err() != nil {
			w.expanded = head
			return false, ctx.Err()
		}
		w.expanded = head + 1
		for _, u := range next(w.queue[head]) {
			if w.seen.Has(u) {
				continue
			}
			w.seen.Add(u)
			var hit, cut bool
			if visit != nil {
				hit, cut = visit(u)
			}
			if cut && !hit {
				continue
			}
			w.queue = append(w.queue, u)
			w.from = append(w.from, int32(head))
			if hit {
				return true, nil
			}
		}
	}
	return false, nil
}

// FindPath searches as walk.run does and returns the discovery chain —
// a shortest path — from start to the first vertex visit reports as a
// hit, or nil when the search ends without one.
func FindPath(ctx context.Context, n int, start graph.VertexID, next func(graph.VertexID) []graph.VertexID,
	visit func(graph.VertexID) (hit, cut bool)) ([]graph.VertexID, error) {
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	if found, err := w.run(ctx, n, start, next, visit); !found {
		return nil, err
	}
	i := len(w.queue) - 1 // the hit was queued last
	path := []graph.VertexID{w.queue[i]}
	for i != 0 {
		i = int(w.from[i])
		path = append(path, w.queue[i])
	}
	slices.Reverse(path)
	return path, nil
}
