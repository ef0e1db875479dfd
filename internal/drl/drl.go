// Package drl implements the paper's filtering-and-refinement labeling
// algorithms — the contribution that makes TOL's index constructible
// in parallel and on distributed graphs.
//
// For every vertex v the algorithms compute the backward label sets
// L⁻_in(v) = {w | v ∈ L_in(w)} and L⁻_out(v) = {w | v ∈ L_out(w)}
// (Definition 4) instead of running TOL's order-dependent pruning.
// The variants, in increasing sophistication:
//
//	BuildNaive     Theorem 2:  DES(v) filtered by DES of every
//	               higher-order descendant. Quadratic; test oracle.
//	BuildBatch     §IV (DRL_b / DRL_b^M): batch sequence with
//	               TOL-style pruning across batches and, inside each
//	               batch, Theorem 4 (DRL): trimmed-BFS filtering in
//	               both directions, refinement via inverted lists —
//	               no refinement BFSs at all.
//	BuildImproved  DRL itself: BuildBatch with the one batch [0, n).
//	BuildBatchBudgeted  BuildBatch with every label list capped at a
//	               per-vertex budget (label.Budgeted); same core.
//
// All of the above run shared-memory parallel across Options.Workers
// goroutines. The genuinely distributed implementation (Algorithms 3
// and 4 on the vertex-centric system, one program) is in
// distributed.go, and the DRL⁻ of Theorem 3 that the paper evaluates
// is vertex-centric only (BuildDistributedBasic, distbasic.go); every
// variant produces an index identical to TOL's.
package drl

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
)

// Options configures the shared-memory builders.
type Options struct {
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
	// Ctx stops the build with its error when done (nil: never).
	Ctx context.Context
	// Obs receives build-path counters ("drl_*"); nil disables.
	Obs *obs.Registry
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// rankChunk is how many consecutive ranks a parallelRanks worker takes
// at a time: small enough that a range splits into several chunks per
// worker — the first batches are a handful of hub vertices whose BFSs
// are the largest of the build, and one chunk would hand them all to
// one worker — and at most 64, beyond which a larger chunk buys
// nothing and only coarsens the balance at the end of the range.
func rankChunk(ranks, workers int) int {
	const perWorker = 4
	return min(max(ranks/(workers*perWorker), 1), 64)
}

// parallelRanks runs fn(rank) for every rank in [lo, hi) across the
// given number of goroutines, checking ctx (nil: never done) between
// chunks and returning its error. fn must be safe for concurrent
// invocation on distinct ranks.
func parallelRanks(lo, hi order.Rank, workers int, ctx context.Context, fn func(worker int, r order.Rank)) error {
	if hi <= lo {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		for r := lo; r < hi; r++ {
			if r%1024 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, r)
		}
		return nil
	}
	chunk := int64(rankChunk(int(hi-lo), workers))
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for ctx.Err() == nil {
				end := next.Add(chunk)
				start := end - chunk
				if start >= int64(hi) {
					return
				}
				stop := order.Rank(min(end, int64(hi)))
				for r := order.Rank(start); r < stop; r++ {
					fn(wk, r)
				}
			}
		}(wk)
	}
	wg.Wait()
	return ctx.Err()
}

// rankLists is a flat vertex → sorted-rank-list table: row w holds the
// ranks of the sources whose (trimmed) BFS visited w. It doubles as
// the inverted-list store: IBFS_low(v) on G is exactly row v of the
// inverse direction's table.
type rankLists struct {
	off  []int64
	data []order.Rank
}

// Row returns the sorted rank list of vertex w.
func (t *rankLists) Row(w graph.VertexID) []order.Rank {
	return t.data[t.off[w]:t.off[w+1]]
}
