package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel counting CSR construction, behind FromEdges.
//
// A global sort of a copy of the edge slice is O(m log m) single-
// threaded and a second 8-byte-per-edge allocation; at the 10⁸-edge
// scale both are the wall. This file builds the same CSR by counting:
//
//	pass 1  count raw out-degree per source (parallel, atomic adds)
//	        + range-check every edge
//	pass 2  place each target into its source's bucket (parallel,
//	        per-source atomic cursors; placement order is racy and
//	        irrelevant because of pass 3)
//	pass 3  sort + dedup each bucket independently (parallel over
//	        edge-balanced vertex ranges)
//	pass 4  prefix-sum deduped degrees, compact buckets into the final
//	        out-CSR (parallel)
//	pass 5  derive the in-CSR from the deduped out-CSR the same way
//	        (count, place, per-bucket sort; no dedup needed)
//
// Each per-vertex neighborhood ends sorted ascending and deduplicated,
// which is exactly the order a global (U, V) sort produces, so the
// output is byte-identical to the sort-based builder (pinned by
// TestParallelBuilderMatchesReference). The input edge slice is never
// copied or modified; transient memory is one raw-degree bucket array
// (4 bytes per raw edge) plus two n-sized counter arrays.

// buildWorkers returns the parallelism for one CSR construction: the
// scheduler's P, capped so tiny inputs don't pay goroutine overhead.
func buildWorkers(work int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 1+work/parallelGrain {
		w = 1 + work/parallelGrain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelGrain is the minimum per-worker work item count before an
// extra worker pays for itself.
const parallelGrain = 1 << 15

// parallelRanges runs fn over [0, total) split into one contiguous
// range per worker and waits for all of them.
func parallelRanges(total, workers int, fn func(lo, hi int)) {
	if workers <= 1 || total < 2*parallelGrain {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// vertexCuts partitions the vertex space [0, n) into at most `workers`
// contiguous ranges balanced by bucket size (off is any monotone
// offset array of length n+1). Returns the range boundaries, starting
// with 0 and ending with n.
func vertexCuts(n, workers int, off []int64) []int {
	if workers < 1 {
		workers = 1
	}
	cuts := make([]int, 0, workers+1)
	cuts = append(cuts, 0)
	total := off[n]
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		// First vertex whose bucket starts at or after the target.
		v := sort.Search(n, func(i int) bool { return off[i] >= target })
		if v > cuts[len(cuts)-1] {
			cuts = append(cuts, v)
		}
	}
	if cuts[len(cuts)-1] != n {
		cuts = append(cuts, n)
	}
	return cuts
}

// fromEdgesParallel is FromEdges with an explicit worker count: the
// output is identical for every count, and workers <= 0 picks one.
func fromEdgesParallel(n int, edges []Edge, workers int) *Digraph {
	if workers <= 0 {
		workers = buildWorkers(len(edges))
	}
	if int64(len(edges)) > math.MaxInt64/2 {
		panic("graph: edge slice too large")
	}

	// Pass 1: raw out-degree counts + validation. The count array
	// doubles as the cursor array of pass 2.
	cnt := make([]int64, n)
	var badEdge atomic.Int64 // index+1 of some out-of-range edge
	parallelRanges(len(edges), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
				badEdge.Store(int64(i) + 1)
				return
			}
			atomic.AddInt64(&cnt[e.U], 1)
		}
	})
	if i := badEdge.Load(); i != 0 {
		e := edges[i-1]
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
	}

	rawOff := prefixSum(cnt)
	for v := range cnt {
		cnt[v] = 0
	}

	// Pass 2: bucket placement. Slot order within a bucket is
	// scheduling-dependent; pass 3 sorts it away.
	prov := make([]VertexID, rawOff[n])
	parallelRanges(len(edges), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			slot := rawOff[e.U] + atomic.AddInt64(&cnt[e.U], 1) - 1
			prov[slot] = e.V
		}
	})

	outOff, outAdj := dedupCompact(n, prov, rawOff, cnt, workers)
	inOff, inAdj := inFromOut(n, outOff, outAdj, cnt, workers)
	return newDigraph(int32(n), outOff, outAdj, inOff, inAdj)
}

// prefixSum returns the offsets array [0, c0, c0+c1, ...] of length
// len(cnt)+1.
func prefixSum(cnt []int64) []int64 {
	off := make([]int64, len(cnt)+1)
	for i, c := range cnt {
		off[i+1] = off[i] + c
	}
	return off
}

// dedupCompact sorts and deduplicates every provisional bucket
// (prov[rawOff[v]:rawOff[v+1]]), then compacts the survivors into a
// tight CSR. scratch must be an n-sized int64 array; it is clobbered.
func dedupCompact(n int, prov []VertexID, rawOff []int64, scratch []int64, workers int) (off []int64, adj []VertexID) {
	cuts := vertexCuts(n, workers, rawOff)
	var wg sync.WaitGroup
	for c := 0; c+1 < len(cuts); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				seg := prov[rawOff[v]:rawOff[v+1]]
				slices.Sort(seg)
				k := 0
				for i, x := range seg {
					if i > 0 && x == seg[i-1] {
						continue
					}
					seg[k] = x
					k++
				}
				scratch[v] = int64(k)
			}
		}(cuts[c], cuts[c+1])
	}
	wg.Wait()

	off = prefixSum(scratch)
	adj = make([]VertexID, off[n])
	cuts = vertexCuts(n, workers, off)
	for c := 0; c+1 < len(cuts); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				deg := off[v+1] - off[v]
				copy(adj[off[v]:off[v+1]], prov[rawOff[v]:rawOff[v]+deg])
			}
		}(cuts[c], cuts[c+1])
	}
	wg.Wait()
	return off, adj
}

// inFromOut derives the in-direction CSR from a deduplicated
// out-direction CSR: count in-degrees, place sources into target
// buckets, sort each bucket. scratch must be an n-sized int64 array;
// it is clobbered.
func inFromOut(n int, outOff []int64, outAdj []VertexID, scratch []int64, workers int) (inOff []int64, inAdj []VertexID) {
	for v := 0; v < n; v++ {
		scratch[v] = 0
	}
	parallelRanges(len(outAdj), workers, func(lo, hi int) {
		for _, v := range outAdj[lo:hi] {
			atomic.AddInt64(&scratch[v], 1)
		}
	})
	inOff = prefixSum(scratch)
	for v := 0; v < n; v++ {
		scratch[v] = 0
	}
	inAdj = make([]VertexID, len(outAdj))
	cuts := vertexCuts(n, workers, outOff)
	var wg sync.WaitGroup
	for c := 0; c+1 < len(cuts); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				for _, v := range outAdj[outOff[u]:outOff[u+1]] {
					slot := inOff[v] + atomic.AddInt64(&scratch[v], 1) - 1
					inAdj[slot] = VertexID(u)
				}
			}
		}(cuts[c], cuts[c+1])
	}
	wg.Wait()

	cuts = vertexCuts(n, workers, inOff)
	for c := 0; c+1 < len(cuts); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				slices.Sort(inAdj[inOff[v]:inOff[v+1]])
			}
		}(cuts[c], cuts[c+1])
	}
	wg.Wait()
	return inOff, inAdj
}
