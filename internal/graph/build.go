package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// CSR construction: the one builder behind FromEdges, FromEdgeStream
// and every loader that parses edges.
//
// The edge source is a replayable stream (an in-memory slice is one),
// so the raw edge slice never has to exist beside the CSR: at 10⁸
// edges it alone is ~800 MB. The build counts instead of sorting:
//
//	pass 1  replay the stream: count raw out-degree per source and
//	        range-check every edge
//	pass 2  replay it again: place each target into its source's
//	        bucket; a replay that diverges from pass 1 is an error
//	pass 3  sort + dedup each bucket, then compact the survivors into
//	        the out-CSR (parallel over edge-balanced vertex ranges)
//
// The graph holds that out-CSR alone. Its transpose, when Inverse is
// asked for one, is a stable counting sort of it (inFromOut: parallel,
// each worker owning a stretch of every bucket).
//
// Each neighborhood ends sorted ascending and deduplicated, exactly
// the order a global (U, V) sort produces, so the CSR is identical for
// every worker count and to the sort-based reference the tests keep.
// Transient memory is one raw bucket array (4 bytes per raw edge) and
// n-sized counters.

// EdgeStreamFunc produces an edge stream by calling emit once per
// edge, in a deterministic order. Returning a non-nil error from emit
// aborts the stream; the stream must propagate it.
type EdgeStreamFunc func(emit func(Edge) error) error

// errStopStream cancels a replay early from inside emit.
var errStopStream = fmt.Errorf("graph: stop stream")

// StreamOfEdges adapts an in-memory edge slice to an EdgeStreamFunc.
func StreamOfEdges(edges []Edge) EdgeStreamFunc {
	return func(emit func(Edge) error) error {
		for _, e := range edges {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// FromEdgeStream builds a Digraph with n vertices from a replayable
// edge stream, which it runs twice and requires to yield the same
// sequence both times (every seeded generator does; a file or a slice
// trivially does). The result is the graph FromEdges builds from the
// same edges. An out-of-range vertex count or edge, a failing stream
// and a diverging replay are errors.
func FromEdgeStream(n int, stream EdgeStreamFunc) (*Digraph, error) {
	return fromEdgeStream(n, stream, 0)
}

// fromEdgeStream is FromEdgeStream with an explicit worker count for
// pass 3: the output is identical for every count, and workers <= 0
// picks one.
func fromEdgeStream(n int, stream EdgeStreamFunc, workers int) (*Digraph, error) {
	if n < 0 || int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range", n)
	}

	// Pass 1: count and validate.
	cnt := make([]int64, n)
	var raw int64
	err := stream(func(e Edge) error {
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		cnt[e.U]++
		raw++
		return nil
	})
	if err != nil {
		return nil, err
	}

	rawOff := prefixSum(cnt)
	clear(cnt)

	// Pass 2: replay and place. The replay must reproduce pass 1's
	// sequence; an out-of-range edge, a bucket overflow or a count
	// mismatch means it did not.
	prov := make([]VertexID, raw)
	var seen int64
	err = stream(func(e Edge) error {
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			return errStopStream
		}
		slot := cnt[e.U]
		if slot >= rawOff[e.U+1]-rawOff[e.U] {
			return errStopStream
		}
		prov[rawOff[e.U]+slot] = e.V
		cnt[e.U]++
		seen++
		return nil
	})
	if err == errStopStream || (err == nil && seen != raw) {
		return nil, fmt.Errorf("graph: edge stream is not replayable (pass 1 yielded %d edges, pass 2 diverged at edge %d)", raw, seen)
	}
	if err != nil {
		return nil, err
	}

	if workers <= 0 {
		workers = buildWorkers(n, raw)
	}
	outOff, outAdj := dedupCompact(n, prov, rawOff, cnt, workers)
	return &Digraph{n: int32(n), m: int64(len(outAdj)), outOff: outOff, outAdj: outAdj}, nil
}

// buildWorkers returns the parallelism for building the CSR of n
// vertices from raw edges: the scheduler's P, capped so that tiny
// inputs pay no goroutine overhead and so that inFromOut's per-worker
// count arrays together hold no more entries than n plus the edges.
func buildWorkers(n int, raw int64) int {
	w := min(int64(runtime.GOMAXPROCS(0)), 1+raw/parallelGrain)
	if n > 0 {
		w = min(w, 1+raw/int64(n))
	}
	return int(w)
}

// parallelGrain is the minimum per-worker work item count before an
// extra worker pays for itself.
const parallelGrain = 1 << 15

// vertexCuts partitions the vertex space [0, n) into at most `workers`
// contiguous ranges balanced by bucket size (off is any monotone
// offset array of length n+1). Returns the range boundaries, starting
// with 0 and ending with n.
func vertexCuts(n, workers int, off []int64) []int {
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

// eachRange runs fn over every range [cuts[i], cuts[i+1]), one
// goroutine each, and waits for all of them.
func eachRange(cuts []int, fn func(i, lo, hi int)) {
	var wg sync.WaitGroup
	for i := 0; i+1 < len(cuts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, cuts[i], cuts[i+1])
		}(i)
	}
	wg.Wait()
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
	eachRange(vertexCuts(n, workers, rawOff), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			seg := prov[rawOff[v]:rawOff[v+1]]
			slices.Sort(seg)
			scratch[v] = int64(len(slices.Compact(seg)))
		}
	})

	off = prefixSum(scratch)
	adj = make([]VertexID, off[n])
	eachRange(vertexCuts(n, workers, off), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(adj[off[v]:off[v+1]], prov[rawOff[v]:])
		}
	})
	return off, adj
}

// inFromOut derives the in-direction CSR from a deduplicated
// out-direction CSR by a stable counting sort. Each worker owns one
// vertexCuts range of sources and counts, into its own array, the
// in-degrees that range contributes; the prefix sums then give every
// (worker, target) pair its own stretch of the target's bucket, in
// worker order; and each worker places its sources in increasing
// order. So every bucket comes out sorted, with no shared cursor and
// no per-bucket sort.
func inFromOut(n int, outOff []int64, outAdj []VertexID, workers int) (inOff []int64, inAdj []VertexID) {
	cuts := vertexCuts(n, workers, outOff)
	// at[w][v] is first worker w's in-degree count for v, then the
	// position of w's next source within v's bucket. An in-degree is
	// at most n, so it fits.
	at := make([][]int32, len(cuts)-1)
	eachRange(cuts, func(w, lo, hi int) {
		c := make([]int32, n)
		for _, v := range outAdj[outOff[lo]:outOff[hi]] {
			c[v]++
		}
		at[w] = c
	})

	inOff = make([]int64, n+1)
	for v := 0; v < n; v++ {
		var deg int32
		for _, c := range at {
			deg, c[v] = deg+c[v], deg
		}
		inOff[v+1] = inOff[v] + int64(deg)
	}

	inAdj = make([]VertexID, len(outAdj))
	eachRange(cuts, func(w, lo, hi int) {
		c := at[w]
		for u := lo; u < hi; u++ {
			for _, v := range outAdj[outOff[u]:outOff[u+1]] {
				inAdj[inOff[v]+int64(c[v])] = VertexID(u)
				c[v]++
			}
		}
	})
	return inOff, inAdj
}
