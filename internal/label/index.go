// Package label defines the reachability index produced by TOL and by
// the paper's distributed labeling algorithms, the merge-intersection
// query over it, and the trimmed BFS primitive (Algorithm 2) the
// filtering phase is built on.
//
// A label entry is the *rank* of the labeling vertex in the total
// order (rank 0 = highest order). Storing ranks instead of vertex IDs
// keeps every per-vertex label list sorted by construction — TOL and
// the batch algorithms emit labels in decreasing order — so the
// intersection at query time is a linear merge, the
// O(|L_out(s)| + |L_in(t)|) bound of §II-A.
package label

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/order"
)

// Index is an immutable reachability index: an in-label and an
// out-label set per vertex, each a rank-sorted slice.
type Index struct {
	n      int
	ord    *order.Ordering
	inOff  []int64
	inLab  []order.Rank
	outOff []int64
	outLab []order.Rank

	// patch, on an index a maintainer published between folds, holds
	// the lists that differ from the flat arrays (patch.go). Nil on
	// every index a builder or Read produced.
	patch *patch
}

// NumVertices returns the number of vertices the index covers.
func (x *Index) NumVertices() int { return x.n }

// Ordering returns the vertex order the index was built under.
func (x *Index) Ordering() *order.Ordering { return x.ord }

// InLabels returns L_in(v) as a rank-sorted read-only slice.
func (x *Index) InLabels(v graph.VertexID) []order.Rank {
	if x.patch != nil {
		return x.patchedIn(v)
	}
	return x.inLab[x.inOff[v]:x.inOff[v+1]]
}

// OutLabels returns L_out(v) as a rank-sorted read-only slice.
func (x *Index) OutLabels(v graph.VertexID) []order.Rank {
	if x.patch != nil {
		return x.patchedOut(v)
	}
	return x.outLab[x.outOff[v]:x.outOff[v+1]]
}

// Reachable answers the reachability query q(s, t) from the index
// alone: true iff L_out(s) ∩ L_in(t) ≠ ∅ (Definition 3). The two
// sorted label lists are merged, never the graph touched. Both lists
// live in the flat arrays, so the merge walks two dense ranges via
// offset cursors with no per-vertex pointer chasing; the loop lives
// in this method body because gc does not inline functions with
// loops, and a call frame is measurable at single-digit-nanosecond
// query latencies. Heavily skewed list pairs take the galloping path
// instead. On a patched index a pair with an overridden endpoint
// merges the overriding lists; every other pair, and every pair of an
// unpatched index, runs the flat kernel below.
func (x *Index) Reachable(s, t graph.VertexID) bool {
	if x.patch != nil && x.patch.touches(s, t) {
		return intersects(x.OutLabels(s), x.InLabels(t))
	}
	i, ae := x.outOff[s], x.outOff[s+1]
	j, be := x.inOff[t], x.inOff[t+1]
	if la, lb := ae-i, be-j; la > gallopRatio*lb || lb > gallopRatio*la {
		return intersects(x.outLab[i:ae], x.inLab[j:be])
	}
	a, b := x.outLab, x.inLab
	for i < ae && j < be {
		av, bv := a[i], b[j]
		if av == bv {
			return true
		}
		if av < bv {
			i++
		} else {
			j++
		}
	}
	return false
}

// gallopRatio is the length skew beyond which the merge switches from
// the linear two-pointer walk to galloping probes of the short list
// into the long one: O(|short|·log|long|) beats O(|short|+|long|) once
// the skew exceeds the log factor with room to spare.
const gallopRatio = 16

// intersects reports whether two rank-sorted lists share an element.
// It is the query kernel: a linear merge for comparable lengths, a
// galloping search when one list dwarfs the other (hub vertices have
// single-digit labels, low-order vertices can carry hundreds).
func intersects(a, b []order.Rank) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopIntersects(a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// gallopIntersects probes each element of the short list into the
// remaining suffix of the long one: exponential steps to bracket the
// element, then a binary search inside the bracket. Both lists are
// consumed left to right, so the whole pass is monotone.
func gallopIntersects(short, long []order.Rank) bool {
	pos := 0
	for _, r := range short {
		step := 1
		for pos+step < len(long) && long[pos+step-1] < r {
			step <<= 1
		}
		lo, hi := pos, pos+step
		if hi > len(long) {
			hi = len(long)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if long[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(long) {
			return false
		}
		if long[lo] == r {
			return true
		}
		pos = lo
	}
	return false
}

// Pair is one (source, target) query of a batch.
type Pair struct {
	S, T graph.VertexID
}

// ReachableBatch answers q(s, t) for every pair, writing answers in
// the callers' order. Pairs are processed sorted by (source, target)
// so consecutive pairs sharing a source reuse its out-label range
// (still hot in cache) and exact duplicates are answered once. The
// answers are identical to calling Reachable per pair.
func (x *Index) ReachableBatch(pairs []Pair) []bool {
	res := make([]bool, len(pairs))
	// One packed key per pair orders it by (source, target) in a single
	// integer compare; vertex IDs are non-negative int32s. Batches of the
	// size the serving tier sends sort on the stack.
	type keyed struct {
		key uint64
		pos int32
	}
	var small [64]keyed
	keys := small[:0]
	if len(pairs) > len(small) {
		keys = make([]keyed, 0, len(pairs))
	}
	for i, p := range pairs {
		keys = append(keys, keyed{uint64(p.S)<<32 | uint64(p.T), int32(i)})
	}
	slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	var out []order.Rank
	prev, prevAns := ^uint64(0), false // no key has the top bit set
	for _, k := range keys {
		if k.key != prev {
			p := pairs[k.pos]
			if k.key>>32 != prev>>32 {
				out = x.OutLabels(p.S)
			}
			prev, prevAns = k.key, intersects(out, x.InLabels(p.T))
		}
		res[k.pos] = prevAns
	}
	return res
}

// Entries returns the total number of label entries Σ(|L_in|+|L_out|).
func (x *Index) Entries() int64 {
	in, out := x.entries()
	return in + out
}

// SizeBytes returns the byte footprint of the index payload: 4 bytes
// per label entry plus the two offset arrays. This matches how the
// paper reports "Index Size" in Table VI.
func (x *Index) SizeBytes() int64 {
	return 4*x.Entries() + 8*int64(len(x.inOff)+len(x.outOff))
}

// MaxLabelSize returns Δ = max_v max(|L_in(v)|, |L_out(v)|).
func (x *Index) MaxLabelSize() int {
	best := 0
	for v := graph.VertexID(0); int(v) < x.n; v++ {
		best = max(best, len(x.InLabels(v)), len(x.OutLabels(v)))
	}
	return best
}

// AvgLabelSize returns the mean of (|L_in(v)| + |L_out(v)|) / 2.
func (x *Index) AvgLabelSize() float64 {
	if x.n == 0 {
		return 0
	}
	return float64(x.Entries()) / float64(2*x.n)
}

// Equal reports whether two indexes contain exactly the same label
// sets (the paper's central claim: DRL variants reproduce TOL's index
// bit for bit).
func (x *Index) Equal(y *Index) bool {
	return x.Diff(y) == ""
}

// Diff returns a short description of the first difference between two
// indexes, or "" if they are equal. Used by tests for readable
// failures.
func (x *Index) Diff(y *Index) string {
	if x.n != y.n {
		return fmt.Sprintf("vertex count %d vs %d", x.n, y.n)
	}
	for v := graph.VertexID(0); int(v) < x.n; v++ {
		if d := diffLabels("L_in", v, x.InLabels(v), y.InLabels(v)); d != "" {
			return d
		}
		if d := diffLabels("L_out", v, x.OutLabels(v), y.OutLabels(v)); d != "" {
			return d
		}
	}
	return ""
}

func diffLabels(kind string, v graph.VertexID, a, b []order.Rank) string {
	if !slices.Equal(a, b) {
		return fmt.Sprintf("%s(v%d): %v vs %v", kind, v, a, b)
	}
	return ""
}
