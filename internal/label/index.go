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
// O(|L_out(s)| + |L_in(t)|) bound of §II-A, and small: most ranks fit a
// half-word, which is what the served layout stores them in.
package label

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/order"
)

// Index is an immutable reachability index: an in-label and an
// out-label set per vertex, held in the two-tier layout (layout.go).
type Index struct {
	n       int
	ord     *order.Ordering
	in, out layout

	// patch, on an index a maintainer published between folds, holds
	// the lists that differ from the layout's (patch.go). Nil on every
	// index a builder or Read produced.
	patch *patch
}

// NumVertices returns the number of vertices the index covers.
func (x *Index) NumVertices() int { return x.n }

// Ordering returns the vertex order the index was built under.
func (x *Index) Ordering() *order.Ordering { return x.ord }

// InLabels returns L_in(v) as a fresh rank-sorted slice. It allocates;
// a loop over many lists reads through AppendInLabels instead.
func (x *Index) InLabels(v graph.VertexID) []order.Rank { return x.AppendInLabels(nil, v) }

// OutLabels returns L_out(v) as a fresh rank-sorted slice.
func (x *Index) OutLabels(v graph.VertexID) []order.Rank { return x.AppendOutLabels(nil, v) }

// AppendInLabels appends L_in(v), rank-sorted, to dst and returns the
// extended slice: no allocation once dst has room.
func (x *Index) AppendInLabels(dst []order.Rank, v graph.VertexID) []order.Rank {
	in, _ := x.sides()
	return in.appendList(dst, v)
}

// AppendOutLabels appends L_out(v) to dst as AppendInLabels does L_in(v).
func (x *Index) AppendOutLabels(dst []order.Rank, v graph.VertexID) []order.Rank {
	_, out := x.sides()
	return out.appendList(dst, v)
}

// Reachable answers the reachability query q(s, t) from the index
// alone: true iff L_out(s) ∩ L_in(t) ≠ ∅ (Definition 3). The lists are
// merged where they lie, tier by tier: the first tiers, and then — only
// if both lists have one — the second, where a list's own rank, if it is
// not stored, is read from the ordering and merged as the tier's last
// element. The first tiers' merge lives in this method body because gc
// does not inline functions with loops, and a call frame is measurable
// at these latencies; heavily skewed pairs take the galloping path
// instead. On a patched index a pair with an overridden endpoint merges
// the overriding lists.
func (x *Index) Reachable(s, t graph.VertexID) bool {
	if x.patch != nil && x.patch.touches(s, t) {
		return x.patchedReachable(s, t)
	}
	a, wa := x.out.run(s)
	b, wb := x.in.run(t)
	var aw, bw []uint16
	if wa&wideBit != 0 {
		a, aw = splitRun(a)
	}
	if wb&wideBit != 0 {
		b, bw = splitRun(b)
	}
	if la, lb := len(a), len(b); la > gallopRatio*lb || lb > gallopRatio*la {
		if intersects(a, b) {
			return true
		}
	} else {
		for i, j := 0, 0; i < la && j < lb; {
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
	}
	return hasWide(aw, wa) && hasWide(bw, wb) && meetsWide(aw, x.own(wa, s), bw, x.own(wb, t))
}

// own returns v's rank where its list's word w says the list ends with
// it, not stored, and noSelf otherwise.
func (x *Index) own(w uint32, v graph.VertexID) uint32 {
	if w&selfBit != 0 {
		return uint32(x.ord.RankOf(v))
	}
	return noSelf
}

// gallopRatio is the length skew beyond which the merge switches from
// the linear two-pointer walk to galloping probes of the short list
// into the long one: O(|short|·log|long|) beats O(|short|+|long|) once
// the skew exceeds the log factor with room to spare.
const gallopRatio = 16

// intersects reports whether two ascending lists — first tiers, or
// decoded rank lists — share an element. It is the query kernel: a
// linear merge for comparable lengths, a galloping search when one list
// dwarfs the other (hub vertices have single-digit labels, low-order
// vertices can carry hundreds).
func intersects[T uint16 | order.Rank](a, b []T) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopIntersects(a, b)
	}
	return mergeIntersects(a, b)
}

// Disjoint reports whether two rank-sorted lists share no element: the
// pruning test of every labeler (TOL, DRL_b), the negation of the
// query kernel's linear merge.
func Disjoint(a, b []order.Rank) bool { return !mergeIntersects(a, b) }

// DisjointBelow reports whether the rank-sorted lists a and b share no
// element strictly below bound. It is the refinement test of Lemma 5:
// a common rank u < rank(v) between IBFS_low(v) and the visitors of w
// proves a higher-order vertex on a v→w walk.
func DisjointBelow(a, b []order.Rank, bound order.Rank) bool {
	for i, j := 0, 0; i < len(a) && j < len(b) && a[i] < bound && b[j] < bound; {
		switch {
		case a[i] == b[j]:
			return false
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return true
}

func mergeIntersects[T uint16 | order.Rank](a, b []T) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
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
func gallopIntersects[T uint16 | order.Rank](short, long []T) bool {
	pos := 0
	for _, r := range short {
		step := 1
		for pos+step < len(long) && long[pos+step-1] < r {
			step <<= 1
		}
		lo, hi := pos, min(pos+step, len(long))
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

// The second tiers. A list's own rank, where its word says the list
// ends with it but the run leaves it out, is its second tier's virtual
// last element; noSelf stands for it where there is none.

// noSelf is the own rank of a list that does not end with one left out
// of its run: it is no rank.
const noSelf = math.MaxUint32

// hasWide reports whether a list, given as its second tier and its
// word, has a second tier: stored ranks, or its own rank left out.
func hasWide(wide []uint16, w uint32) bool { return len(wide) != 0 || w&selfBit != 0 }

// meetsWide reports whether two second tiers, each followed by its
// list's own rank (or noSelf), share a rank: the same choice between
// merge and gallop as the first tiers', over ranks read as half-word
// pairs.
func meetsWide(a []uint16, ra uint32, b []uint16, rb uint32) bool {
	la, lb := len(a)/2, len(b)/2
	if ra != noSelf {
		la++
	}
	if rb != noSelf {
		lb++
	}
	switch {
	case la > gallopRatio*lb:
		return gallopWide(b, rb, a, ra)
	case lb > gallopRatio*la:
		return gallopWide(a, ra, b, rb)
	}
	return mergeWide(a, ra, b, rb)
}

// mergeWide merges two second tiers of comparable lengths. Once one
// stored tier is spent, what is left of the other lies above all of it,
// so of the spent list only its own rank can still meet it — or the
// other's own rank.
func mergeWide(a []uint16, ra uint32, b []uint16, rb uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := wideAt(a, i), wideAt(b, j)
		switch {
		case av == bv:
			return true
		case av < bv:
			i += 2
		default:
			j += 2
		}
	}
	if i == len(a) && ra != noSelf {
		return ownIn(b[j:], ra, rb)
	}
	return j == len(b) && rb != noSelf && ownIn(a[i:], rb, ra)
}

// ownIn reports whether r, one list's own rank, is in what is left of
// the other — the ascending second-tier ranks rest, then its own rank
// other — scanning rest as a merge would.
func ownIn(rest []uint16, r, other uint32) bool {
	for k := 0; k < len(rest); k += 2 {
		if v := wideAt(rest, k); v >= r {
			return v == r
		}
	}
	return r == other
}

// gallopWide is gallopIntersects over the second tier short followed
// by its own rank rs, and long followed by rl; positions in long count
// ranks, not half-words. Once an element lies past long's stored end,
// so does the rest of short's, and only rl can meet them; an element
// that does not lies below rl.
func gallopWide(short []uint16, rs uint32, long []uint16, rl uint32) bool {
	n, pos, m := len(short)/2, 0, len(long)/2
	if rs != noSelf {
		n++
	}
	for i := 0; i < n; i++ {
		r := rs
		if 2*i < len(short) {
			r = wideAt(short, 2*i)
		}
		step := 1
		for pos+step < m && wideAt(long, 2*(pos+step-1)) < r {
			step <<= 1
		}
		lo, hi := pos, min(pos+step, m)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if wideAt(long, 2*mid) < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == m {
			return rl != noSelf && ownIn(short[2*i:], rl, rs)
		}
		if wideAt(long, 2*lo) == r {
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
// so consecutive pairs sharing a source reuse its out-label tiers
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
	var a, aw []uint16
	var wa uint32
	prev, prevAns := ^uint64(0), false // no key has the top bit set
	for _, k := range keys {
		if k.key != prev {
			p := pairs[k.pos]
			if k.key>>32 != prev>>32 {
				a, wa = x.out.run(p.S)
				if aw = nil; wa&wideBit != 0 {
					a, aw = splitRun(a)
				}
			}
			if x.patch != nil && x.patch.touches(p.S, p.T) {
				prevAns = x.patchedReachable(p.S, p.T)
			} else {
				b, wb := x.in.run(p.T)
				var bw []uint16
				if wb&wideBit != 0 {
					b, bw = splitRun(b)
				}
				prevAns = intersects(a, b) || hasWide(aw, wa) && hasWide(bw, wb) && meetsWide(aw, x.own(wa, p.S), bw, x.own(wb, p.T))
			}
			prev = k.key
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

// SizeBytes returns the index size as the paper accounts it in Table
// VI: 4 bytes per label entry plus an 8-byte offset per vertex and
// direction. It is not what the index occupies; Resident is.
func (x *Index) SizeBytes() int64 {
	return 4*x.Entries() + 16*int64(x.n+1)
}

// Resident returns the bytes the layout's arrays hold in memory. The
// overrides of a patched index are not counted: they are its
// maintainer's, shared with every epoch published since the last fold.
func (x *Index) Resident() int64 { return x.in.resident() + x.out.resident() }

// MaxLabelSize returns Δ = max_v max(|L_in(v)|, |L_out(v)|).
func (x *Index) MaxLabelSize() int {
	best := 0
	var in, out []order.Rank
	for v := graph.VertexID(0); int(v) < x.n; v++ {
		in, out = x.AppendInLabels(in[:0], v), x.AppendOutLabels(out[:0], v)
		best = max(best, len(in), len(out))
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
