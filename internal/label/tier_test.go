package label

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// span returns the ranks lo, lo+step, … below hi.
func span(lo, hi, step int) []order.Rank {
	var out []order.Rank
	for r := lo; r < hi; r += step {
		out = append(out, order.Rank(r))
	}
	return out
}

// tierCases are L_out(s), L_in(t) pairs shaped by the two tiers: lists
// that straddle 65535|65536, lie wholly at or above 2¹⁶ (where a rank's
// high half-word is 1, 2 or 3), are empty, or are the long side of a
// gallop in either tier. Ranks 2¹⁶ apart share their low half-word, so a
// kernel that compared second-tier ranks by it alone answers true where
// want says false.
var tierCases = []struct {
	name     string
	out, in  []order.Rank
	reaching bool
}{
	{"straddle, meet below", []order.Rank{65534, 65535, 65536, 65537}, []order.Rank{65535}, true},
	{"straddle, meet above", []order.Rank{65534, 65535, 65536, 65537}, []order.Rank{65536}, true},
	{"straddle, either side of the line", []order.Rank{65535}, []order.Rank{65536}, false},
	{"straddle, interleaved", []order.Rank{65530, 65536, 65540}, []order.Rank{65531, 65537, 65539}, false},
	{"straddle, meet at the top", []order.Rank{3, 65535, 131072 + 9}, []order.Rank{4, 65536, 131072 + 9}, true},
	{"above, low halves equal", []order.Rank{65536 + 5}, []order.Rank{131072 + 5}, false},
	{"above, low halves equal, longer", []order.Rank{65536 + 5, 65536 + 9, 196608 + 2}, []order.Rank{131072 + 2, 131072 + 5, 131072 + 9}, false},
	{"above, meet", []order.Rank{70000, 140000}, []order.Rank{140000}, true},
	{"above, high half differs", []order.Rank{65536*2 + 1}, []order.Rank{65536*3 + 1}, false},
	{"empty out-list", nil, []order.Rank{1, 70000}, false},
	{"empty in-list", []order.Rank{70000}, nil, false},
	{"both empty", nil, nil, false},
	{"first tier only against second tier only", span(0, 40, 1), span(65536, 65576, 1), false},
	{"gallop in the first tier, hit", []order.Rank{600}, span(0, 2000, 2), true},
	{"gallop in the first tier, miss", []order.Rank{601}, span(0, 2000, 2), false},
	{"gallop in the second tier, hit", span(65536+3*57, 65536+3*58, 3), span(65536, 65536+3*400, 3), true},
	{"gallop in the second tier, miss", []order.Rank{131072 + 3*57}, span(65536, 65536+3*400, 3), false},
	{"gallop in the second tier, long side out", span(65536, 65536+3*400, 3), []order.Rank{65536 + 3*399}, true},
	{"gallop on both tiers, past the end", append(span(0, 500, 1), span(65536, 66036, 1)...), []order.Rank{501, 66037}, false},
}

// tierIndex places case k's lists either side of a block boundary — at
// the last vertex of block k (L_out) and the first of block k+1 (L_in) —
// beside neighbours with lists of both tiers, in an index of enough
// vertices for every rank.
func tierIndex(t testing.TB) (x *Index, ref *Lists, sources, targets []graph.VertexID) {
	t.Helper()
	const n = 3*wideFrom + 4096
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for k, c := range tierCases {
		s, u := graph.VertexID((k+1)*blockValues-1), graph.VertexID((k+1)*blockValues)
		out[s], in[u] = c.out, c.in
		out[s-1], in[u+1] = []order.Rank{2, 65536 + 2}, []order.Rank{7, 131072 + 7}
		sources, targets = append(sources, s), append(targets, u)
	}
	ranks := make([]order.Rank, n)
	for v := range ranks {
		ranks[v] = order.Rank(v)
	}
	x = FromLists(order.FromRanks(ranks), in, out)
	return x, x.Thaw(), sources, targets
}

// TestTierKernelTable runs every query shape over the tier cases, and
// over every cross pair of their lists, against the plain merge of
// Lists.Reachable; and the layout survives Thaw and Freeze.
func TestTierKernelTable(t *testing.T) {
	ctx := context.Background()
	x, ref, sources, targets := tierIndex(t)
	for k, c := range tierCases {
		if got := x.Reachable(sources[k], targets[k]); got != c.reaching {
			t.Errorf("%s: Reachable = %v, want %v", c.name, got, c.reaching)
		}
		if got := ref.Reachable(sources[k], targets[k]); got != c.reaching {
			t.Fatalf("%s: the reference says %v, the table %v", c.name, got, c.reaching)
		}
	}
	refrozen := x.Thaw().Freeze()
	if !x.Equal(refrozen) {
		t.Fatalf("Thaw().Freeze() diverged: %s", x.Diff(refrozen))
	}
	// The neighbours' lists are in the cross product too.
	ends := slices.Concat(sources, targets)
	for _, s := range ends {
		s1 := s - 1
		var pairs []Pair
		var want []bool
		for _, u := range ends {
			for _, tv := range []graph.VertexID{u, u + 1} {
				pairs, want = append(pairs, Pair{s, tv}, Pair{s1, tv}), append(want, ref.Reachable(s, tv), ref.Reachable(s1, tv))
			}
		}
		for i, p := range pairs {
			if got := x.Reachable(p.S, p.T); got != want[i] {
				t.Fatalf("Reachable(%d,%d) = %v, the reference %v", p.S, p.T, got, want[i])
			}
			if got := refrozen.Reachable(p.S, p.T); got != want[i] {
				t.Fatalf("refrozen: Reachable(%d,%d) = %v, the reference %v", p.S, p.T, got, want[i])
			}
		}
		if got := x.ReachableBatch(pairs); !slices.Equal(got, want) {
			t.Fatalf("ReachableBatch from %d and %d differs from the reference", s, s1)
		}
		for _, src := range []graph.VertexID{s, s1} {
			var tv []graph.VertexID
			var row []bool
			for i, p := range pairs {
				if p.S == src {
					tv, row = append(tv, p.T), append(row, want[i])
				}
			}
			if got, err := x.ReachableFrom(ctx, src, tv); err != nil || !slices.Equal(got, row) {
				t.Fatalf("ReachableFrom(%d) = %v (%v), the reference %v", src, got, err, row)
			}
			size := 0
			for u := graph.VertexID(0); int(u) < x.n; u++ {
				if ref.Reachable(src, u) {
					size++
				}
			}
			if got, err := x.ReachableSetSize(ctx, src); err != nil || got != size {
				t.Fatalf("ReachableSetSize(%d) = %d (%v), the reference %d", src, got, err, size)
			}
		}
	}
}

// TestKernelAllocs pins the served query paths' allocations: none for
// Reachable, on a pair whose lists have both tiers, and the answer slice
// alone for a batch of the serving tier's size.
func TestKernelAllocs(t *testing.T) {
	x, _, sources, targets := tierIndex(t)
	s, u := sources[4], targets[4] // "straddle, meet at the top"
	if got := testing.AllocsPerRun(100, func() { x.Reachable(s, u) }); got != 0 {
		t.Errorf("Reachable allocates %v times, want 0", got)
	}
	pairs := make([]Pair, 16)
	for i := range pairs {
		pairs[i] = Pair{sources[i%len(sources)], targets[(3*i)%len(targets)]}
	}
	if got := testing.AllocsPerRun(100, func() { x.ReachableBatch(pairs) }); got != 1 {
		t.Errorf("a 16-pair ReachableBatch allocates %v times, want 1", got)
	}
}
