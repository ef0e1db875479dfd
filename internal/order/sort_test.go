package order

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// TestComputeByKeyMatchesComparisonSort: the radix sort orders exactly
// as the comparison it replaced — descending key, the larger ID first
// among equal keys — over keys that share every byte, differ only in
// the sign, the top or the bottom byte, and span the whole of int64.
func TestComputeByKeyMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.FromEdges(500, nil)
	for name, key := range map[string]func(int) int64{
		"all equal":    func(int) int64 { return 7 },
		"few distinct": func(int) int64 { return int64(rng.Intn(5)) },
		"signed":       func(int) int64 { return int64(rng.Intn(9)) - 4 },
		"top byte":     func(int) int64 { return int64(rng.Intn(3)) << 56 },
		"extremes":     func(v int) int64 { return []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[v%5] },
		"random":       func(int) int64 { return rng.Int63() - rng.Int63() },
	} {
		keys := make([]int64, g.NumVertices())
		for v := range keys {
			keys[v] = key(v)
		}
		want := make([]graph.VertexID, len(keys))
		for v := range want {
			want[v] = graph.VertexID(v)
		}
		sort.SliceStable(want, func(i, j int) bool {
			vi, vj := want[i], want[j]
			if keys[vi] != keys[vj] {
				return keys[vi] > keys[vj]
			}
			return vi > vj
		})
		o := computeByKey(g, func(v graph.VertexID) int64 { return keys[v] })
		if !slices.Equal(o.Vertices(), want) {
			t.Errorf("%s: radix order differs from the comparison sort's", name)
		}
		for r, v := range o.Vertices() {
			if o.RankOf(v) != Rank(r) {
				t.Fatalf("%s: rank table inconsistent at rank %d", name, r)
			}
		}
	}
	if o := computeByKey(graph.FromEdges(0, nil), func(graph.VertexID) int64 { return 0 }); o.N() != 0 {
		t.Errorf("empty graph: %d ranks", o.N())
	}
}

// TestFromVertices: the rank→vertex sequence is kept and inverted, and
// a sequence that is not a permutation is refused, not panicked on.
func TestFromVertices(t *testing.T) {
	o := FromVertices([]graph.VertexID{1, 2, 0})
	if o == nil || o.RankOf(1) != 0 || o.RankOf(2) != 1 || o.RankOf(0) != 2 {
		t.Fatalf("FromVertices wrong: %v", o)
	}
	for _, bad := range [][]graph.VertexID{{0, 0, 1}, {0, 1, 3}, {0, -1, 1}} {
		if FromVertices(bad) != nil {
			t.Errorf("%v accepted as a permutation", bad)
		}
	}
}
