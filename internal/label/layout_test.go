package label

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// randomIndex builds an index with random (sorted, duplicate-free)
// label lists through FromLists.
func randomIndex(t testing.TB, n int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]order.Rank, n)
	for i := range ranks {
		ranks[i] = order.Rank(i)
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for v := 0; v < n; v++ {
		for r := 0; r < n; r++ {
			if rng.Intn(4) == 0 {
				in[v] = append(in[v], order.Rank(r))
			}
			if rng.Intn(4) == 0 {
				out[v] = append(out[v], order.Rank(r))
			}
		}
	}
	return FromLists(order.FromRanks(ranks), in, out)
}

// TestFreezeThawRoundTrip: Thaw∘Freeze is the identity on label sets,
// and the re-frozen index is byte-identical to the original.
func TestFreezeThawRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := randomIndex(t, 40, seed)
		refrozen := x.Thaw().Freeze()
		if !x.Equal(refrozen) {
			t.Fatalf("seed %d: Thaw().Freeze() diverged: %s", seed, x.Diff(refrozen))
		}
	}
}

// TestFlatMatchesSliceLayout: the flat Index and the slice-layout
// Lists answer every pair identically — the layouts differ only in
// memory shape, never in answers.
func TestFlatMatchesSliceLayout(t *testing.T) {
	for _, seed := range []int64{7, 8} {
		x := randomIndex(t, 48, seed)
		l := x.Thaw()
		for s := 0; s < 48; s++ {
			for d := 0; d < 48; d++ {
				sv, tv := graph.VertexID(s), graph.VertexID(d)
				if got, want := x.Reachable(sv, tv), l.Reachable(sv, tv); got != want {
					t.Fatalf("seed %d: flat(%d,%d)=%v, slice says %v", seed, s, d, got, want)
				}
			}
		}
	}
}

// TestGallopIntersects pits the galloping kernel against the linear
// merge on skewed random lists, including the boundary shapes the
// exponential probe has to get right.
func TestGallopIntersects(t *testing.T) {
	linear := func(a, b []order.Rank) bool {
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
	sortedSample := func(rng *rand.Rand, max, k int) []order.Rank {
		seen := map[int]bool{}
		var out []order.Rank
		for len(out) < k {
			r := rng.Intn(max)
			if !seen[r] {
				seen[r] = true
				out = append(out, order.Rank(r))
			}
		}
		slices.Sort(out)
		return out
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		short := sortedSample(rng, 10000, 1+rng.Intn(4))
		long := sortedSample(rng, 10000, 1+rng.Intn(400))
		if got, want := gallopIntersects(short, long), linear(short, long); got != want {
			t.Fatalf("gallop(%v, %v) = %v, linear merge says %v", short, long, got, want)
		}
		if got, want := intersects(short, long), linear(short, long); got != want {
			t.Fatalf("intersects(%v, %v) = %v, linear merge says %v", short, long, got, want)
		}
	}
	// Boundary shapes.
	if gallopIntersects([]order.Rank{5}, []order.Rank{5}) != true {
		t.Error("single-element equality missed")
	}
	if gallopIntersects([]order.Rank{9}, []order.Rank{1, 2, 3}) != false {
		t.Error("past-the-end probe must miss")
	}
	if gallopIntersects([]order.Rank{0, 9999}, []order.Rank{9999}) != true {
		t.Error("match at the long list's last element missed")
	}
}

// TestReachableBatch: batch answers equal per-pair answers, in caller
// order, with duplicate and repeated-source pairs mixed in.
func TestReachableBatch(t *testing.T) {
	x := randomIndex(t, 32, 11)
	rng := rand.New(rand.NewSource(12))
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{S: graph.VertexID(rng.Intn(32)), T: graph.VertexID(rng.Intn(32))}
		if i > 0 && rng.Intn(5) == 0 {
			pairs[i] = pairs[rng.Intn(i)] // inject duplicates
		}
	}
	got := x.ReachableBatch(pairs)
	if len(got) != len(pairs) {
		t.Fatalf("batch returned %d answers for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		if want := x.Reachable(p.S, p.T); got[i] != want {
			t.Fatalf("pair %d (%d,%d): batch=%v single=%v", i, p.S, p.T, got[i], want)
		}
	}
	if len(x.ReachableBatch(nil)) != 0 {
		t.Error("empty batch must return an empty answer slice")
	}
	// A batch of the size the serving tier sends sorts its keys on the
	// stack: the answer slice is the only allocation, and a larger
	// batch adds just its key slice.
	for _, c := range []struct{ pairs, allocs int }{{16, 1}, {64, 1}, {65, 2}, {500, 2}} {
		if got := testing.AllocsPerRun(20, func() { x.ReachableBatch(pairs[:c.pairs]) }); int(got) != c.allocs {
			t.Errorf("a batch of %d pairs allocates %v times, want %d", c.pairs, got, c.allocs)
		}
	}
}

// TestLongFirstTier: a list with a second tier and 65,535 or more
// first-tier ranks — all 2¹⁶ of them at most — has a head too long for
// one half-word, so it takes a second. Such lists read back whole,
// answer queries at either end of either tier, and survive the index
// file and Thaw.
func TestLongFirstTier(t *testing.T) {
	const n = wideFrom + 3
	ranks := make([]order.Rank, n)
	for v := range ranks {
		ranks[v] = order.Rank(v)
	}
	ord := order.FromRanks(ranks)
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	all := span(0, wideFrom, 1)
	out[n-1] = append(slices.Clone(all), wideFrom, n-1)           // all of tier 1, then tier 2 and its own rank
	out[n-2] = append(slices.Clone(all[1:]), wideFrom)            // 65,535 in tier 1 and a stored second tier (wideFrom+1 would be its own rank, not stored)
	out[n-3] = append(slices.Clone(all[:wideFrom-2]), wideFrom+1) // 65,534: one head half-word
	in[0], in[1], in[2] = []order.Rank{wideFrom - 1}, []order.Rank{wideFrom}, []order.Rank{0, wideFrom + 1}
	in[3] = []order.Rank{n - 1}
	x := FromLists(ord, in, out)
	for _, v := range []graph.VertexID{n - 1, n - 2, n - 3} {
		if got := x.OutLabels(v); !slices.Equal(got, out[v]) {
			t.Fatalf("L_out(%d) reads back with %d ranks, want %d", v, len(got), len(out[v]))
		}
	}
	back, err := Read(bytes.NewReader(mustWrite(t, x)))
	if err != nil || !x.Equal(back) {
		t.Fatalf("the index does not round-trip (%v)", err)
	}
	ref := x.Thaw()
	for _, y := range []*Index{x, back, ref.Freeze()} {
		for _, s := range []graph.VertexID{n - 1, n - 2, n - 3} {
			for u := graph.VertexID(0); u < 4; u++ {
				if got, want := y.Reachable(s, u), ref.Reachable(s, u); got != want {
					t.Fatalf("Reachable(%d, %d) = %v, the reference %v", s, u, got, want)
				}
			}
		}
	}
}
