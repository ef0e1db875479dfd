package label

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/order"
)

func sortIDs(vs []graph.VertexID) []graph.VertexID {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// TestTrimmedBFSPaperExample reproduces Example 8 / Fig. 3: the
// v3-sourced trimmed BFS. The example's prose assumes the subscript
// order ord(v1) > ord(v2) > ... > ord(v11) (the exact degree formula
// swaps v3/v4, which changes this intermediate set but not the final
// index), so that order is pinned explicitly here.
func TestTrimmedBFSPaperExample(t *testing.T) {
	g := graph.PaperExample()
	ranks := make([]order.Rank, g.NumVertices())
	for v := range ranks {
		ranks[v] = order.Rank(v)
	}
	ord := order.FromRanks(ranks)
	s := NewScratch(g.NumVertices())
	low, hig := TrimmedBFS(g, ord, 2 /* v3 */, s, nil, nil)
	wantLow := []graph.VertexID{2, 3, 9, 5, 10} // v3, v4, v10, v6, v11
	wantHig := []graph.VertexID{0, 1}           // v1, v2
	if got := sortIDs(low); len(got) != len(wantLow) {
		t.Fatalf("BFS_low(v3) = %v", got)
	} else {
		for i, w := range sortIDs(append([]graph.VertexID(nil), wantLow...)) {
			if got[i] != w {
				t.Fatalf("BFS_low(v3) = %v, want %v", got, wantLow)
			}
		}
	}
	if got := sortIDs(hig); len(got) != 2 || got[0] != wantHig[0] || got[1] != wantHig[1] {
		t.Fatalf("BFS_hig(v3) = %v, want %v", hig, wantHig)
	}
	if low[0] != 2 {
		t.Errorf("BFS_low must start with the source, got %v", low)
	}
}

// TestTrimmedBFSProperties quick-checks Algorithm 2's contract on
// random graphs: BFS_low(v) = vertices reachable through strictly
// lower-order interiors; BFS_hig(v) = higher-order vertices adjacent
// to that region.
func TestTrimmedBFSProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		var edges []graph.Edge
		for i := 0; i < 3*n; i++ {
			edges = append(edges, graph.Edge{
				U: graph.VertexID(rng.Intn(n)),
				V: graph.VertexID(rng.Intn(n)),
			})
		}
		g := graph.FromEdges(n, edges)
		ord := order.Compute(g)
		s := NewScratch(n)
		for v := graph.VertexID(0); int(v) < n; v++ {
			low, hig := TrimmedBFS(g, ord, v, s, nil, nil)
			want := naiveTrimmed(g, ord, v)
			if !sameSet(low, want) {
				t.Fatalf("BFS_low(%d) = %v, want %v", v, sortIDs(low), sortIDs(want))
			}
			// hig ⊆ DES_hig(v) and disjoint from low.
			inLow := map[graph.VertexID]bool{}
			for _, w := range low {
				inLow[w] = true
			}
			for _, u := range hig {
				if inLow[u] {
					t.Fatalf("hig vertex %d also in low", u)
				}
				if !ord.Higher(u, v) {
					t.Fatalf("hig vertex %d is not higher-order than %d", u, v)
				}
			}
			// Deduplicated.
			seen := map[graph.VertexID]bool{}
			for _, u := range hig {
				if seen[u] {
					t.Fatalf("hig contains %d twice", u)
				}
				seen[u] = true
			}
		}
	}
}

// naiveTrimmed recomputes BFS_low by brute force: w is in BFS_low(v)
// iff a path v→w exists whose non-source vertices are all lower order
// than v.
func naiveTrimmed(g *graph.Digraph, ord *order.Ordering, v graph.VertexID) []graph.VertexID {
	low := []graph.VertexID{v}
	visited := map[graph.VertexID]bool{v: true}
	queue := []graph.VertexID{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.OutNeighbors(u) {
			if visited[w] || !ord.Higher(v, w) {
				continue
			}
			visited[w] = true
			low = append(low, w)
			queue = append(queue, w)
		}
	}
	return low
}

func sameSet(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[graph.VertexID]int{}
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}

func buildSmallIndex(t testing.TB) (*Index, *order.Ordering) {
	t.Helper()
	ord := order.FromRanks([]order.Rank{0, 1, 2})
	in := [][]order.Rank{{0}, {0, 1}, {0}}
	out := [][]order.Rank{{0}, {1}, {0, 2}}
	return FromLists(ord, in, out), ord
}

func TestIndexAccessors(t *testing.T) {
	x, _ := buildSmallIndex(t)
	if x.NumVertices() != 3 {
		t.Errorf("NumVertices = %d", x.NumVertices())
	}
	if got := x.InLabels(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("InLabels(1) = %v", got)
	}
	if x.Entries() != 8 {
		t.Errorf("Entries = %d, want 8", x.Entries())
	}
	if x.MaxLabelSize() != 2 {
		t.Errorf("MaxLabelSize = %d, want 2", x.MaxLabelSize())
	}
	if x.AvgLabelSize() != 8.0/6.0 {
		t.Errorf("AvgLabelSize = %f", x.AvgLabelSize())
	}
	empty := FromLists(order.FromRanks(nil), nil, nil)
	if empty.AvgLabelSize() != 0 {
		t.Errorf("AvgLabelSize of an empty index = %f, want 0", empty.AvgLabelSize())
	}
	if d := x.Diff(empty); d != "vertex count 3 vs 0" {
		t.Errorf("Diff against the empty index = %q", d)
	}
	if x.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	// Reachability through the shared rank 0: out(2) ∩ in(1) = {0}.
	if !x.Reachable(2, 1) {
		t.Error("q(2,1) should hold via rank 0")
	}
	if x.Reachable(1, 0) {
		t.Error("q(1,0) should not hold")
	}
}

func TestIndexEqualAndDiff(t *testing.T) {
	a, ord := buildSmallIndex(t)
	b, _ := buildSmallIndex(t)
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Error("identical indexes should compare equal")
	}
	d := FromLists(ord, [][]order.Rank{nil, {0}, nil}, make([][]order.Rank, 3))
	if a.Equal(d) {
		t.Error("different indexes compare equal")
	}
	if a.Diff(d) == "" {
		t.Error("Diff should describe the difference")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	x, _ := buildSmallIndex(t)
	var buf bytes.Buffer
	nBytes, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nBytes != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", nBytes, buf.Len())
	}
	y, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(y) {
		t.Fatalf("round trip changed the index: %s", x.Diff(y))
	}
	if y.Ordering().RankOf(0) != x.Ordering().RankOf(0) {
		t.Error("ordering lost in round trip")
	}
}

// TestReachableMatchesSetIntersection quick-checks the sorted merge
// against a map-based intersection.
func TestReachableMatchesSetIntersection(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		ord := order.FromRanks([]order.Rank{0, 1})
		am := map[order.Rank]bool{}
		var a, b []order.Rank
		for _, r := range aRaw {
			a = append(a, order.Rank(r))
			am[order.Rank(r)] = true
		}
		overlap := false
		for _, r := range bRaw {
			b = append(b, order.Rank(r))
			if am[order.Rank(r)] {
				overlap = true
			}
		}
		slices.Sort(a)
		slices.Sort(b)
		x := FromLists(ord, [][]order.Rank{nil, slices.Compact(b)}, [][]order.Rank{slices.Compact(a), nil})
		return x.Reachable(0, 1) == overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
