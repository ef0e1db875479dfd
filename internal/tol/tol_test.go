package tol

import (
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// labelVertices translates a rank-based label list back to 1-based
// paper vertex numbers for comparison against Tables II/III.
func labelVertices(ord *order.Ordering, ranks []order.Rank) []int {
	out := make([]int, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, int(ord.VertexAt(r))+1)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperExampleTableII verifies that TOL on the Fig. 1 graph
// reproduces the index of Table II exactly.
func TestPaperExampleTableII(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	idx := Build(g, ord)

	wantIn := [][]int{
		{1}, {2}, {2}, {2}, {1}, {2}, {1}, {1, 8}, {1, 8, 9}, {2, 10}, {2, 11},
	}
	wantOut := [][]int{
		{1}, {1, 2}, {1, 2}, {1, 2}, {1}, {1, 2}, {1}, {8}, {9}, {10}, {11},
	}
	for v := 0; v < 11; v++ {
		gotIn := labelVertices(ord, idx.InLabels(graph.VertexID(v)))
		gotOut := labelVertices(ord, idx.OutLabels(graph.VertexID(v)))
		if !equalInts(gotIn, wantIn[v]) {
			t.Errorf("L_in(v%d) = %v, want %v", v+1, gotIn, wantIn[v])
		}
		if !equalInts(gotOut, wantOut[v]) {
			t.Errorf("L_out(v%d) = %v, want %v", v+1, gotOut, wantOut[v])
		}
	}
}

// TestPaperExampleOrder verifies the ord values of Example 3 and that
// the computed order puts the two largest first.
func TestPaperExampleOrder(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	// ord(v) = (d_in+1)(d_out+1) + (v+1)/(n+1), from the graph.
	inv := g.Inverse()
	ordValue := func(v graph.VertexID) float64 {
		return float64((inv.OutDegree(v)+1)*(g.OutDegree(v)+1)) + float64(v+1)/float64(g.NumVertices()+1)
	}
	if got := ordValue(0); got < 12.08-0.01 || got > 12.08+0.01 {
		t.Errorf("ord(v1) = %.2f, want 12.08", got)
	}
	if got := ordValue(9); got < 2.83-0.01 || got > 2.83+0.01 {
		t.Errorf("ord(v10) = %.2f, want 2.83", got)
	}
	if ord.RankOf(0) != 0 {
		t.Errorf("v1 should have the highest order, rank = %d", ord.RankOf(0))
	}
	if ord.RankOf(1) != 1 {
		t.Errorf("v2 should have the second highest order, rank = %d", ord.RankOf(1))
	}
}

// TestCoverConstraint checks Definition 3 on the example graph: the
// index answers exactly the BFS ground truth for every vertex pair.
func TestCoverConstraint(t *testing.T) {
	g := graph.PaperExample()
	idx := Build(g, order.Compute(g))
	checkCover(t, g, idx)
}

func checkCover(t *testing.T, g *graph.Digraph, idx *label.Index) {
	t.Helper()
	n := g.NumVertices()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			want := graph.Reachable(g, graph.VertexID(s), graph.VertexID(d))
			got := idx.Reachable(graph.VertexID(s), graph.VertexID(d))
			if got != want {
				t.Fatalf("q(%d,%d) = %v, want %v", s, d, got, want)
			}
		}
	}
}
