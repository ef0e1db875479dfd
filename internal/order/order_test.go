package order

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// ordValue is the paper's numeric ord(v) = (d_in+1)(d_out+1) +
// (v+1)/(n+1), computed from the graph (Example 3 reports ord(v1) =
// 12.08 on the running example).
func ordValue(g *graph.Digraph, v graph.VertexID) float64 {
	return float64((g.Inverse().OutDegree(v)+1)*(g.OutDegree(v)+1)) + float64(v+1)/float64(g.NumVertices()+1)
}

func TestComputePaperExample(t *testing.T) {
	g := graph.PaperExample()
	o := Compute(g)
	// Example 3: ord(v1) = 12.08, ord(v10) = 2.83.
	if got := ordValue(g, 0); math.Abs(got-12.08) > 0.01 {
		t.Errorf("ord(v1) = %.2f, want 12.08", got)
	}
	if got := ordValue(g, 9); math.Abs(got-2.83) > 0.01 {
		t.Errorf("ord(v10) = %.2f, want 2.83", got)
	}
	// Example 4: v1 first, v2 second.
	if o.VertexAt(0) != 0 || o.VertexAt(1) != 1 {
		t.Errorf("top ranks = %d, %d; want v1, v2", o.VertexAt(0), o.VertexAt(1))
	}
	if !o.Higher(0, 9) {
		t.Error("ord(v1) should exceed ord(v10)")
	}
}

func TestTieBreakByID(t *testing.T) {
	// Two isolated vertices: identical degree products; the larger ID
	// wins (the +ID/(n+1) term).
	g := graph.FromEdges(2, nil)
	o := Compute(g)
	if o.RankOf(1) != 0 || o.RankOf(0) != 1 {
		t.Errorf("tie-break wrong: rank(v0)=%d rank(v1)=%d", o.RankOf(0), o.RankOf(1))
	}
}

func TestRankPermutation(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 30
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{
				U: graph.VertexID(raw[i] % n),
				V: graph.VertexID(raw[i+1] % n),
			})
		}
		g := graph.FromEdges(n, edges)
		o := Compute(g)
		seen := make([]bool, n)
		for v := graph.VertexID(0); int(v) < n; v++ {
			r := o.RankOf(v)
			if r < 0 || int(r) >= n || seen[r] {
				return false
			}
			seen[r] = true
			if o.VertexAt(r) != v {
				return false
			}
		}
		// Ranks must sort by descending ord(v).
		for r := 1; r < n; r++ {
			if ordValue(g, o.VertexAt(Rank(r-1))) <= ordValue(g, o.VertexAt(Rank(r))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromRanks(t *testing.T) {
	o := FromRanks([]Rank{2, 0, 1})
	if o.VertexAt(0) != 1 || o.VertexAt(1) != 2 || o.VertexAt(2) != 0 {
		t.Errorf("FromRanks wrong: %v", o.Vertices())
	}
	if !o.Higher(1, 0) {
		t.Error("vertex 1 (rank 0) should be higher than vertex 0 (rank 2)")
	}
}

func TestFromRanksRejectsNonPermutation(t *testing.T) {
	cases := [][]Rank{
		{0, 0, 1},  // duplicate
		{0, 1, 5},  // out of range
		{0, 1, -1}, // negative
	}
	for i, ranks := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			FromRanks(ranks)
		}()
	}
}

func TestHigherMatchesOrdValue(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(40)
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{
				U: graph.VertexID(rng.Intn(n)),
				V: graph.VertexID(rng.Intn(n)),
			})
		}
		g := graph.FromEdges(n, edges)
		o := Compute(g)
		for u := graph.VertexID(0); int(u) < n; u++ {
			for v := graph.VertexID(0); int(v) < n; v++ {
				if u == v {
					continue
				}
				if o.Higher(u, v) != (ordValue(g, u) > ordValue(g, v)) {
					t.Fatalf("Higher(%d,%d) disagrees with ord(v)", u, v)
				}
			}
		}
	}
}
