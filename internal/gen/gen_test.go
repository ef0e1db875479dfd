package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestDeterminism: same parameters, same graph.
func TestDeterminism(t *testing.T) {
	for _, f := range Families() {
		p := Params{Family: f, N: 500, AvgDegree: 3, Seed: 11}
		a, err := Edges(p)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		b, err := Edges(p)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic edge count", f)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic edge %d", f, i)
			}
		}
		// A different seed must differ somewhere.
		p.Seed = 12
		c, err := Edges(p)
		if err != nil {
			t.Fatal(err)
		}
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seed has no effect", f)
		}

		// The streamed build must produce the in-RAM build's CSR exactly,
		// in both directions.
		p.Seed = 11
		ram, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := GenerateStreamed(p)
		if err != nil {
			t.Fatal(err)
		}
		if ram.NumVertices() != streamed.NumVertices() || ram.NumEdges() != streamed.NumEdges() {
			t.Fatalf("%s: streamed shape %v differs from in-RAM %v", f, streamed, ram)
		}
		// Neither holds its in-direction: each Inverse() is a fresh
		// transpose.
		ramInv, streamedInv := ram.Inverse(), streamed.Inverse()
		if ramInv == ram.Inverse() || streamedInv == streamed.Inverse() {
			t.Fatalf("%s: a generated graph holds its in-direction", f)
		}
		for v := graph.VertexID(0); int(v) < ram.NumVertices(); v++ {
			if !slices.Equal(ram.OutNeighbors(v), streamed.OutNeighbors(v)) ||
				!slices.Equal(ramInv.OutNeighbors(v), streamedInv.OutNeighbors(v)) {
				t.Fatalf("%s: streamed adjacency of v%d differs from in-RAM", f, v)
			}
		}
	}
}

// TestEdgeValidity: all generated edges stay in range and graphs are
// roughly the requested size.
func TestEdgeValidity(t *testing.T) {
	for _, f := range Families() {
		const n = 2000
		g, err := Generate(Params{Family: f, N: n, AvgDegree: 4, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if g.NumVertices() != n {
			t.Errorf("%s: %d vertices, want %d", f, g.NumVertices(), n)
		}
		m := g.NumEdges()
		if m < n || m > 8*n {
			t.Errorf("%s: %d edges for avg degree 4 on %d vertices", f, m, n)
		}
	}
}

// TestFamilyRegimes asserts the structural property each family
// stands in for (the substitution contract of DESIGN.md §1).
func TestFamilyRegimes(t *testing.T) {
	build := func(f Family, deg float64) (*graph.Digraph, graph.Stats) {
		g, err := Generate(Params{Family: f, N: 4000, AvgDegree: deg, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		return g, graph.ComputeStats(g)
	}

	if _, s := build(Citation, 4); !s.Acyclic {
		t.Error("citation graphs must be DAGs")
	}
	if _, s := build(Biology, 5); !s.Acyclic {
		t.Error("biology (ontology) graphs must be DAGs")
	}
	if _, s := build(Social, 4); float64(s.LargestSCC) < 0.3*4000 {
		t.Errorf("social graphs need a giant SCC, largest = %d", s.LargestSCC)
	}
	if _, s := build(Web, 4); s.Acyclic || s.LargestSCC < 10 {
		t.Errorf("web graphs have medium cycles, largest SCC = %d", s.LargestSCC)
	}
	if _, s := build(Knowledge, 3); float64(s.LargestSCC) > 0.1*4000 {
		t.Errorf("knowledge graphs are mostly acyclic, largest SCC = %d", s.LargestSCC)
	}
	// Degree skew for the preferential families.
	g, s := build(Social, 4)
	if s.MaxInDegree < 20*int(float64(g.NumEdges())/4000) {
		t.Errorf("social in-degree not heavy-tailed: max %d", s.MaxInDegree)
	}
}

func TestParamErrors(t *testing.T) {
	if _, err := Edges(Params{Family: Web, N: 0}); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := Edges(Params{Family: "nope", N: 10}); err == nil {
		t.Error("expected error for unknown family")
	}
	// AvgDegree defaults when unset.
	if _, err := Edges(Params{Family: Web, N: 10}); err != nil {
		t.Errorf("default degree should work: %v", err)
	}
}

func TestTinyGraphs(t *testing.T) {
	for _, f := range Families() {
		for _, n := range []int{1, 2, 3} {
			if _, err := Generate(Params{Family: f, N: n, AvgDegree: 2, Seed: 1}); err != nil {
				t.Errorf("%s n=%d: %v", f, n, err)
			}
		}
	}
}
