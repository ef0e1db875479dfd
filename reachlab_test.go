package reachlab

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func testEdges() []Edge {
	// The paper's Fig. 1 running example (0-based).
	return []Edge{
		{0, 4}, {0, 7},
		{1, 0}, {1, 2}, {1, 3}, {1, 4},
		{2, 0}, {2, 3}, {2, 9},
		{3, 5}, {3, 10},
		{4, 6},
		{5, 1},
		{6, 0},
		{7, 8},
	}
}

func TestBuildMethodsAgree(t *testing.T) {
	g := NewGraph(11, testEdges())
	methods := []Method{MethodTOL, MethodDRLBasic, MethodDRL, MethodDRLBatch, MethodDRLShared}
	var first *Index
	for _, m := range methods {
		idx, err := Build(context.Background(), g, Options{Method: m, Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for s := VertexID(0); s < 11; s++ {
			for d := VertexID(0); d < 11; d++ {
				want := g.ReachableBFS(s, d)
				if got := idx.Reachable(s, d); got != want {
					t.Fatalf("%s: q(%d,%d) = %v, want %v", m, s, d, got, want)
				}
			}
		}
		if first == nil {
			first = idx
		} else if first.Stats() != idx.Stats() {
			t.Fatalf("%s: index stats differ: %+v vs %+v", m, first.Stats(), idx.Stats())
		}
	}
}

func TestBuildDefaults(t *testing.T) {
	g, err := GenerateGraph("web", 500, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), g, Options{NetworkLatency: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	st := idx.BuildStats()
	if st.Method != MethodDRLBatch || st.Workers != 4 {
		t.Errorf("unexpected defaults: %+v", st)
	}
	if st.Supersteps == 0 || st.Messages == 0 {
		t.Errorf("distributed stats missing: %+v", st)
	}
	if idx.Stats().Entries == 0 {
		t.Error("index is empty")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := VertexID(0); s < 11; s++ {
		for d := VertexID(0); d < 11; d++ {
			if got.Reachable(s, d) != idx.Reachable(s, d) {
				t.Fatalf("round-trip changed q(%d,%d)", s, d)
			}
		}
	}
}

func TestBuildCancel(t *testing.T) {
	g, err := GenerateGraph("social", 30000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{Method: MethodDRLBasic, Workers: 2}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(context.Background(), nil, Options{}); err == nil {
		t.Error("expected error for nil graph")
	}
	g := NewGraph(2, []Edge{{0, 1}})
	if _, err := Build(context.Background(), g, Options{Method: "nope"}); err == nil {
		t.Error("expected error for unknown method")
	}
	if _, err := GenerateGraph("nope", 10, 2, 1); err == nil {
		t.Error("expected error for unknown family")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(3, []Edge{{0, 1}, {0, 1}, {1, 2}, {2, 2}})
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 3 { // duplicate removed
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if len(g.OutNeighbors(0)) != 1 || g.OutNeighbors(0)[0] != 1 {
		t.Errorf("OutNeighbors(0) = %v", g.OutNeighbors(0))
	}
	if g.Stats() == "" {
		t.Error("empty stats")
	}
}
