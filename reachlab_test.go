package reachlab

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
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

// TestBuildCancel: every build — each method, a label budget, and a
// cluster build of each method it runs — stopped by its context
// returns that context's own error.
func TestBuildCancel(t *testing.T) {
	g, err := GenerateGraph("social", 30000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g, true); err != nil {
		t.Fatal(err)
	}
	builds := map[string]func(context.Context) (*Index, error){
		"label budget": func(ctx context.Context) (*Index, error) {
			return Build(ctx, g, Options{LabelBudget: 8, Workers: 2})
		},
	}
	for _, m := range []Method{MethodTOL, MethodDRLBasic, MethodDRL, MethodDRLBatch, MethodDRLShared} {
		builds[string(m)] = func(ctx context.Context) (*Index, error) {
			return Build(ctx, g, Options{Method: m, Workers: 2})
		}
	}
	workers := startTestWorkers(t, 2)
	for _, m := range []Method{MethodDRL, MethodDRLBatch} {
		builds["cluster "+string(m)] = func(ctx context.Context) (*Index, error) {
			return BuildOverCluster(ctx, workers, path, Options{Method: m}, ClusterOptions{})
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, build := range builds {
		for _, c := range []struct {
			ctx  context.Context
			want error
		}{{canceled, context.Canceled}, {expired, context.DeadlineExceeded}} {
			if x, err := build(c.ctx); !errors.Is(err, c.want) {
				t.Errorf("%s: got index %v and error %v, want %v", name, x != nil, err, c.want)
			}
		}
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
