package drl

import (
	"context"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// startWorkers launches in-process RPC worker servers on ephemeral
// localhost ports — the same code path cmd/drworker serves, without
// fork/exec.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ready := make(chan string, 1)
		//lint:ignore goleak test worker serves until the process exits; ready (sent inside pregel.ServeWorker) is the only handshake it needs
		go func() {
			if err := pregel.ServeWorker("127.0.0.1:0", ready, pregel.WorkerOptions{}); err != nil {
				// The listener dies when the test process exits.
				t.Log(err)
			}
		}()
		addrs[i] = <-ready
	}
	return addrs
}

// TestRPCClusterMatchesTOL runs DRL and DRL_b across a real TCP
// net/rpc cluster and verifies both reproduce TOL's index.
func TestRPCClusterMatchesTOL(t *testing.T) {
	g := randomDigraph(60, 170, 21)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	ord := order.Compute(g)
	want := tol.Build(g, ord)

	addrs := startWorkers(t, 3)
	bp := DefaultBatchParams()

	got, met, err := BuildOverClusterOf(context.Background(), addrs, g, path, &bp, ClusterOptions{})
	if err != nil {
		t.Fatalf("DRL_b over RPC: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("DRL_b over RPC differs from TOL: %s", want.Diff(got))
	}
	if met.Supersteps == 0 || met.BytesRemote == 0 {
		t.Errorf("suspicious metrics: %+v", met)
	}

	// A fresh cluster for DRL (worker state is per-job).
	addrs = startWorkers(t, 4)
	got, _, err = BuildOverClusterOf(context.Background(), addrs, g, path, nil, ClusterOptions{})
	if err != nil {
		t.Fatalf("DRL over RPC: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("DRL over RPC differs from TOL: %s", want.Diff(got))
	}
}

// TestRPCPaperExample runs the running-example graph through the RPC
// cluster end to end, checking queries against the BFS oracle.
func TestRPCPaperExample(t *testing.T) {
	g := graph.PaperExample()
	path := filepath.Join(t.TempDir(), "g.el")
	if err := graph.SaveFile(path, g, false); err != nil {
		t.Fatal(err)
	}
	addrs := startWorkers(t, 2)
	bp := DefaultBatchParams()
	idx, _, err := BuildOverClusterOf(context.Background(), addrs, g, path, &bp, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumVertices(); s++ {
		for d := 0; d < g.NumVertices(); d++ {
			want := graph.Reachable(g, graph.VertexID(s), graph.VertexID(d))
			if got := idx.Reachable(graph.VertexID(s), graph.VertexID(d)); got != want {
				t.Fatalf("q(%d,%d) = %v, want %v", s, d, got, want)
			}
		}
	}
}

// TestRPCRefusesBadBatch: the batch a master names reaches a worker
// from another process, so the worker refuses one it cannot parse or
// that lies outside its graph's ranks, and accepts an empty one.
func TestRPCRefusesBadBatch(t *testing.T) {
	g := graph.PaperExample()
	path := saveGraph(t, g)
	n := g.NumVertices()
	for _, row := range []struct {
		lo, hi string
		ok     bool
	}{
		{"0", strconv.Itoa(n), true},
		{"2", "2", true},
		{"x", "1", false},
		{"0", "y", false},
		{"-1", "1", false},
		{"2", "1", false},
		{"0", strconv.Itoa(n + 1), false},
	} {
		h := &pregel.Host{}
		if err := h.Init(pregel.InitArgs{NumWorkers: 1, GraphPath: path}, &pregel.InitReply{}); err != nil {
			t.Fatal(err)
		}
		err := h.BeginRun(pregel.BeginRunArgs{RunID: 1, Program: "drl", Params: map[string]string{"lo": row.lo, "hi": row.hi}}, nil)
		if (err == nil) != row.ok {
			t.Errorf("batch [%s, %s) of %d ranks: error %v, want accepted %v", row.lo, row.hi, n, err, row.ok)
		}
	}
}
