package main

import (
	"bytes"
	"testing"

	reachlab "repro"
)

func testGraph(t *testing.T) *reachlab.Graph {
	t.Helper()
	g, err := reachlab.GenerateGraph("citation", 2000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func samePairs(a, b []reachlab.Pair) bool {
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

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	g := testGraph(t)
	gens := map[string]func(seed int64) []reachlab.Pair{
		"zipf":    func(seed int64) []reachlab.Pair { return zipfPairs(subSeed(seed, streamClient), 2000, 512) },
		"uniform": func(seed int64) []reachlab.Pair { return uniformPairs(subSeed(seed, streamClient), 2000, 512) },
		"walk":    func(seed int64) []reachlab.Pair { return walkPairs(subSeed(seed, streamClient), g, 512) },
		"mixed":   func(seed int64) []reachlab.Pair { return mixedPairs(subSeed(seed, streamClient), g, 512) },
	}
	for name, gen := range gens {
		if !samePairs(gen(3), gen(3)) {
			t.Errorf("%s: same seed gave different pairs", name)
		}
		if samePairs(gen(3), gen(4)) {
			t.Errorf("%s: different seeds gave the same pairs", name)
		}
		if got := len(gen(3)); got != 512 {
			t.Errorf("%s: %d pairs, want 512", name, got)
		}
	}
}

func TestWalkPairsAreReachable(t *testing.T) {
	g := testGraph(t)
	for _, p := range walkPairs(subSeed(1, streamCheck), g, 300) {
		if p.S == p.T || !g.ReachableBFS(p.S, p.T) {
			t.Fatalf("walk pair (%d,%d) is not a reachable pair of distinct vertices", p.S, p.T)
		}
	}
}

// The replica and router workloads must send byte-identical streams:
// what differs between their numbers is then the router alone.
func TestReplicaAndRouterStreamsAreIdentical(t *testing.T) {
	cfg := newConfig(5, 1, true, nil)
	g := testGraph(t)
	a := traffic(cfg, replicaZipf, g, 1, 64).encode()
	b := traffic(cfg, routerZipf, g, 1, 64).encode()
	if a.len() == 0 || a.len() != b.len() {
		t.Fatalf("stream lengths %d and %d", a.len(), b.len())
	}
	for i := range a.raw {
		if !bytes.Equal(a.raw[i], b.raw[i]) {
			t.Fatalf("request %d differs between the replica and the router stream", i)
		}
	}
	other := traffic(newConfig(6, 1, true, nil), replicaZipf, g, 1, 64).encode()
	if bytes.Equal(a.raw[0], other.raw[0]) && bytes.Equal(a.raw[1], other.raw[1]) {
		t.Error("a different seed gave the same request bytes")
	}
}

func TestEncodeBatches(t *testing.T) {
	pairs := make([]reachlab.Pair, batchSize)
	for i := range pairs {
		pairs[i] = reachlab.Pair{S: reachlab.VertexID(i), T: reachlab.VertexID(100 + i)}
	}
	q := encodeBatches(pairs)
	if q.len() != 1 {
		t.Fatalf("%d requests, want 1", q.len())
	}
	wantBody := `{"pairs":[[0,100],[1,101],[2,102],[3,103],[4,104],[5,105],[6,106],[7,107],[8,108],[9,109],[10,110],[11,111],[12,112],[13,113],[14,114],[15,115]]}`
	want := "POST /reach/batch HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: 145\r\n\r\n" + wantBody
	if len(wantBody) != 145 || string(q.raw[0]) != want {
		t.Errorf("request bytes:\n%q\nwant\n%q", q.raw[0], want)
	}
	if string(jsonBody(q.raw[0])) != wantBody {
		t.Errorf("jsonBody = %q", jsonBody(q.raw[0]))
	}
	q.expect(func(s, _ reachlab.VertexID) bool { return s%2 == 1 })
	if q.want[0] != 0b1010101010101010 {
		t.Errorf("want mask %016b", q.want[0])
	}
}

func TestWriterEdgesAreNewAndInWindow(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	edges := writerEdges(subSeed(2, streamWriter), g, 500, 200)
	if len(edges) != 200 {
		t.Fatalf("%d edges, want 200", len(edges))
	}
	for _, e := range edges {
		if e[0] == e[1] || hasEdge(g, e[0], e[1]) || int(e[0]) < n-500 || int(e[1]) < n-500 {
			t.Fatalf("edge %v is a self-loop, already in the graph, or outside the newest 500 vertices", e)
		}
	}
	q := encodeBatches(uniformPairs(subSeed(2, streamClient), n, 64*batchSize))
	q.exemptNewest(n, 500)
	for r := range q.check {
		for i, p := range q.pairs[r*batchSize : (r+1)*batchSize] {
			if checked := q.check[r]&(1<<i) != 0; checked != (int(p.S) < n-500) {
				t.Fatalf("pair (%d,%d): checked = %v", p.S, p.T, checked)
			}
		}
	}
}
