package tol

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestDynamicMatchesRebuild applies random edge insertions and
// deletions and verifies after every update that the maintained
// labels are bit-identical to a from-scratch TOL build over the
// current graph under the frozen order.
func TestDynamicMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		n := 12 + rng.Intn(18)
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{
				U: graph.VertexID(rng.Intn(n)),
				V: graph.VertexID(rng.Intn(n)),
			})
		}
		g := graph.FromEdges(n, edges)
		d := NewDynamic(g)

		for op := 0; op < 40; op++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			var err error
			if rng.Intn(2) == 0 {
				err = d.InsertEdge(u, v)
			} else {
				err = d.DeleteEdge(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := Build(d.Graph(), d.ord)
			got := d.Snapshot()
			if !want.Equal(got) {
				t.Fatalf("trial %d op %d: labels diverged after update (%d,%d): %s",
					trial, op, u, v, want.Diff(got))
			}
		}
	}
}

// TestDynamicQueries checks the maintained index against the BFS
// oracle across a mutation sequence on the paper example.
func TestDynamicQueries(t *testing.T) {
	d := NewDynamic(graph.PaperExample())
	ops := []struct {
		insert bool
		u, v   graph.VertexID
	}{
		{true, 9, 0},  // v10 → v1: v10 suddenly reaches almost everything
		{false, 1, 0}, // remove v2 → v1
		{false, 5, 1}, // remove v6 → v2: breaks the big cycle
		{true, 8, 3},  // v9 → v4
		{false, 0, 7}, // remove v1 → v8
	}
	for _, op := range ops {
		var err error
		if op.insert {
			err = d.InsertEdge(op.u, op.v)
		} else {
			err = d.DeleteEdge(op.u, op.v)
		}
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph()
		for s := graph.VertexID(0); int(s) < 11; s++ {
			for x := graph.VertexID(0); int(x) < 11; x++ {
				want := graph.Reachable(g, s, x)
				if got := d.Reachable(s, x); got != want {
					t.Fatalf("after op %+v: q(%d,%d) = %v, want %v", op, s, x, got, want)
				}
			}
		}
	}
}

// TestDynamicNoOps: inserting an existing edge or deleting a missing
// one leaves the index untouched.
func TestDynamicNoOps(t *testing.T) {
	g := graph.PaperExample()
	d := NewDynamic(g)
	before := d.Snapshot()
	if err := d.InsertEdge(1, 0); err != nil { // v2 → v1 exists
		t.Fatal(err)
	}
	if err := d.DeleteEdge(0, 1); err != nil { // v1 → v2 does not exist
		t.Fatal(err)
	}
	if !before.Equal(d.Snapshot()) {
		t.Fatal("no-op updates changed the index")
	}
	if d.Graph().NumEdges() != 15 {
		t.Fatalf("edge count changed: %d", d.Graph().NumEdges())
	}
	if d.Fold(); d.UpdateStats().Folds != 0 {
		t.Fatal("a fold with nothing to fold counted one")
	}
}

func TestDynamicRangeErrors(t *testing.T) {
	d := NewDynamic(graph.PaperExample())
	if err := d.InsertEdge(0, 42); err == nil {
		t.Error("expected range error on insert")
	}
	if err := d.DeleteEdge(-1, 0); err == nil {
		t.Error("expected range error on delete")
	}
	n := graph.VertexID(d.NumVertices())
	if err := d.InsertEdge(n, 0); err == nil {
		t.Error("expected range error on insert from vertex n")
	}
	if err := d.InsertEdge(0, n); err == nil {
		t.Error("expected range error on insert to vertex n")
	}
}

// TestDynamicInsertDeleteRoundTrip: deleting a freshly inserted edge
// restores the original index exactly.
func TestDynamicInsertDeleteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.PaperExample()
	d := NewDynamic(g)
	before := d.Snapshot()
	for i := 0; i < 25; i++ {
		u := graph.VertexID(rng.Intn(11))
		v := graph.VertexID(rng.Intn(11))
		if slices.Contains(g.OutNeighbors(u), v) {
			continue
		}
		if err := d.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if err := d.DeleteEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if !before.Equal(d.Snapshot()) {
			t.Fatalf("insert+delete of (%d,%d) did not round-trip: %s",
				u, v, before.Diff(d.Snapshot()))
		}
	}
}

// TestDynamicEdgeCases covers the update inputs that don't appear in
// the random suites: self-loops, duplicate inserts, deleting an edge
// that was never inserted, and mixing these with real updates.
func TestDynamicEdgeCases(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4},
	})
	d := NewDynamic(g)
	check := func(step string) {
		t.Helper()
		cur := d.Graph()
		want := Build(cur, d.ord)
		if got := d.Snapshot(); !want.Equal(got) {
			t.Fatalf("%s: labels diverged: %s", step, want.Diff(got))
		}
		for s := graph.VertexID(0); int(s) < 6; s++ {
			for x := graph.VertexID(0); int(x) < 6; x++ {
				if got, want := d.Reachable(s, x), graph.Reachable(cur, s, x); got != want {
					t.Fatalf("%s: q(%d,%d) = %v, want %v", step, s, x, got, want)
				}
			}
		}
	}

	// Self-loop insert: reachability is reflexive already, so labels
	// must still match a fresh build of the graph-with-loop.
	if err := d.InsertEdge(2, 2); err != nil {
		t.Fatal(err)
	}
	check("insert self-loop (2,2)")
	// Duplicate insert of the self-loop and of a plain edge: no-ops.
	before := d.Snapshot()
	m := d.NumEdges()
	if err := d.InsertEdge(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !before.Equal(d.Snapshot()) || d.NumEdges() != m {
		t.Fatal("duplicate inserts changed the index")
	}
	// Delete of a never-inserted edge, including a missing self-loop.
	if err := d.DeleteEdge(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(4, 4); err != nil {
		t.Fatal(err)
	}
	if !before.Equal(d.Snapshot()) || d.NumEdges() != m {
		t.Fatal("deletes of missing edges changed the index")
	}
	// Self-loop delete round-trips.
	if err := d.DeleteEdge(2, 2); err != nil {
		t.Fatal(err)
	}
	check("delete self-loop (2,2)")
	// Self-loop on an isolated vertex.
	if err := d.InsertEdge(5, 5); err != nil {
		t.Fatal(err)
	}
	check("insert self-loop on isolated vertex")
	// None of the above were no-ops counted as repairs beyond the real
	// updates: 3 effective updates so far.
	if s := d.UpdateStats(); s.Repairs+s.Rebuilds != 3 {
		t.Fatalf("update stats %+v, want 3 effective updates", s)
	}
}

// TestDynamicChainsAcrossThreshold builds and breaks a long chain so
// single updates swing between the localized-repair and the
// rebuild-fallback regime, checking exactness on both sides.
func TestDynamicChainsAcrossThreshold(t *testing.T) {
	// Two long paths; bridging them makes ANC×DES ≈ (n/2)² which
	// overwhelms 8·(n+m) and must take the rebuild path, while leaf
	// updates stay in the repair path.
	const half = 60
	var edges []graph.Edge
	for i := 0; i < half-1; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
		edges = append(edges, graph.Edge{U: graph.VertexID(half + i), V: graph.VertexID(half + i + 1)})
	}
	d := NewDynamic(graph.FromEdges(2*half, edges))

	check := func(step string) {
		t.Helper()
		want := Build(d.Graph(), d.ord)
		if got := d.Snapshot(); !want.Equal(got) {
			t.Fatalf("%s: labels diverged: %s", step, want.Diff(got))
		}
	}

	// Local update: a skip-edge from the chain head has ANC = {head},
	// so the affected product stays tiny and must repair in place.
	if err := d.InsertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	check("skip-edge insert")
	if err := d.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	check("skip-edge delete")
	if d.UpdateStats().Rebuilds != 0 {
		t.Fatalf("chain-local updates took the rebuild path: %+v", d.UpdateStats())
	}

	// Bridge the chains end-to-start: ANC(tail₁)=chain 1, DES(head₂)=
	// chain 2, product ≈ 3600 > 8·(120+119) ≈ 1912 → rebuild.
	if err := d.InsertEdge(half-1, half); err != nil {
		t.Fatal(err)
	}
	check("bridge chains")
	if got := d.UpdateStats().Rebuilds; got != 1 {
		t.Fatalf("bridge insert: rebuilds = %d, want 1", got)
	}
	if !d.Reachable(0, 2*half-1) {
		t.Fatal("bridge did not connect the chains")
	}

	// Break the bridge: same affected sets, rebuild again.
	if err := d.DeleteEdge(half-1, half); err != nil {
		t.Fatal(err)
	}
	check("break bridge")
	if got := d.UpdateStats().Rebuilds; got != 2 {
		t.Fatalf("bridge delete: rebuilds = %d, want 2", got)
	}
	if d.Reachable(0, 2*half-1) {
		t.Fatal("stale reachability across the removed bridge")
	}
}

// TestDynamicRebuildThreshold is the regression test for the public
// doc promise that an update touching most of the graph falls back to
// a rebuild: it pins the threshold inequality itself.
func TestDynamicRebuildThreshold(t *testing.T) {
	const half = 60
	var edges []graph.Edge
	for i := 0; i < half-1; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
		edges = append(edges, graph.Edge{U: graph.VertexID(half + i), V: graph.VertexID(half + i + 1)})
	}
	d := NewDynamic(graph.FromEdges(2*half, edges))
	n, m := int64(d.NumVertices()), d.NumEdges()
	// The bridge's affected sets are exactly the two chains.
	anc, des := int64(half), int64(half)
	if anc*des <= 8*(n+m+1) {
		t.Fatalf("test graph no longer crosses the threshold: %d ≤ %d", anc*des, 8*(n+m+1))
	}
	if err := d.InsertEdge(half-1, half); err != nil {
		t.Fatal(err)
	}
	if s := d.UpdateStats(); s.Rebuilds != 1 || s.Repairs != 0 {
		t.Fatalf("threshold did not trigger the rebuild fallback: %+v", s)
	}
	want := Build(d.Graph(), d.ord)
	if got := d.Snapshot(); !want.Equal(got) {
		t.Fatalf("rebuild fallback produced different labels: %s", want.Diff(got))
	}
}
