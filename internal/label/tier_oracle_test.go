package label_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// TestTiersMatchBFS checks, on a graph large enough to use both tiers
// of the layout, four indexes against BFS: the full one, one capped at
// 8 entries a list, one a maintainer patched with repairs, and the full
// one read back from its file. At 140,000 vertices a second-tier rank's
// high half-word is 1 or 2, so besides uniform pairs and pairs a short
// walk connects the check takes the pairs whose endpoints' own ranks
// are 2¹⁶ apart: their self-entries share a low half-word, and a kernel
// that compared second-tier ranks by it alone would answer true.
func TestTiersMatchBFS(t *testing.T) {
	const n = 140_000
	g, err := gen.Generate(gen.Params{Family: "citation", N: n, AvgDegree: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ord := order.Compute(g)
	opt := drl.Options{Workers: 2}
	full, err := drl.BuildBatch(g, ord, drl.DefaultBatchParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := drl.BuildBatchBudgeted(g, ord, drl.DefaultBatchParams(), 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := full.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	back, err := label.Read(&file)
	if err != nil {
		t.Fatal(err)
	}

	// Repairs: edges from sources to sinks, whose affected sets are the
	// two endpoints, so no update trips the rebuild guard.
	rng := rand.New(rand.NewSource(5))
	d := tol.NewDynamicFrom(g, ord, full, nil)
	var touched []graph.VertexID
	for len(touched) < 2*40 {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if g.InDegree(u) == 0 && g.OutDegree(v) == 0 && u != v {
			if err := d.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
			touched = append(touched, u, v)
		}
	}
	if s := d.UpdateStats(); s.Rebuilds != 0 || s.Folds != 0 || s.OverlayLists == 0 {
		t.Fatalf("%+v: want repairs that leave an overlay", s)
	}
	patched, dg := d.Snapshot(), d.Graph()

	// Sources: uniform, of ranks in the second tier's first and second
	// 2¹⁶, and the repaired edges' endpoints.
	var sources []graph.VertexID
	for i := 0; i < 16; i++ {
		sources = append(sources,
			graph.VertexID(rng.Intn(n)),
			ord.VertexAt(order.Rank(1<<16+rng.Intn(1<<16))),
			ord.VertexAt(order.Rank(1<<17+rng.Intn(n-1<<17))))
	}
	sources = append(sources, touched...)
	for _, s := range sources {
		for _, c := range []struct {
			name string
			g    *graph.Digraph
			x    interface {
				Reachable(s, t graph.VertexID) bool
				ReachableBatch([]label.Pair) []bool
			}
		}{{"full", g, full}, {"capped", g, capped}, {"read back", g, back}, {"patched", dg, patched}} {
			reached := make([]bool, n)
			var walk []graph.VertexID
			graph.BFS(c.g, s, func(v graph.VertexID) bool {
				reached[v] = true
				walk = append(walk, v)
				return true
			})
			var pairs []label.Pair
			add := func(u graph.VertexID) { pairs = append(pairs, label.Pair{S: s, T: u}) }
			for i := 0; i < 48; i++ {
				add(graph.VertexID(rng.Intn(n)))
				add(walk[rng.Intn(len(walk))])
			}
			for _, delta := range []int{-1 << 16, 1 << 16} {
				if r := int(ord.RankOf(s)) + delta; r >= 1<<16 && r < n {
					add(ord.VertexAt(order.Rank(r)))
				}
			}
			for _, u := range touched {
				add(u)
			}
			batch := c.x.ReachableBatch(pairs)
			for i, p := range pairs {
				if got := c.x.Reachable(p.S, p.T); got != reached[p.T] || batch[i] != got {
					t.Fatalf("%s: q(%d,%d) = %v (batch %v), BFS says %v", c.name, p.S, p.T, got, batch[i], reached[p.T])
				}
			}
		}
	}
}
