package label_test

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// oracleIndex is what TestTiersMatchBFS asks of each index it checks.
type oracleIndex interface {
	Reachable(s, t graph.VertexID) bool
	ReachableBatch([]label.Pair) []bool
	ReachableFrom(ctx context.Context, s graph.VertexID, targets []graph.VertexID) ([]bool, error)
	ReachableSetSize(ctx context.Context, s graph.VertexID) (int, error)
}

// endsWithOwn reports whether a list ends with its vertex's own rank,
// the entry the layout leaves implicit.
func endsWithOwn(list []order.Rank, own order.Rank) bool {
	return len(list) > 0 && list[len(list)-1] == own
}

// meetAt returns the ranks two lists share.
func meetAt(a, b []order.Rank) []order.Rank {
	var common []order.Rank
	for _, r := range a {
		if _, found := slices.BinarySearch(b, r); found {
			common = append(common, r)
		}
	}
	return common
}

// TestTiersMatchBFS checks, on a graph large enough to use both tiers
// of the layout, four indexes against BFS: the full one, one capped at
// 8 entries a list, one a maintainer patched with repairs, and the full
// one read back from its file. At 140,000 vertices a second-tier rank's
// high half-word is 1 or 2, so besides uniform pairs and pairs a short
// walk connects the check takes the pairs whose endpoints' own ranks
// are 2¹⁶ apart: their own ranks share a low half-word, and a kernel
// that compared second-tier ranks by it alone would answer true.
//
// The layout leaves a list's last entry out of its run where it is its
// vertex's own rank at or above 2¹⁶, so the check also takes the cases
// own ranks create: pairs whose only common rank is an endpoint's own
// (the source a hub of the target, or the target of the source);
// vertices with no own rank in either list, pruned because a cycle
// through a vertex of higher order covers them (the citation graph is
// acyclic, so the test closes cycles with back edges); vertices whose
// capped list refused its own rank; the vertices ranked 65,535 and
// 65,536, whose own ranks fall either side of the tier line; and pairs
// whose capped labels miss although the source's out-list is complete.
// From each of those the one-source sweeps (ReachableFrom,
// ReachableSetSize) and a witness search (FindPath, pruned by the index)
// are checked as well.
func TestTiersMatchBFS(t *testing.T) {
	const n, budget = 140_000, 8
	ctx := context.Background()
	edges, err := gen.Edges(gen.Params{Family: "citation", N: n, AvgDegree: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	acyclic := graph.FromEdges(n, edges)
	before := order.Compute(acyclic)
	// Back edges close cycles: each from the end of a short walk to its
	// start, through a vertex of lower order than the start, whose degrees
	// the edge leaves alone — twelve such vertices in each tier.
	for tier := 0; tier < 2; tier++ {
		for closed := 0; closed < 12; {
			path := []graph.VertexID{graph.VertexID(rng.Intn(n))}
			for step := 2 + rng.Intn(3); step > 0 && acyclic.OutDegree(path[len(path)-1]) > 0; step-- {
				out := acyclic.OutNeighbors(path[len(path)-1])
				path = append(path, out[rng.Intn(len(out))])
			}
			if len(path) < 3 {
				continue
			}
			if r := before.RankOf(path[1]); (r >= 1<<16+4096) == (tier == 1) && before.RankOf(path[0]) < r {
				edges = append(edges, graph.Edge{U: path[len(path)-1], V: path[0]})
				closed++
			}
		}
	}
	g := graph.FromEdges(n, edges)
	ord := order.Compute(g)
	opt := drl.Options{Workers: 2}
	full, err := drl.BuildBatch(g, ord, drl.DefaultBatchParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := drl.BuildBatchBudgeted(g, ord, drl.DefaultBatchParams(), budget, opt)
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

	// The vertices an implicit own rank makes special, each kind in both
	// tiers where the graph has it.
	var selfless, refused [2][]graph.VertexID
	for v := graph.VertexID(0); int(v) < n; v++ {
		own := ord.RankOf(v)
		tier := min(int(own)>>16, 1)
		if !endsWithOwn(full.OutLabels(v), own) && !endsWithOwn(full.InLabels(v), own) && len(selfless[tier]) < 4 {
			selfless[tier] = append(selfless[tier], v)
		}
		if l := capped.Index().OutLabels(v); len(l) == budget && !endsWithOwn(l, own) && len(refused[tier]) < 4 {
			refused[tier] = append(refused[tier], v)
		}
	}
	if len(selfless[0]) == 0 || len(selfless[1]) == 0 || len(refused[1]) == 0 {
		t.Fatalf("the graph moved: %v vertices of each tier with no own rank, %v whose capped out-list refused it", selfless, refused)
	}
	special := slices.Concat(selfless[0], selfless[1], refused[0], refused[1],
		[]graph.VertexID{ord.VertexAt(1<<16 - 1), ord.VertexAt(1 << 16)})
	// And pairs a capped sweep cannot answer from labels: a source whose
	// capped out-list is complete and a target it reaches whose capped
	// in-list overflowed, with no rank in common — the sweep's per-target
	// fallback decides them.
	var missFrom, missTo []graph.VertexID
	for s := graph.VertexID(0); int(s) < n && len(missFrom) < 2; s++ {
		if !capped.OutFull(s) {
			continue
		}
		graph.BFS(g, s, func(u graph.VertexID) bool {
			if u != s && !capped.InFull(u) && !capped.Index().Reachable(s, u) {
				missFrom, missTo = append(missFrom, s), append(missTo, u)
				return false
			}
			return true
		})
	}
	if len(missFrom) == 0 {
		t.Fatal("the graph moved: no complete out-list misses a reachable target's capped in-list")
	}
	special = slices.Concat(special, missFrom, missTo)

	// Repairs: edges from sources to sinks, whose affected sets are the
	// two endpoints, so no update trips the rebuild guard.
	d := tol.NewDynamicFrom(g, ord, full, nil)
	var touched []graph.VertexID
	inv := g.Inverse()
	for len(touched) < 2*40 {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if inv.OutDegree(u) == 0 && g.OutDegree(v) == 0 && u != v {
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
	// 2¹⁶, the repaired edges' endpoints, and the special vertices.
	var sources []graph.VertexID
	for i := 0; i < 16; i++ {
		sources = append(sources,
			graph.VertexID(rng.Intn(n)),
			ord.VertexAt(order.Rank(1<<16+rng.Intn(1<<16))),
			ord.VertexAt(order.Rank(1<<17+rng.Intn(n-1<<17))))
	}
	sources = slices.Concat(sources, touched, special)
	var ownOnly [2]int // pairs met only at the source's own rank, and only at the target's
	for _, s := range sources {
		var ownTargets []graph.VertexID // the targets met only at an own rank, found under the full index
		for _, c := range []struct {
			name string
			g    *graph.Digraph
			x    oracleIndex
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
			if c.name == "full" {
				for _, u := range walk[:min(len(walk), 64)] {
					switch common := meetAt(full.OutLabels(s), full.InLabels(u)); {
					case slices.Equal(common, []order.Rank{ord.RankOf(s)}):
						ownOnly[0]++
					case slices.Equal(common, []order.Rank{ord.RankOf(u)}):
						ownOnly[1]++
					default:
						continue
					}
					ownTargets = append(ownTargets, u)
				}
			}
			checked := slices.Concat(special, ownTargets)
			for _, u := range slices.Concat(touched, checked) {
				add(u)
			}
			batch := c.x.ReachableBatch(pairs)
			for i, p := range pairs {
				if got := c.x.Reachable(p.S, p.T); got != reached[p.T] || batch[i] != got {
					t.Fatalf("%s: q(%d,%d) = %v (batch %v), BFS says %v", c.name, p.S, p.T, got, batch[i], reached[p.T])
				}
			}
			if !slices.Contains(special, s) {
				continue
			}
			targets := make([]graph.VertexID, len(pairs))
			for i, p := range pairs {
				targets[i] = p.T
			}
			from, err := c.x.ReachableFrom(ctx, s, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range targets {
				if from[i] != reached[u] {
					t.Fatalf("%s: ReachableFrom(%d) says %v for %d, BFS %v", c.name, s, from[i], u, reached[u])
				}
			}
			if size, err := c.x.ReachableSetSize(ctx, s); err != nil || size != len(walk) {
				t.Fatalf("%s: ReachableSetSize(%d) = %d (%v), BFS reaches %d", c.name, s, size, err, len(walk))
			}
			for _, u := range checked {
				checkWitness(t, c.name, c.g, c.x, s, u, reached[u])
			}
		}
	}
	if ownOnly[0] == 0 || ownOnly[1] == 0 {
		t.Fatalf("%v pairs met only at the source's own rank and only at the target's: want both kinds", ownOnly)
	}
}

// checkWitness runs the witness search reachlab's WitnessPath runs — a
// BFS from s that never expands a vertex the index says cannot reach u —
// and checks that it finds a path of g's edges from s to u iff u is
// reachable.
func checkWitness(t *testing.T, name string, g *graph.Digraph, x oracleIndex, s, u graph.VertexID, reachable bool) {
	t.Helper()
	if s == u {
		return
	}
	path, err := label.FindPath(context.Background(), g.NumVertices(), s, g.OutNeighbors, func(w graph.VertexID) (hit, cut bool) {
		return w == u, !x.Reachable(w, u)
	})
	if err != nil || (path != nil) != reachable {
		t.Fatalf("%s: FindPath(%d, %d) = %v (%v), BFS says reachable = %v", name, s, u, path, err, reachable)
	}
	for i := 1; i < len(path); i++ {
		if !slices.Contains(g.OutNeighbors(path[i-1]), path[i]) {
			t.Fatalf("%s: FindPath(%d, %d) = %v: no edge %d→%d", name, s, u, path, path[i-1], path[i])
		}
	}
	if path != nil && (path[0] != s || path[len(path)-1] != u) {
		t.Fatalf("%s: FindPath(%d, %d) = %v", name, s, u, path)
	}
}
