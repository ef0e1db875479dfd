package label

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

func randomDigraph(n, m int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	}
	return graph.FromEdges(n, edges)
}

// bfsDist is the oracle: hop distances from s over next, -1 where
// unreached. It shares nothing with walk.run.
func bfsDist(n int, s graph.VertexID, next func(graph.VertexID) []graph.VertexID) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	for queue := []graph.VertexID{s}; len(queue) > 0; queue = queue[1:] {
		for _, u := range next(queue[0]) {
			if dist[u] < 0 {
				dist[u] = dist[queue[0]] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// TestWalkMatchesBFS runs the kernel over CSR out-edges, CSR in-edges
// and an overlay adjacency (a base graph under edited neighbor lists,
// as an updating replica's epochs carry) and checks the reached set,
// the expansion count and every recorded parent chain against a plain
// BFS of the same edges.
func TestWalkMatchesBFS(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := 40 + 30*int(seed)
		g := randomDigraph(n, 2*n, seed)

		// The overlay: a few vertices' out-lists rewritten over g.
		rng := rand.New(rand.NewSource(seed))
		mo := graph.NewMutableOverlay[graph.VertexID](n)
		for k := 0; k < n/4; k++ {
			v := graph.VertexID(rng.Intn(n))
			cur, ok := mo.Get(v)
			if !ok {
				cur = g.OutNeighbors(v)
			}
			if len(cur) > 0 && k%2 == 0 {
				mo.Remove(v, cur, rng.Intn(len(cur)))
			} else {
				mo.Insert(v, cur, 0, graph.VertexID(rng.Intn(n)))
			}
		}
		ov := mo.Freeze(g.OutNeighbors)
		if ov.Len() == 0 {
			t.Fatal("the edits left no overlay")
		}
		overlaid := func(v graph.VertexID) []graph.VertexID {
			if l, ok := ov.Get(v); ok {
				return l
			}
			return g.OutNeighbors(v)
		}

		for name, next := range map[string]func(graph.VertexID) []graph.VertexID{
			"out": g.OutNeighbors, "in": g.Inverse().OutNeighbors, "overlay": overlaid,
		} {
			for s := graph.VertexID(0); int(s) < n; s += 7 {
				dist := bfsDist(n, s, next)
				reached := 0
				for _, d := range dist {
					if d >= 0 {
						reached++
					}
				}
				w := walkPool.Get().(*walk)
				if found, err := w.run(context.Background(), n, s, next, nil); found || err != nil {
					t.Fatalf("%s seed %d: unguided walk from %d: found=%v err=%v", name, seed, s, found, err)
				}
				if len(w.queue) != reached || w.expanded != reached {
					t.Fatalf("%s seed %d: walk from %d reached %d and expanded %d, BFS reaches %d",
						name, seed, s, len(w.queue), w.expanded, reached)
				}
				for v, d := range dist {
					if w.seen.Has(graph.VertexID(v)) != (d >= 0) {
						t.Fatalf("%s seed %d: walk from %d marks %d wrongly (dist %d)", name, seed, s, v, d)
					}
				}
				walkPool.Put(w)

				for goal := graph.VertexID(0); int(goal) < n; goal += 5 {
					if goal == s {
						continue
					}
					path, err := FindPath(context.Background(), n, s, next, func(u graph.VertexID) (hit, cut bool) {
						return u == goal, false
					})
					if err != nil {
						t.Fatal(err)
					}
					if (path != nil) != (dist[goal] > 0) || (path != nil && len(path)-1 != dist[goal]) {
						t.Fatalf("%s seed %d: path %d→%d = %v, BFS distance %d", name, seed, s, goal, path, dist[goal])
					}
					for i := range path {
						if i == 0 && path[i] != s || i == len(path)-1 && path[i] != goal ||
							i > 0 && !slices.Contains(next(path[i-1]), path[i]) {
							t.Fatalf("%s seed %d: path %d→%d = %v is not a walk over the edges", name, seed, s, goal, path)
						}
					}
				}
			}
		}
	}
}

// TestMarksEpochWrap runs walks across the mark table's epoch wrap,
// each from a vertex with descendants, against the BFS oracle: at the
// wrap every never-marked entry reads as the new epoch until the table
// is cleared, so an unguarded walk would reach nothing past its start.
func TestMarksEpochWrap(t *testing.T) {
	const n = 60
	g := randomDigraph(n, 2*n, 1)
	var w walk
	w.seen.Reset(n)
	w.seen.epoch = -3 // the third run's reset wraps
	runs := 0
	for s := graph.VertexID(0); runs < 6; s++ {
		dist := bfsDist(n, s, g.OutNeighbors)
		if slices.Max(dist) < 1 {
			continue
		}
		runs++
		if _, err := w.run(context.Background(), n, s, g.OutNeighbors, nil); err != nil {
			t.Fatal(err)
		}
		for v, d := range dist {
			if w.seen.Has(graph.VertexID(v)) != (d >= 0) {
				t.Fatalf("run %d from %d (epoch %d): vertex %d marked %v, BFS distance %d",
					runs, s, w.seen.epoch, v, w.seen.Has(graph.VertexID(v)), d)
			}
		}
	}
}

// TestWalkCutAndHit: a cut vertex is marked but nothing is discovered
// through it, and a hit ends the search at once.
func TestWalkCutAndHit(t *testing.T) {
	// 0 → 1 → 2 → 3, and 0 → 4 → 3.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 4}, {U: 4, V: 3}})
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	cut4 := func(u graph.VertexID) (hit, cut bool) { return u == 3, u == 4 }
	if path, err := FindPath(context.Background(), 5, 0, g.OutNeighbors, cut4); err != nil || !slices.Equal(path, []graph.VertexID{0, 1, 2, 3}) {
		t.Fatalf("path=%v err=%v, want the long way round the cut vertex", path, err)
	}
	if found, err := w.run(context.Background(), 5, 0, g.OutNeighbors, cut4); !found || err != nil {
		t.Fatalf("found=%v err=%v, want the hit found", found, err)
	}
	if !w.seen.Has(4) || slices.Contains(w.queue, 4) {
		t.Fatalf("cut vertex 4: marked=%v queued=%v, want marked and not queued",
			w.seen.Has(4), slices.Contains(w.queue, 4))
	}
	if w.expanded != 3 { // 0, 1 and 2 were read; the hit came off 2's list
		t.Fatalf("expanded %d, want 3", w.expanded)
	}
}

// TestWalkCancel counts, not times: a context cancelled while the walk
// is under way stops it within cancelPoll further expansions, and a
// context already cancelled stops it before the first.
func TestWalkCancel(t *testing.T) {
	const n = 10 * cancelPoll
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	for _, at := range []int{0, 1, cancelPoll - 1, cancelPoll, 3*cancelPoll + 17} {
		ctx, cancel := context.WithCancel(context.Background())
		if at == 0 {
			cancel()
		}
		found, err := w.run(ctx, n, 0, g.OutNeighbors, func(u graph.VertexID) (hit, cut bool) {
			if int(u) == at { // discovered while vertex at-1, the at-th, is being expanded
				cancel()
			}
			return false, false
		})
		if found || err != context.Canceled {
			t.Fatalf("cancel at %d: found=%v err=%v, want context.Canceled", at, found, err)
		}
		if w.expanded < at || w.expanded > at+cancelPoll {
			t.Fatalf("cancel at %d: walk stopped after %d expansions, want within %d of the cancel", at, w.expanded, cancelPoll)
		}
		cancel()
	}
}

// cappedTOL builds g's canonical TOL index by brute force — the
// highest-order vertex on any s→t walk labels both ends — and caps
// every list at its budget highest-order entries, flagging the lists
// the cap cut: a valid Budgeted (entries factual, two uncut lists
// still cover their pair) whose queries exercise every fallback regime.
func cappedTOL(g *graph.Digraph, budget int) *Budgeted {
	n := g.NumVertices()
	ord := order.Compute(g)
	reach := make([][]bool, n)
	for s := range reach {
		reach[s] = make([]bool, n)
		for _, d := range graph.Descendants(g, graph.VertexID(s)) {
			reach[s][d] = true
		}
	}
	in, out := make([][]order.Rank, n), make([][]order.Rank, n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if !reach[s][d] {
				continue
			}
			best := order.Rank(n)
			for w := 0; w < n; w++ {
				if reach[s][w] && reach[w][d] {
					best = min(best, ord.RankOf(graph.VertexID(w)))
				}
			}
			out[s], in[d] = append(out[s], best), append(in[d], best)
		}
	}
	inFull, outFull := make([]bool, n), make([]bool, n)
	capList := func(l []order.Rank) ([]order.Rank, bool) {
		slices.Sort(l)
		l = slices.Compact(l)
		return l[:min(len(l), budget)], len(l) <= budget
	}
	for v := range in {
		in[v], inFull[v] = capList(in[v])
		out[v], outFull[v] = capList(out[v])
	}
	return NewBudgeted(FromLists(ord, in, out), g, budget, inFull, outFull)
}

// tally sums up the fallbacks of one regime: how many ran, the vertices
// they expanded, and that count weighted by the query's position among
// them so two queries cannot trade expansions unseen.
type tally struct{ queries, expanded, weighted int }

// TestFallbackExpansionsGolden pins the work of the guarded fallback,
// query by query: a fixed seeded pair set over capped indexes of a
// fixed random DAG, and for the pairs labels alone do not decide, the
// vertices each regime's traversal expands. The numbers were captured
// from the three hand-written loops this kernel replaced (counting a
// vertex when its neighbor list was read) and must not move unless the
// traversal is meant to change — the bidirectional fallback lowers
// them, a port leaves them equal.
func TestFallbackExpansionsGolden(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(11))
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		edges[i] = graph.Edge{U: min(u, v), V: max(u, v)}
	}
	g := graph.FromEdges(n, edges)
	golden := map[int][3]tally{ // budget → forward-pruned, backward-pruned, unpruned
		1: {{113, 4216, 253712}, {115, 5138, 306833}, {307, 20813, 3089761}},
		2: {{124, 2617, 161046}, {155, 3936, 318675}, {186, 15074, 1390929}},
		4: {{149, 1696, 122153}, {131, 1075, 69976}, {81, 6884, 295328}},
		8: {{122, 718, 43117}, {93, 350, 17267}, {19, 1818, 17859}},
	}
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	for _, budget := range []int{1, 2, 4, 8} {
		b := cappedTOL(g, budget)
		var got [3]tally
		rng := rand.New(rand.NewSource(12))
		for k := 0; k < 600; k++ {
			s, d := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			want := graph.Reachable(g, s, d)
			if ans := b.Reachable(s, d); ans != want {
				t.Fatalf("budget %d: q(%d,%d) = %v, BFS says %v", budget, s, d, ans, want)
			}
			if s == d || b.x.Reachable(s, d) || (b.outFull[s] && b.inFull[d]) {
				continue
			}
			if ans, err := b.fallback(context.Background(), w, s, d); ans != want || err != nil {
				t.Fatalf("budget %d: fallback(%d,%d) = %v, %v; BFS says %v", budget, s, d, ans, err, want)
			}
			regime := &got[2]
			if b.inFull[d] {
				regime = &got[0]
			} else if b.outFull[s] {
				regime = &got[1]
			}
			regime.queries++
			regime.expanded += w.expanded
			regime.weighted += regime.queries * w.expanded
		}
		if got != golden[budget] {
			t.Errorf("budget %d: fallbacks (forward, backward, unpruned) = %v, golden %v", budget, got, golden[budget])
		}
	}
}
