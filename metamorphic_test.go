package reachlab

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"
)

// Metamorphic query properties: relations that must hold between a
// reachability index's own answers, with no oracle in sight. They
// complement oracle_test.go — the BFS oracle checks answers against
// the graph, these check the index against itself, so a bug that
// corrupted both the index and the oracle's graph view identically
// would still trip them.

// randomDAG samples m forward edges (u < v) over n vertices: acyclic
// by construction, so reachability is a strict partial order plus
// reflexivity — exactly the shape the transitivity property needs.
func randomDAG(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		edges = append(edges, Edge{From: VertexID(u), To: VertexID(v)})
	}
	return NewGraph(n, edges)
}

// metamorphicVariants is every construction method, mirroring
// oracle_test.go.
func metamorphicVariants() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"tol", Options{Method: MethodTOL}},
		{"drl-basic", Options{Method: MethodDRLBasic, Workers: 3}},
		{"drl", Options{Method: MethodDRL, Workers: 3}},
		{"drl-batch", Options{Method: MethodDRLBatch, Workers: 4}},
		{"drl-shared", Options{Method: MethodDRLShared, Workers: 4}},
	}
}

// TestMetamorphicQueryProperties: on seeded random DAGs, every build
// method must produce an index that is reflexive (reach(v,v)),
// transitive (reach(s,t) ∧ reach(t,u) ⇒ reach(s,u)), and whose flat
// layout answers every sampled pair exactly like the slice layout
// reconstructed from it — with the re-frozen index byte-identical.
func TestMetamorphicQueryProperties(t *testing.T) {
	seeds := []int64{21, 22, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const n = 60
	for _, seed := range seeds {
		g := randomDAG(n, 150, seed)
		for _, v := range metamorphicVariants() {
			idx, err := Build(context.Background(), g, v.opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}

			// Reflexivity: every vertex reaches itself.
			for w := 0; w < n; w++ {
				if !idx.Reachable(VertexID(w), VertexID(w)) {
					t.Fatalf("seed %d %s: reach(%d,%d) = false", seed, v.name, w, w)
				}
			}

			// Transitivity over sampled triples.
			rng := rand.New(rand.NewSource(seed * 31))
			checked := 0
			for trial := 0; trial < 4000; trial++ {
				s := VertexID(rng.Intn(n))
				mid := VertexID(rng.Intn(n))
				u := VertexID(rng.Intn(n))
				if idx.Reachable(s, mid) && idx.Reachable(mid, u) {
					checked++
					if !idx.Reachable(s, u) {
						t.Fatalf("seed %d %s: reach(%d,%d) and reach(%d,%d) but not reach(%d,%d)",
							seed, v.name, s, mid, mid, u, s, u)
					}
				}
			}
			if checked == 0 {
				t.Fatalf("seed %d %s: no transitive triples sampled; graph too sparse for the property to bite", seed, v.name)
			}

			// Flat vs. slice layout equality on every pair of a sampled
			// row set, plus byte-identical refreeze.
			lists := idx.LabelIndex().Thaw()
			for trial := 0; trial < 2000; trial++ {
				s := VertexID(rng.Intn(n))
				u := VertexID(rng.Intn(n))
				if flat, slice := idx.Reachable(s, u), lists.Reachable(s, u); flat != slice {
					t.Fatalf("seed %d %s: flat(%d,%d)=%v but slice layout says %v",
						seed, v.name, s, u, flat, slice)
				}
			}
			if refrozen := lists.Freeze(); !idx.LabelIndex().Equal(refrozen) {
				t.Fatalf("seed %d %s: refrozen index diverged: %s",
					seed, v.name, idx.LabelIndex().Diff(refrozen))
			}
		}
	}
}

// TestMetamorphicSwapPreservesRefreeze: the byte-identical-to-TOL
// guarantee must survive the serving layer's hot swap. For every
// build method: serialize the index, read it back, Swap it into a
// live QueryHandler, and check that (a) the handler's served answers
// are unchanged pair-for-pair, and (b) the swapped-in index still
// re-freezes byte-identically — i.e. the WriteTo → ReadIndex → Swap
// path neither reorders nor perturbs a single label.
func TestMetamorphicSwapPreservesRefreeze(t *testing.T) {
	g := randomDAG(60, 150, 24)
	rng := rand.New(rand.NewSource(77))
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{S: VertexID(rng.Intn(60)), T: VertexID(rng.Intn(60))}
	}
	for _, v := range metamorphicVariants() {
		idx, err := Build(context.Background(), g, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		h := NewQueryHandlerOpts(idx, ServeOptions{Obs: NewMetricsRegistry(), CachePairs: 128})
		before := h.Index().ReachableBatch(pairs)

		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatalf("%s: serialize: %v", v.name, err)
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", v.name, err)
		}
		if e := h.Swap(loaded); e != 2 {
			t.Fatalf("%s: swap returned epoch %d, want 2", v.name, e)
		}

		after := h.Index().ReachableBatch(pairs)
		for i := range pairs {
			if before[i] != after[i] {
				t.Fatalf("%s: pair (%d,%d) flipped %v → %v across the swap",
					v.name, pairs[i].S, pairs[i].T, before[i], after[i])
			}
		}
		// Refreeze byte-identity on the index now being served.
		served := h.Index().LabelIndex()
		if refrozen := served.Thaw().Freeze(); !served.Equal(refrozen) {
			t.Fatalf("%s: post-swap refreeze diverged: %s", v.name, served.Diff(refrozen))
		}
		// And the swapped-in index is still byte-identical to the
		// original build.
		if !idx.LabelIndex().Equal(served) {
			t.Fatalf("%s: served index diverged from the build: %s",
				v.name, idx.LabelIndex().Diff(served))
		}
	}
}

// TestMetamorphicBatchEquality: ReachableBatch must agree with
// Reachable pair-for-pair on every method.
func TestMetamorphicBatchEquality(t *testing.T) {
	variants := metamorphicVariants()
	g := randomCyclicGraph(80, 260, 5)
	rng := rand.New(rand.NewSource(6))
	pairs := make([]Pair, 700)
	for i := range pairs {
		pairs[i] = Pair{S: VertexID(rng.Intn(80)), T: VertexID(rng.Intn(80))}
	}
	for _, v := range variants {
		idx, err := Build(context.Background(), g, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got := idx.ReachableBatch(pairs)
		for i, p := range pairs {
			if want := idx.Reachable(p.S, p.T); got[i] != want {
				t.Fatalf("%s: batch pair %d (%d,%d) = %v, single query says %v",
					v.name, i, p.S, p.T, got[i], want)
			}
		}
	}
}

// TestMetamorphicDynamicMatchesStaticBuilds: after an arbitrary
// insert/delete sequence, the dynamic maintainer must answer exactly
// like a fresh static build of the mutated graph — for every build
// method. The mutated edge set is tracked independently of the
// maintainer, so a bookkeeping bug in its adjacency cannot hide by
// feeding the static builds its own corrupted graph.
func TestMetamorphicDynamicMatchesStaticBuilds(t *testing.T) {
	seeds := []int64{31, 32}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const n, ops = 60, 40
	for _, seed := range seeds {
		g := randomDAG(n, 120, seed)
		dyn, err := NewDynamicIndex(g)
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[[2]VertexID]bool)
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(VertexID(u)) {
				have[[2]VertexID{VertexID(u), v}] = true
			}
		}
		rng := rand.New(rand.NewSource(seed * 97))
		for k := 0; k < ops; k++ {
			if rng.Intn(2) == 0 || len(have) == 0 {
				// Insert an arbitrary pair — backward edges welcome, a
				// DAG plus cycles is the harder regime.
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u == v {
					continue
				}
				if err := dyn.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
				have[[2]VertexID{u, v}] = true
			} else {
				all := make([][2]VertexID, 0, len(have))
				for e := range have {
					all = append(all, e)
				}
				sort.Slice(all, func(i, j int) bool {
					return all[i][0] < all[j][0] || (all[i][0] == all[j][0] && all[i][1] < all[j][1])
				})
				e := all[rng.Intn(len(all))]
				if err := dyn.DeleteEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
				delete(have, e)
			}
		}
		if s := dyn.UpdateStats(); s.Repairs+s.Rebuilds == 0 {
			t.Fatalf("seed %d: no effective updates applied", seed)
		}
		edges := make([]Edge, 0, len(have))
		for e := range have {
			edges = append(edges, Edge{From: e[0], To: e[1]})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		mg := NewGraph(n, edges)
		for _, v := range metamorphicVariants() {
			idx, err := Build(context.Background(), mg, v.opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			for s := 0; s < n; s++ {
				for u := 0; u < n; u++ {
					if got, want := dyn.Reachable(VertexID(s), VertexID(u)), idx.Reachable(VertexID(s), VertexID(u)); got != want {
						t.Fatalf("seed %d %s: after %d updates reach(%d,%d): dynamic %v, fresh build %v",
							seed, v.name, ops, s, u, got, want)
					}
				}
			}
		}
	}
}

// TestMetamorphicDynamicRoundTrip: inserting a batch of fresh edges
// and then deleting them (in a different order) must return the
// maintainer to byte-identical labels — the canonical-label guarantee
// under the frozen order, not merely answer equivalence.
func TestMetamorphicDynamicRoundTrip(t *testing.T) {
	const n = 60
	g := randomDAG(n, 120, 33)
	dyn, err := NewDynamicIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[[2]VertexID]bool)
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			base[[2]VertexID{VertexID(u), v}] = true
		}
	}
	before := dyn.Snapshot()

	rng := rand.New(rand.NewSource(34))
	var added [][2]VertexID
	for len(added) < 12 {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		// Fresh and reachability-changing, so the mid-sequence labels
		// provably differ and the round-trip assertion has teeth.
		if u == v || base[[2]VertexID{u, v}] || dyn.Reachable(u, v) {
			continue
		}
		if err := dyn.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		added = append(added, [2]VertexID{u, v})
	}
	mid := dyn.Snapshot()
	if before.LabelIndex().Equal(mid.LabelIndex()) {
		t.Fatal("inserts did not change the labels; round-trip check is vacuous")
	}
	rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
	for _, e := range added {
		if err := dyn.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	after := dyn.Snapshot()
	if !before.LabelIndex().Equal(after.LabelIndex()) {
		t.Fatalf("insert-then-delete round trip diverged: %s",
			before.LabelIndex().Diff(after.LabelIndex()))
	}
}
