package drl

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// builders lists every labeling algorithm that must reproduce TOL's
// index exactly — the paper's central claim.
func builders() map[string]func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
	byWorkers := func(p int) func(*graph.Digraph, *order.Ordering) (*label.Index, error) {
		return func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			idx, _, err := BuildDistributed(g, ord, DistOptions{Workers: p})
			return idx, err
		}
	}
	batchByWorkers := func(p int) func(*graph.Digraph, *order.Ordering) (*label.Index, error) {
		return func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			idx, _, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{Workers: p})
			return idx, err
		}
	}
	basicByWorkers := func(p int) func(*graph.Digraph, *order.Ordering) (*label.Index, error) {
		return func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			idx, _, err := BuildDistributedBasic(g, ord, DistOptions{Workers: p})
			return idx, err
		}
	}
	return map[string]func(*graph.Digraph, *order.Ordering) (*label.Index, error){
		"naive": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildNaive(g, ord, Options{Workers: 2})
		},
		"improved": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildImproved(g, ord, Options{Workers: 2})
		},
		"batch-serial": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 1})
		},
		"batch-parallel": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 4})
		},
		"batch-b1k1.5": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildBatch(g, ord, BatchParams{InitialSize: 1, Factor: 1.5}, Options{Workers: 2})
		},
		"batch-b64": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildBatch(g, ord, BatchParams{InitialSize: 64, Factor: 2}, Options{Workers: 2})
		},
		"dist-drl-p1":      byWorkers(1),
		"dist-drl-p3":      byWorkers(3),
		"dist-drl-p8":      byWorkers(8),
		"dist-drlb-p1":     batchByWorkers(1),
		"dist-drlb-p4":     batchByWorkers(4),
		"dist-drlbasic-p3": basicByWorkers(3),
		"basic":            basicByWorkers(1), // DRL⁻ on one partition
	}
}

// testGraphs returns the adversarial fixtures plus seeded random
// graphs, both cyclic and acyclic.
func testGraphs() map[string]*graph.Digraph {
	gs := map[string]*graph.Digraph{
		"paper-example": graph.PaperExample(),
		"empty":         graph.FromEdges(0, nil),
		"singleton":     graph.FromEdges(1, nil),
		"self-loop":     graph.FromEdges(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}}),
		"two-cycle":     graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}),
		"triangle":      graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}),
		"path": graph.FromEdges(6, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		}),
		"star-out": graph.FromEdges(7, []graph.Edge{
			{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6},
		}),
		"diamond": graph.FromEdges(4, []graph.Edge{
			{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		}),
		"disconnected": graph.FromEdges(6, []graph.Edge{
			{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 5, V: 4},
		}),
		"bowtie": graph.FromEdges(7, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // left cycle
			{U: 2, V: 3},                             // bridge
			{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, // right cycle
			{U: 5, V: 6},
		}),
	}
	for _, seed := range []int64{1, 2, 3} {
		gs[fmt.Sprintf("rand-dag-%d", seed)] = randomDAG(40, 90, seed)
		gs[fmt.Sprintf("rand-cyclic-%d", seed)] = randomDigraph(40, 110, seed)
	}
	gs["rand-dense"] = randomDigraph(25, 180, 7)
	gs["rand-sparse"] = randomDigraph(80, 90, 9)
	return gs
}

func randomDAG(n, m int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	return graph.FromEdges(n, edges)
}

func randomDigraph(n, m int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			U: graph.VertexID(rng.Intn(n)),
			V: graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.FromEdges(n, edges)
}

// TestIndexEqualsTOL is the paper's central claim: every variant, at
// every parallelism level, produces exactly TOL's index.
func TestIndexEqualsTOL(t *testing.T) {
	for gname, g := range testGraphs() {
		ord := order.Compute(g)
		want := tol.Build(g, ord)
		for bname, build := range builders() {
			t.Run(gname+"/"+bname, func(t *testing.T) {
				got, err := build(g, ord)
				if err != nil {
					t.Fatalf("build failed: %v", err)
				}
				if !want.Equal(got) {
					t.Fatalf("index differs from TOL: %s", want.Diff(got))
				}
			})
		}
	}
}

// TestIndexFileRoundTrip: every fixture's index comes back Equal from
// its file, under the degree order and a shuffled one.
func TestIndexFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gname, g := range testGraphs() {
		ranks := make([]order.Rank, g.NumVertices())
		for v, r := range rng.Perm(len(ranks)) {
			ranks[v] = order.Rank(r)
		}
		for oname, ord := range map[string]*order.Ordering{"degree": order.Compute(g), "shuffled": order.FromRanks(ranks)} {
			want := tol.Build(g, ord)
			var file bytes.Buffer
			if _, err := want.WriteTo(&file); err != nil {
				t.Fatalf("%s/%s: %v", gname, oname, err)
			}
			got, err := label.Read(&file)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, oname, err)
			}
			if !want.Equal(got) {
				t.Errorf("%s/%s: the index read back differs: %s", gname, oname, want.Diff(got))
			}
		}
	}
}

// TestIndexEqualsTOLAdversarialOrders repeats the equivalence check
// under random (non-degree) total orders, which exercises order-
// dependent corner cases the degree order never hits.
func TestIndexEqualsTOLAdversarialOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		g := randomDigraph(30, 80, int64(100+trial))
		n := g.NumVertices()
		perm := rng.Perm(n)
		ranks := make([]order.Rank, n)
		for v, r := range perm {
			ranks[v] = order.Rank(r)
		}
		ord := order.FromRanks(ranks)
		want := tol.Build(g, ord)
		for bname, build := range builders() {
			got, err := build(g, ord)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, bname, err)
			}
			if !want.Equal(got) {
				t.Fatalf("trial %d %s: index differs: %s", trial, bname, want.Diff(got))
			}
		}
	}
}

// TestOrderStrategiesYieldTOL: any total order yields TOL's index under
// that order, and so a correct one; the ordering heuristic moves only
// the size, and the paper's degree product beats a random order. (The
// ablation-order experiment measures how much.)
func TestOrderStrategiesYieldTOL(t *testing.T) {
	g, err := gen.Generate(gen.Params{Family: gen.Web, N: 400, AvgDegree: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	entries := map[order.Strategy]int64{}
	for _, strat := range order.Strategies() {
		ord, err := order.ComputeStrategy(g, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got, err := BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if want := tol.Build(g, ord); !want.Equal(got) {
			t.Fatalf("%s: BuildBatch differs from TOL: %s", strat, want.Diff(got))
		}
		for s := graph.VertexID(0); s < 60; s++ {
			for d := graph.VertexID(340); d < 400; d++ {
				if got.Reachable(s, d) != graph.Reachable(g, s, d) {
					t.Fatalf("%s: wrong answer for (%d,%d)", strat, s, d)
				}
			}
		}
		entries[strat] = got.Entries()
	}
	if dp, rnd := entries[order.StrategyDegreeProduct], entries[order.StrategyRandom]; dp > rnd {
		t.Errorf("degree-product (%d entries) should beat random order (%d entries)", dp, rnd)
	}
	if _, err := order.ComputeStrategy(g, "nope"); err == nil {
		t.Error("an unknown order strategy should be refused")
	}
}

// TestDistributedMetricsSane checks that a distributed run on several
// workers reports remote traffic and supersteps.
func TestDistributedMetricsSane(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	_, met, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{
		Workers: 4,
		Net:     netsim.Commodity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps == 0 || met.Messages == 0 {
		t.Errorf("metrics look empty: %+v", met)
	}
	if met.BytesRemote == 0 {
		t.Errorf("expected remote bytes with 4 workers: %+v", met)
	}
	if met.SimNetTime == 0 {
		t.Errorf("expected simulated network time with commodity model")
	}
}

// TestDirectionSymmetry is the metamorphic identity the direction
// tables rely on: L_out on G is L_in on G̅. Under one ordering every
// builder's index of g.Inverse() has L_in and L_out exchanged at every
// vertex, and the vertex-centric builds move exactly the same traffic
// on G and G̅ — a slip in either direction's half shows here.
func TestDirectionSymmetry(t *testing.T) {
	type build func(*graph.Digraph, *order.Ordering) (*label.Index, pregel.Metrics, error)
	shared := func(f func(*graph.Digraph, *order.Ordering) (*label.Index, error)) build {
		return func(g *graph.Digraph, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
			idx, err := f(g, ord)
			return idx, pregel.Metrics{}, err
		}
	}
	opt := DistOptions{Workers: 3}
	builds := map[string]build{
		"tol": shared(func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) { return tol.Build(g, ord), nil }),
		"batch": shared(func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
			return BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 2})
		}),
		"dist-drl": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
			return BuildDistributed(g, ord, opt)
		},
		"dist-drlb": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
			return BuildDistributedBatch(g, ord, DefaultBatchParams(), opt)
		},
		"dist-drlbasic": func(g *graph.Digraph, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
			return BuildDistributedBasic(g, ord, opt)
		},
	}
	for gname, g := range map[string]*graph.Digraph{"paper-example": graph.PaperExample(), "rand-cyclic": randomDigraph(150, 450, 5)} {
		ord := order.Compute(g)
		for bname, b := range builds {
			idx, met, err := b(g, ord)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, bname, err)
			}
			inv, metInv, err := b(g.Inverse(), ord)
			if err != nil {
				t.Fatalf("%s/%s on the inverse: %v", gname, bname, err)
			}
			for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
				if !slices.Equal(idx.InLabels(v), inv.OutLabels(v)) || !slices.Equal(idx.OutLabels(v), inv.InLabels(v)) {
					t.Fatalf("%s/%s: vertex %d: G has L_in %v L_out %v, G̅ has L_in %v L_out %v", gname, bname, v,
						idx.InLabels(v), idx.OutLabels(v), inv.InLabels(v), inv.OutLabels(v))
				}
			}
			if met.Supersteps != metInv.Supersteps || met.Messages != metInv.Messages ||
				met.BytesRemote != metInv.BytesRemote || met.BcastBytes != metInv.BcastBytes {
				t.Errorf("%s/%s: traffic differs between G and G̅:\n%+v\n%+v", gname, bname, met, metInv)
			}
		}
	}
}

// TestForwardFromBackward: BuildNaive's backward label sets become the
// forward lists FromLists takes — each ascending, whatever order a
// backward set lists its vertices in.
func TestForwardFromBackward(t *testing.T) {
	// Rank 0 labels vertices {2, 0}, rank 1 labels {0}, rank 2 nothing.
	back := [][]graph.VertexID{{2, 0}, {0}, {}}
	want := [][]order.Rank{{0, 1}, nil, {0}}
	if got := forward(back); !slices.EqualFunc(got, want, slices.Equal[[]order.Rank]) {
		t.Fatalf("forward(%v) = %v, want %v", back, got, want)
	}
}
