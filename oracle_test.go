package reachlab

import (
	"context"
	"math/rand"
	"testing"
)

// randomCyclicGraph samples m uniform directed edges over n vertices.
// At these densities the graph always contains directed cycles (and so
// nontrivial SCCs), which is what makes it a worthwhile oracle target:
// cycles exercise the label pruning.
func randomCyclicGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{
			From: VertexID(rng.Intn(n)),
			To:   VertexID(rng.Intn(n)),
		})
	}
	return NewGraph(n, edges)
}

// TestReachableMatchesBFSOracle is the randomized query-equivalence
// property: for seeded random cyclic digraphs, every construction
// method must answer ~1000 query pairs
// exactly as the index-free BFS oracle does.
func TestReachableMatchesBFSOracle(t *testing.T) {
	type variant struct {
		name string
		opts Options
	}
	variants := []variant{
		{"tol", Options{Method: MethodTOL}},
		{"drl", Options{Method: MethodDRL, Workers: 3}},
		{"drl-batch", Options{Method: MethodDRLBatch, Workers: 4}},
		{"drl-shared", Options{Method: MethodDRLShared, Workers: 4}},
	}
	seeds := []int64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const queries = 1000
	for _, seed := range seeds {
		g := randomCyclicGraph(70, 240, seed)
		for _, v := range variants {
			idx, err := Build(context.Background(), g, v.opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			rng := rand.New(rand.NewSource(seed * 1000))
			bad := 0
			for q := 0; q < queries; q++ {
				s := VertexID(rng.Intn(g.NumVertices()))
				d := VertexID(rng.Intn(g.NumVertices()))
				got := idx.Reachable(s, d)
				want := g.ReachableBFS(s, d)
				if got != want {
					if bad < 5 {
						t.Errorf("seed %d %s: Reachable(%d,%d) = %v, BFS oracle says %v",
							seed, v.name, s, d, got, want)
					}
					bad++
				}
			}
			if bad > 0 {
				t.Fatalf("seed %d %s: %d/%d queries disagree with the oracle",
					seed, v.name, bad, queries)
			}
		}
	}
}
