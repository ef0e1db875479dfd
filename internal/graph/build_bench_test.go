package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var buildSink *graph.Digraph

// BenchmarkFromEdges times one CSR build, the out-direction a graph
// holds, from the edge slice of a generated 200,000-vertex graph of
// average degree 4: citation (a DAG, in-degrees skewed toward landmark
// papers) and social (reciprocal edges, one giant SCC). Generation is
// outside the timer. Compare two versions over alternating runs on the
// same host.
func BenchmarkFromEdges(b *testing.B) {
	for _, family := range []gen.Family{gen.Citation, gen.Social} {
		p := gen.Params{Family: family, N: 200_000, AvgDegree: 4, Seed: 1}
		edges, err := gen.Edges(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(family), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = graph.FromEdges(p.N, edges)
			}
		})
	}
}
