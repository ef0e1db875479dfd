package label_test

import (
	"math/rand"
	"testing"

	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// pairSet is one fixed workload of BenchmarkReachable.
type pairSet struct {
	name  string
	pairs []label.Pair
}

// kernelFixture builds BenchmarkReachable's index — the citation graph
// of 100,000 vertices, degree 4, seed 1, so about a third of the vertices
// rank at or above 2¹⁶ and their own ranks are second-tier entries — and
// its fixed pair sets:
//   - uniform: both endpoints drawn uniformly, nearly all unreachable,
//     so most pairs merge both lists to the end, own ranks included;
//   - walk: targets 1–8 random out-steps from the source, reachable
//     pairs that stop at the first common rank;
//   - skewed: an out-list of 48 ranks or more against an in-list of at
//     most two, so the first tiers gallop (this graph's in-lists are all
//     short, so a skewed pair has its long list on the out side).
func kernelFixture(b *testing.B) (*label.Index, []pairSet) {
	b.Helper()
	const n, k = 100_000, 4096
	g, err := gen.Generate(gen.Params{Family: "citation", N: n, AvgDegree: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x, err := drl.BuildBatch(g, order.Compute(g), drl.DefaultBatchParams(), drl.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vertex := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }

	var uniform, walk, skewed []label.Pair
	for len(uniform) < k {
		uniform = append(uniform, label.Pair{S: vertex(), T: vertex()})
	}
	for len(walk) < k {
		s := vertex()
		t := s
		for step := 1 + rng.Intn(8); step > 0 && len(g.OutNeighbors(t)) > 0; step-- {
			out := g.OutNeighbors(t)
			t = out[rng.Intn(len(out))]
		}
		walk = append(walk, label.Pair{S: s, T: t})
	}
	var longOut, shortIn []graph.VertexID
	for v := graph.VertexID(0); int(v) < n; v++ {
		if len(x.OutLabels(v)) >= 48 {
			longOut = append(longOut, v)
		}
		if len(x.InLabels(v)) <= 2 {
			shortIn = append(shortIn, v)
		}
	}
	if len(longOut) == 0 || len(shortIn) == 0 {
		b.Fatalf("no skewed pairs: %d long out-lists, %d short in-lists", len(longOut), len(shortIn))
	}
	for len(skewed) < k {
		skewed = append(skewed, label.Pair{S: longOut[rng.Intn(len(longOut))], T: shortIn[rng.Intn(len(shortIn))]})
	}
	return x, []pairSet{{"uniform", uniform}, {"walk", walk}, {"skewed", skewed}}
}

var kernelSink int

// BenchmarkReachable times the query kernel, one pair an op, over each
// fixed pair set, and ReachableBatch over the uniform set in batches of
// the serving tier's 16 pairs, one batch an op. Compare two versions
// over alternating runs on the same host: the fixture is fixed, the
// timings are not.
func BenchmarkReachable(b *testing.B) {
	x, sets := kernelFixture(b)
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := set.pairs[i%len(set.pairs)]
				if x.Reachable(p.S, p.T) {
					hits++
				}
			}
			kernelSink += hits
		})
	}
	b.Run("batch16-uniform", func(b *testing.B) {
		pairs := sets[0].pairs
		for i := 0; i < b.N; i++ {
			at := 16 * (i % (len(pairs) / 16))
			kernelSink += len(x.ReachableBatch(pairs[at : at+16]))
		}
	})
}
