package drl_test

import (
	"testing"

	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/order"
)

var indexSink *label.Index

// BenchmarkBuildBatch times one DRL_b build, the paper's batch
// parameters at Workers 2, of the citation graph of 200,000 vertices,
// degree 4, seed 1 — the graph and configuration the benchmark
// harness's full index is built with. The timer covers the whole of
// BuildBatch: the transpose the labeler derives, the batches and the
// frozen index. Generation and the order are outside it. Compare two
// versions over alternating runs on the same host.
func BenchmarkBuildBatch(b *testing.B) {
	g, err := gen.Generate(gen.Params{Family: gen.Citation, N: 200_000, AvgDegree: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ord := order.Compute(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if indexSink, err = drl.BuildBatch(g, ord, drl.DefaultBatchParams(), drl.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
