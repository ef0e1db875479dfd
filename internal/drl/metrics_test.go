package drl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/order"
)

// TestDistributedDeterministic: repeated runs of the same
// configuration produce identical indexes and identical message
// counts (the engine's exchange is fully deterministic).
func TestDistributedDeterministic(t *testing.T) {
	g := randomDigraph(80, 240, 61)
	ord := order.Compute(g)
	first, met1, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	second, met2, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Fatal("nondeterministic index")
	}
	if met1.Messages != met2.Messages || met1.Supersteps != met2.Supersteps ||
		met1.BytesRemote != met2.BytesRemote {
		t.Errorf("nondeterministic metrics: %+v vs %+v", met1, met2)
	}
}

// TestCommunicationOrdering: the paper's Fig. 5 shape at small scale —
// DRL_b moves fewer bytes than DRL, which moves fewer than DRL⁻ (the
// DES floods dominate).
func TestCommunicationOrdering(t *testing.T) {
	g := randomDigraph(300, 1200, 62)
	ord := order.Compute(g)
	opt := DistOptions{Workers: 4, Net: netsim.Zero()}
	_, basic, err := BuildDistributedBasic(g, ord, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, improved, err := BuildDistributed(g, ord, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if batch.BytesRemote >= improved.BytesRemote {
		t.Errorf("DRL_b (%d B) should move less than DRL (%d B)",
			batch.BytesRemote, improved.BytesRemote)
	}
	if improved.BytesRemote >= basic.BytesRemote {
		t.Errorf("DRL (%d B) should move less than DRL⁻ (%d B)",
			improved.BytesRemote, basic.BytesRemote)
	}
}

// TestWorkerCountIndependence: the index is identical for every P.
func TestWorkerCountIndependence(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	var base *struct{ entries int64 }
	for _, p := range []int{1, 2, 5, 7, 11, 16} {
		idx, _, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{Workers: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if base == nil {
			base = &struct{ entries int64 }{idx.Entries()}
		} else if base.entries != idx.Entries() {
			t.Fatalf("p=%d: entry count changed", p)
		}
	}
}

// TestObsCountersMatchMetrics: the observability counters must agree
// exactly with the engine's own Metrics — the deterministic message
// and byte counts are the acceptance bar for the /metrics pipeline.
func TestObsCountersMatchMetrics(t *testing.T) {
	g := randomDigraph(80, 240, 63)
	ord := order.Compute(g)

	const workers = 4
	reg := obs.New()
	_, met, err := BuildDistributed(g, ord, DistOptions{Workers: workers, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("pregel_messages_total"); got != met.Messages {
		t.Errorf("pregel_messages_total = %d, metrics say %d", got, met.Messages)
	}
	if got := reg.CounterValue("pregel_supersteps_total"); got != int64(met.Supersteps) {
		t.Errorf("pregel_supersteps_total = %d, metrics say %d", got, met.Supersteps)
	}
	if got := reg.CounterValue("pregel_bytes_local_total"); got != met.BytesLocal {
		t.Errorf("pregel_bytes_local_total = %d, metrics say %d", got, met.BytesLocal)
	}
	if got := reg.CounterValue("pregel_bcast_bytes_total"); got != met.BcastBytes {
		t.Errorf("pregel_bcast_bytes_total = %d, metrics say %d", got, met.BcastBytes)
	}
	// met.BytesRemote additionally charges the final index gather,
	// which happens outside the runs.
	remote := reg.CounterValue("pregel_bytes_remote_total")
	if remote <= 0 || remote > met.BytesRemote {
		t.Errorf("pregel_bytes_remote_total = %d, want in (0, %d]", remote, met.BytesRemote)
	}

	// The Prometheus document carries the same numbers verbatim.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, line := range []string{
		fmt.Sprintf("pregel_messages_total %d", met.Messages),
		fmt.Sprintf("pregel_supersteps_total %d", met.Supersteps),
		fmt.Sprintf("pregel_bytes_local_total %d", met.BytesLocal),
	} {
		if !strings.Contains(doc, line) {
			t.Errorf("/metrics document missing %q", line)
		}
	}

	// The superstep trace covers every superstep with a row per
	// worker, and its message sum reproduces the counter.
	steps := reg.Trace("pregel").Steps()
	if len(steps) != met.Supersteps {
		t.Fatalf("trace has %d rows, want %d", len(steps), met.Supersteps)
	}
	var traced int64
	for _, s := range steps {
		traced += s.Messages
		if len(s.Workers) != workers {
			t.Fatalf("superstep %d traces %d workers, want %d", s.Step, len(s.Workers), workers)
		}
	}
	if traced != met.Messages {
		t.Errorf("trace messages sum to %d, metrics say %d", traced, met.Messages)
	}
}

// TestObsBatchCounters: the DRL_b build path reports one batch per
// span and accumulates engine counters across the per-batch runs.
func TestObsBatchCounters(t *testing.T) {
	g := randomDigraph(80, 240, 64)
	ord := order.Compute(g)
	spans, err := BatchSequence(g.NumVertices(), DefaultBatchParams())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	_, met, err := BuildDistributedBatch(g, ord, DefaultBatchParams(), DistOptions{Workers: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("drl_batches_total"); got != int64(len(spans)) {
		t.Errorf("drl_batches_total = %d, want %d", got, len(spans))
	}
	if got := reg.CounterValue("pregel_messages_total"); got != met.Messages {
		t.Errorf("pregel_messages_total = %d, metrics say %d", got, met.Messages)
	}
	if got := reg.CounterValue("pregel_supersteps_total"); got != int64(met.Supersteps) {
		t.Errorf("pregel_supersteps_total = %d, metrics say %d", got, met.Supersteps)
	}

	// Shared-memory DRL_b^M reports the same batch structure plus its
	// trimmed-BFS activity.
	regM := obs.New()
	if _, err := BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 4, Obs: regM}); err != nil {
		t.Fatal(err)
	}
	if got := regM.CounterValue("drl_batches_total"); got != int64(len(spans)) {
		t.Errorf("shared drl_batches_total = %d, want %d", got, len(spans))
	}
	nBFS := regM.CounterValue("drl_trimmed_bfs_total")
	if nBFS <= 0 || nBFS > 2*int64(g.NumVertices()) {
		t.Errorf("drl_trimmed_bfs_total = %d, want in (0, %d]", nBFS, 2*g.NumVertices())
	}
	if regM.CounterValue("drl_refine_rounds_total") != int64(len(spans)) {
		t.Errorf("drl_refine_rounds_total = %d, want %d",
			regM.CounterValue("drl_refine_rounds_total"), len(spans))
	}
}

// TestDistBatchParamsRejected: invalid batch parameters surface as
// errors from the distributed builder too.
func TestDistBatchParamsRejected(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	if _, _, err := BuildDistributedBatch(g, ord, BatchParams{Factor: 0.2}, DistOptions{Workers: 2}); err == nil {
		t.Error("expected error for factor < 1")
	}
}
