package drl

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// TestBatchSequenceExample12 reproduces Example 12: n = 11, b = 2,
// k = 2 gives batches of sizes 2, 4, 5.
func TestBatchSequenceExample12(t *testing.T) {
	spans, err := BatchSequence(11, BatchParams{InitialSize: 2, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{2, 4, 5}
	if len(spans) != len(wantSizes) {
		t.Fatalf("got %d batches %v, want sizes %v", len(spans), spans, wantSizes)
	}
	for i, w := range wantSizes {
		if spans[i].Size() != w {
			t.Fatalf("batch %d size = %d, want %d (%v)", i, spans[i].Size(), w, spans)
		}
	}
}

// TestBatchSequenceProperties quick-checks Definition 7: the spans
// disjointly cover [0, n) in decreasing-order blocks, with sizes
// growing by k (except the last).
func TestBatchSequenceProperties(t *testing.T) {
	f := func(nRaw uint16, bRaw uint8, kTenths uint8) bool {
		n := int(nRaw%5000) + 1
		b := int(bRaw%64) + 1
		k := 1 + float64(kTenths%30)/10 // 1.0 .. 3.9
		spans, err := BatchSequence(n, BatchParams{InitialSize: b, Factor: k})
		if err != nil {
			return false
		}
		next := order.Rank(0)
		for i, s := range spans {
			if s.Lo != next || s.Hi <= s.Lo {
				return false
			}
			if i < len(spans)-1 && s.Size() < 1 {
				return false
			}
			next = s.Hi
		}
		return int(next) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSequenceK1(t *testing.T) {
	spans, err := BatchSequence(10, BatchParams{InitialSize: 2, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 {
		t.Fatalf("k=1, b=2 on 10 vertices should give 5 batches, got %v", spans)
	}
	// A factor past 2⁶³ must not wrap: the second batch is what is left,
	// not 998 singletons from a size that converted to a negative int.
	spans, err = BatchSequence(1000, BatchParams{InitialSize: 2, Factor: 1e19})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1] != (Span{Lo: 2, Hi: 1000}) {
		t.Fatalf("k=1e19, b=2 on 1000 vertices should give {0,2} {2,1000}, got %d batches starting %v", len(spans), spans[:min(len(spans), 3)])
	}
}

func TestBatchParamErrors(t *testing.T) {
	for _, p := range []BatchParams{{InitialSize: -1, Factor: 2}, {InitialSize: 0, Factor: 2}, {InitialSize: 2, Factor: 0.5}, {InitialSize: 2}} {
		if _, err := BatchSequence(5, p); err == nil {
			t.Errorf("b = %d, k = %g must fail (b < 1 or k < 1)", p.InitialSize, p.Factor)
		}
	}
	if _, err := BuildBatch(graph.PaperExample(), order.Compute(graph.PaperExample()),
		BatchParams{Factor: 0.1}, Options{}); err == nil {
		t.Error("BuildBatch must reject bad params")
	}
}

// TestBackwardLabelDuality checks Definition 4 on the paper example:
// the backward label sets derived from the index match Table III.
func TestBackwardLabelDuality(t *testing.T) {
	g := graph.PaperExample()
	ord := order.Compute(g)
	idx := tol.Build(g, ord)

	// Derive L⁻_in from the forward index.
	backIn := make(map[graph.VertexID][]graph.VertexID)
	for w := graph.VertexID(0); int(w) < 11; w++ {
		for _, r := range idx.InLabels(w) {
			v := ord.VertexAt(r)
			backIn[v] = append(backIn[v], w)
		}
	}
	want := map[graph.VertexID][]graph.VertexID{
		// Table III, 0-based.
		0:  {0, 4, 6, 7, 8},     // v1: {v1, v5, v7, v8, v9}
		1:  {1, 2, 3, 5, 9, 10}, // v2: {v2, v3, v4, v6, v10, v11}
		7:  {7, 8},              // v8: {v8, v9}
		8:  {8},                 // v9
		9:  {9},                 // v10
		10: {10},                // v11
	}
	for v := graph.VertexID(0); int(v) < 11; v++ {
		got := backIn[v]
		exp := want[v]
		if len(got) != len(exp) {
			t.Fatalf("L⁻_in(v%d) = %v, want %v", v+1, got, exp)
		}
		seen := map[graph.VertexID]bool{}
		for _, w := range got {
			seen[w] = true
		}
		for _, w := range exp {
			if !seen[w] {
				t.Fatalf("L⁻_in(v%d) = %v, want %v", v+1, got, exp)
			}
		}
	}
}

// TestSharedMemoryCancel verifies cancellation of the shared-memory
// builders.
func TestSharedMemoryCancel(t *testing.T) {
	g := randomDigraph(3000, 12000, 5)
	ord := order.Compute(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, build := range map[string]func() (*label.Index, error){
		"naive":    func() (*label.Index, error) { return BuildNaive(g, ord, Options{Ctx: ctx, Workers: 2}) },
		"improved": func() (*label.Index, error) { return BuildImproved(g, ord, Options{Ctx: ctx, Workers: 2}) },
		"batch": func() (*label.Index, error) {
			return BuildBatch(g, ord, DefaultBatchParams(), Options{Ctx: ctx, Workers: 2})
		},
	} {
		if _, err := build(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCoverConstraintRandom checks Definition 3 end to end on random
// cyclic graphs for the batch builder.
func TestCoverConstraintRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(40)
		g := randomDigraph(n, 3*n, int64(trial+50))
		ord := order.Compute(g)
		idx, err := BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for s := graph.VertexID(0); int(s) < n; s++ {
			for d := graph.VertexID(0); int(d) < n; d++ {
				want := graph.Reachable(g, s, d)
				if got := idx.Reachable(s, d); got != want {
					t.Fatalf("trial %d: q(%d,%d) = %v, want %v", trial, s, d, got, want)
				}
			}
		}
	}
}
