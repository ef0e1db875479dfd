package drl

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/order"
	"repro/internal/tol"
)

// TestSharedBatchRaceStress hammers the shared-memory parallel DRL_b^M
// across worker counts and repetitions. Under -race this is the data
// race detector's workout for parallelRanks and the per-worker scratch
// tables; functionally every build must serialize byte-identically to
// the serial TOL index (not just Equal — the exact on-disk artifact).
func TestSharedBatchRaceStress(t *testing.T) {
	g := randomDigraph(150, 600, 91)
	ord := order.Compute(g)
	want := tol.Build(g, ord)
	var wantBytes bytes.Buffer
	if _, err := want.WriteTo(&wantBytes); err != nil {
		t.Fatal(err)
	}
	reps := 3
	if testing.Short() {
		reps = 1
	}
	for _, p := range []int{1, 2, 4, 8} {
		for rep := 0; rep < reps; rep++ {
			idx, err := BuildBatch(g, ord, DefaultBatchParams(), Options{Workers: p})
			if err != nil {
				t.Fatalf("p=%d rep=%d: %v", p, rep, err)
			}
			var got bytes.Buffer
			if _, err := idx.WriteTo(&got); err != nil {
				t.Fatalf("p=%d rep=%d: %v", p, rep, err)
			}
			if !bytes.Equal(wantBytes.Bytes(), got.Bytes()) {
				t.Fatalf("p=%d rep=%d: index bytes differ from serial TOL", p, rep)
			}
		}
	}
}

// TestImprovedRaceStress is the same workout for the improved method's
// filter/refine phases.
func TestImprovedRaceStress(t *testing.T) {
	g := randomDigraph(120, 480, 92)
	ord := order.Compute(g)
	want := tol.Build(g, ord)
	for _, p := range []int{1, 2, 4, 8} {
		idx, err := BuildImproved(g, ord, Options{Workers: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !want.Equal(idx) {
			t.Fatalf("p=%d: index differs from TOL: %s", p, want.Diff(idx))
		}
	}
}

// TestRankChunk: a range of up to 64 ranks — a hub batch — is cut into
// several chunks per worker instead of handed whole to one, and no
// chunk is empty or larger than 64.
func TestRankChunk(t *testing.T) {
	for _, c := range []struct{ ranks, workers, want int }{
		{1, 2, 1},
		{2, 2, 1},
		{7, 8, 1},
		{64, 2, 8},
		{126, 2, 15},
		{511, 2, 63},
		{512, 2, 64},
		{200_000, 2, 64},
		{200_000, 8, 64},
		{100, 64, 1},
	} {
		if got := rankChunk(c.ranks, c.workers); got != c.want {
			t.Errorf("rankChunk(%d ranks, %d workers) = %d, want %d", c.ranks, c.workers, got, c.want)
		}
	}
}

// TestParallelRanksCoversEachRankOnce, whatever the chunk size works
// out to.
func TestParallelRanksCoversEachRankOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, span := range [][2]order.Rank{{0, 1}, {5, 5}, {3, 67}, {62, 126}, {0, 1000}, {999, 5000}} {
			lo, hi := span[0], span[1]
			visits := make([]atomic.Int32, hi)
			if err := parallelRanks(lo, hi, workers, nil, func(_ int, r order.Rank) { visits[r].Add(1) }); err != nil {
				t.Fatal(err)
			}
			for r := order.Rank(0); r < hi; r++ {
				want := int32(0)
				if r >= lo {
					want = 1
				}
				if got := visits[r].Load(); got != want {
					t.Fatalf("workers %d, [%d,%d): rank %d visited %d times", workers, lo, hi, r, got)
				}
			}
		}
	}
}

// TestParallelRanksCanceled: a cancelled context stops every worker
// and is reported.
func TestParallelRanksCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if err := parallelRanks(0, 5000, workers, ctx, func(int, order.Rank) {}); err != context.Canceled {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
}
