package label

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// TestPatchedMatchesFold: an index patched with random list edits and
// the flat index its Fold gives are the same index to every operation
// — each query shape, each size accessor, Equal, Thaw, and WriteTo byte
// for byte — and the base under the patch is left as it was.
func TestPatchedMatchesFold(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{11, 12, 13} {
		const n = 70 // over one bitset word
		base := randomIndex(t, n, seed)
		baseBytes := writeBytes(t, base)
		rng := rand.New(rand.NewSource(seed))
		in, out := graph.NewMutableOverlay[order.Rank](n), graph.NewMutableOverlay[order.Rank](n)
		toggle := func(m *graph.MutableOverlay[order.Rank], flat func(graph.VertexID) []order.Rank) {
			v, r := graph.VertexID(rng.Intn(n)), order.Rank(rng.Intn(n))
			cur, ok := m.Get(v)
			if !ok {
				cur = flat(v)
			}
			if i, has := slices.BinarySearch(cur, r); has {
				m.Remove(v, cur, i)
			} else {
				m.Insert(v, cur, i, r)
			}
		}
		for k := 0; k < 60; k++ {
			toggle(in, base.InLabels)
			if k%3 == 0 { // fewer out-edits: some vertices are patched on one side only
				toggle(out, base.OutLabels)
			}
		}
		px := base.Patched(in.Freeze(base.InLabels), out.Freeze(base.OutLabels))
		fx := px.Fold()
		if px == base || fx == px || fx.patch != nil {
			t.Fatalf("seed %d: Patched or Fold returned its receiver", seed)
		}

		if !px.Equal(fx) || !fx.Equal(px) || px.Equal(base) {
			t.Fatalf("seed %d: Equal: patched vs fold %q, vs base equal=%v", seed, px.Diff(fx), px.Equal(base))
		}
		if !px.Thaw().Freeze().Equal(fx) {
			t.Fatalf("seed %d: Thaw of the patched index is not its fold", seed)
		}
		if px.Entries() != fx.Entries() || px.SizeBytes() != fx.SizeBytes() ||
			px.MaxLabelSize() != fx.MaxLabelSize() || px.AvgLabelSize() != fx.AvgLabelSize() {
			t.Fatalf("seed %d: sizes differ: entries %d vs %d, max %d vs %d", seed,
				px.Entries(), fx.Entries(), px.MaxLabelSize(), fx.MaxLabelSize())
		}
		if !bytes.Equal(writeBytes(t, px), writeBytes(t, fx)) {
			t.Fatalf("seed %d: WriteTo of the patched index differs from its fold's", seed)
		}

		all := make([]graph.VertexID, n)
		var pairs []Pair
		for v := range all {
			all[v] = graph.VertexID(v)
			for k := 0; k < 8; k++ {
				pairs = append(pairs, Pair{S: graph.VertexID(v), T: graph.VertexID(rng.Intn(n))})
			}
		}
		if !slices.Equal(px.ReachableBatch(pairs), fx.ReachableBatch(pairs)) {
			t.Fatalf("seed %d: ReachableBatch differs", seed)
		}
		for s := graph.VertexID(0); s < n; s++ {
			row, _ := fx.ReachableFrom(ctx, s, all)
			prow, _ := px.ReachableFrom(ctx, s, all)
			size, _ := fx.ReachableSetSize(ctx, s)
			psize, _ := px.ReachableSetSize(ctx, s)
			if !slices.Equal(prow, row) || psize != size {
				t.Fatalf("seed %d: sweep from %d differs", seed, s)
			}
			for u, want := range row {
				if px.Reachable(s, graph.VertexID(u)) != want {
					t.Fatalf("seed %d: Reachable(%d,%d) = %v on the patched index", seed, s, u, !want)
				}
			}
		}
		if !bytes.Equal(writeBytes(t, base), baseBytes) {
			t.Fatalf("seed %d: patching changed the base", seed)
		}
	}
	base := randomIndex(t, 10, 1)
	if base.Patched(nil, nil) != base || base.Fold() != base {
		t.Fatal("an empty patch or a fold of a flat index made a new index")
	}
}

func writeBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
