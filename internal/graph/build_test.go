package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// fromEdgesSort is the historical builder: copy the edge slice, one
// global (U, V) sort, dedup, then counting placement. It is the
// reference the counting build is pinned byte-identical to, and holds
// both directions, as a graph read from a v2 file does: its Inverse()
// is the reference in-CSR.
func fromEdgesSort(n int, edges []Edge) *Digraph {
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	dedup := sorted[:0]
	for i, e := range sorted {
		if i > 0 && e == sorted[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	sorted = dedup
	m := len(sorted)

	outOff := make([]int64, n+1)
	outAdj := make([]VertexID, m)
	inOff := make([]int64, n+1)
	inAdj := make([]VertexID, m)
	for _, e := range sorted {
		outOff[e.U+1]++
		inOff[e.V+1]++
	}
	for i := 1; i <= n; i++ {
		outOff[i] += outOff[i-1]
		inOff[i] += inOff[i-1]
	}
	// Out adjacency is already in (U, V) order.
	for i, e := range sorted {
		outAdj[i] = e.V
	}
	// In adjacency: counting placement, then per-vertex sort.
	cursor := make([]int64, n)
	copy(cursor, inOff[:n])
	for _, e := range sorted {
		inAdj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		seg := inAdj[inOff[v]:inOff[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return newDigraph(int32(n), outOff, outAdj, inOff, inAdj)
}

// randomTestEdges produces a messy edge list: duplicates, self-loops,
// a degree skew toward low vertex IDs, and (for spice) a few isolated
// vertices at the top of the ID range.
func randomTestEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if rng.Float64() < 0.3 { // skew: hubs at low IDs
			v = VertexID(rng.Intn(n/4 + 1))
		}
		if rng.Float64() < 0.05 {
			v = u // self-loop
		}
		edges = append(edges, Edge{U: u, V: v})
		if rng.Float64() < 0.1 { // exact duplicate
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

// assertIdenticalCSR requires got's raw CSR arrays, one direction, to
// match want's exactly — the byte-identical guarantee the counting
// builder is pinned to, one level stricter than assertSameGraph's
// neighbor-list comparison. Called on two Inverse() results it
// compares the in-direction.
func assertIdenticalCSR(t *testing.T, want, got *Digraph) {
	t.Helper()
	if want.n != got.n || want.m != got.m {
		t.Fatalf("shape differs: n=%d/%d m=%d/%d", want.n, got.n, want.m, got.m)
	}
	if i := firstDiff(want.outOff, got.outOff); i >= 0 {
		t.Fatalf("offsets differ at %d (lengths %d, %d)", i, len(got.outOff), len(want.outOff))
	}
	if i := firstDiff(want.outAdj, got.outAdj); i >= 0 {
		t.Fatalf("adjacency differs at %d (lengths %d, %d)", i, len(got.outAdj), len(want.outAdj))
	}
}

// firstDiff returns the first index at which a and b differ, or -1 if
// they are equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// hubTestEdges returns the edges of a star over n vertices, every
// vertex pointing at hub (reverse: the hub pointing at every vertex),
// listed from the highest source down so that the stream order is the
// opposite of the sorted one.
func hubTestEdges(n int, hub VertexID, reverse bool) []Edge {
	edges := make([]Edge, 0, n)
	for v := VertexID(n - 1); v >= 0; v-- {
		e := Edge{U: v, V: hub}
		if reverse {
			e = Edge{U: hub, V: v}
		}
		edges = append(edges, e)
	}
	return edges
}

func TestParallelBuilderMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"n1_m0", 1, randomTestEdges(1, 0, 1)},
		{"n1_m5", 1, randomTestEdges(1, 5, 2)}, // only self-loops possible
		{"n7_m3", 7, randomTestEdges(7, 3, 3)},
		{"n50_m400", 50, randomTestEdges(50, 400, 4)},
		{"n257_m2000", 257, randomTestEdges(257, 2000, 5)},
		{"n1000_m50", 1000, randomTestEdges(1000, 50, 6)},     // sparse: most vertices isolated
		{"n300_m9000", 300, randomTestEdges(300, 9000, 7)},    // dense
		{"n4096_m4096", 4096, randomTestEdges(4096, 4096, 8)}, // around one grain
		// The cases where the order across worker ranges decides whether
		// a bucket comes out sorted: one in-bucket holding every source,
		// one out-bucket holding every target, and a hub in the middle of
		// the ID range whose in-bucket every worker's range fills, beside
		// random edges that balance the ranges.
		{"star", 1000, hubTestEdges(1000, 0, false)},
		{"reverse-star", 1000, hubTestEdges(1000, 0, true)},
		{"hub-from-every-range", 2000, append(hubTestEdges(2000, 1000, false), randomTestEdges(2000, 6000, 9)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fromEdgesSort(tc.n, tc.edges)
			for _, workers := range []int{1, 2, 3, 4, 8} {
				got, err := fromEdgeStream(tc.n, StreamOfEdges(tc.edges), workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				assertIdenticalCSR(t, want, got)
				assertIdenticalCSR(t, want.Inverse(), got.transpose(workers))
			}
			g := FromEdges(tc.n, tc.edges)
			assertIdenticalCSR(t, want, g)
			assertIdenticalCSR(t, want.Inverse(), g.Inverse())
		})
	}
}

func TestParallelBuilderNoEdges(t *testing.T) {
	want := fromEdgesSort(10, nil)
	assertIdenticalCSR(t, want, FromEdges(10, nil))
	streamed, err := FromEdgeStream(10, StreamOfEdges(nil))
	if err != nil {
		t.Fatalf("FromEdgeStream: %v", err)
	}
	assertIdenticalCSR(t, want, streamed)
	assertIdenticalCSR(t, want.Inverse(), streamed.Inverse())
}

func TestParallelBuilderPanicsOutOfRange(t *testing.T) {
	for _, bad := range []Edge{{U: 0, V: 5}, {U: -1, V: 0}, {U: 2, V: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %v: expected panic", bad)
				}
			}()
			FromEdges(2, []Edge{{U: 0, V: 1}, bad})
		}()
	}
}

func TestFromEdgeStreamRejectsBadEdges(t *testing.T) {
	// The streaming builder reports invalid edges as errors, never
	// panics: a stream source is typically external input.
	_, err := FromEdgeStream(2, StreamOfEdges([]Edge{{U: 0, V: 5}}))
	if err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := FromEdgeStream(-1, StreamOfEdges(nil)); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
}

func TestFromEdgeStreamDetectsDivergence(t *testing.T) {
	// A stream that emits different edges on replay must be caught,
	// not silently build a wrong graph.
	pass := 0
	diverging := func(emit func(Edge) error) error {
		pass++
		if pass == 1 {
			return errorsJoin(emit(Edge{U: 0, V: 1}), emit(Edge{U: 1, V: 2}))
		}
		return errorsJoin(emit(Edge{U: 0, V: 1}), emit(Edge{U: 0, V: 2}))
	}
	if _, err := FromEdgeStream(3, diverging); err == nil {
		t.Fatal("expected replay-divergence error")
	}

	pass = 0
	growing := func(emit func(Edge) error) error {
		pass++
		if err := emit(Edge{U: 0, V: 1}); err != nil {
			return err
		}
		if pass > 1 { // extra edge on replay
			return emit(Edge{U: 1, V: 2})
		}
		return nil
	}
	if _, err := FromEdgeStream(3, growing); err == nil {
		t.Fatal("expected replay-divergence error for growing stream")
	}

	// Same shape, but the replay names a vertex outside [0, n): an
	// error, not an index panic deep in the build.
	pass = 0
	escaping := func(emit func(Edge) error) error {
		pass++
		if pass == 1 {
			return emit(Edge{U: 0, V: 1})
		}
		return emit(Edge{U: 0, V: 7})
	}
	if _, err := FromEdgeStream(3, escaping); err == nil {
		t.Fatal("expected replay-divergence error for an out-of-range replay")
	}
}

func TestFromEdgeStreamPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	failing := func(emit func(Edge) error) error { return boom }
	if _, err := FromEdgeStream(3, failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func errorsJoin(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
