package reachlab

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Oracle suite for the rich-query primitives: WitnessPath,
// ReachableFrom, and ReachableSetSize verified against BFS ground
// truth over seeded cyclic digraphs and their SCC condensations, across
// every build method and under label budgets down to 1 — the same
// variant grid oracle_test.go runs for boolean queries.

// queryVariants is the build grid every primitive must agree across.
// The -scc variants label the graph's SCC condensation — a DAG, the
// input the condensation ablation labels — instead of the graph.
func queryVariants() []struct {
	name     string
	opts     Options
	condense bool
} {
	return []struct {
		name     string
		opts     Options
		condense bool
	}{
		{"tol", Options{Method: MethodTOL}, false},
		{"drl-basic", Options{Method: MethodDRLBasic, Workers: 2}, false},
		{"drl", Options{Method: MethodDRL, Workers: 2}, false},
		{"drl-batch", Options{Method: MethodDRLBatch, Workers: 2}, false},
		{"drl-shared", Options{Method: MethodDRLShared, Workers: 2}, false},
		{"tol-scc", Options{Method: MethodTOL}, true},
		{"drl-batch-scc", Options{Method: MethodDRLBatch, Workers: 2}, true},
		{"budget-1", Options{LabelBudget: 1}, false},
		{"budget-4", Options{LabelBudget: 4}, false},
		{"budget-2-scc", Options{LabelBudget: 2}, true},
		{"budget-1-shared", Options{LabelBudget: 1, Method: MethodDRLShared, Workers: 3}, false},
		{"budget-1-shared-scc", Options{LabelBudget: 1, Method: MethodDRLShared, Workers: 3}, true},
		{"budget-1-serial", Options{LabelBudget: 1, Workers: 1}, false},
	}
}

// bfsAllDistances computes dist[s][t] = shortest hop count (-1 when
// unreachable) — the path-length oracle. dist[s][s] is 0.
func bfsAllDistances(g *Graph) [][]int {
	n := g.NumVertices()
	dist := make([][]int, n)
	for s := 0; s < n; s++ {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []VertexID{VertexID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.OutNeighbors(v) {
				if row[w] == -1 {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[s] = row
	}
	return dist
}

// edgeSet returns the membership map of the graph's directed edges.
func edgeSet(g *Graph) map[[2]VertexID]bool {
	es := make(map[[2]VertexID]bool)
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			es[[2]VertexID{VertexID(v), w}] = true
		}
	}
	return es
}

// checkWitnessPath asserts one path answer against the oracle: a path
// exists iff the pair is reachable, endpoints match, every hop is a
// real edge, the length equals the BFS shortest distance (the guided
// BFS prunes only dead branches, so it must still find a shortest
// path), and every intermediate w satisfies the label-metamorphic
// property Reachable(s, w) && Reachable(w, t).
func checkWitnessPath(t *testing.T, idx *Index, edges map[[2]VertexID]bool, s, tt VertexID, dist int) {
	t.Helper()
	path, err := idx.WitnessPath(s, tt)
	if err != nil {
		t.Fatalf("WitnessPath(%d,%d): %v", s, tt, err)
	}
	if dist < 0 {
		if path != nil {
			t.Fatalf("WitnessPath(%d,%d) = %v for an unreachable pair", s, tt, path)
		}
		return
	}
	if len(path) != dist+1 {
		t.Fatalf("WitnessPath(%d,%d) has %d hops, BFS shortest is %d: %v", s, tt, len(path)-1, dist, path)
	}
	if path[0] != s || path[len(path)-1] != tt {
		t.Fatalf("WitnessPath(%d,%d) endpoints wrong: %v", s, tt, path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !edges[[2]VertexID{path[i], path[i+1]}] {
			t.Fatalf("WitnessPath(%d,%d) hop %d→%d is not an edge: %v", s, tt, path[i], path[i+1], path)
		}
	}
	for _, w := range path {
		if !idx.Reachable(s, w) || !idx.Reachable(w, tt) {
			t.Fatalf("WitnessPath(%d,%d) vertex %d fails Reachable(s,w)&&Reachable(w,t)", s, tt, w)
		}
	}
}

func TestRichQueriesMatchBFSOracle(t *testing.T) {
	seeds := []int64{21, 22}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		raw := randomCyclicGraph(60, 200, seed)
		cond, _ := graph.Condense(raw.d)
		for _, v := range queryVariants() {
			t.Run(v.name, func(t *testing.T) {
				g := raw
				if v.condense {
					g = &Graph{d: cond}
				}
				n := g.NumVertices()
				dist := bfsAllDistances(g)
				edges := edgeSet(g)
				all := make([]VertexID, n)
				for i := range all {
					all[i] = VertexID(i)
				}
				idx, err := Build(context.Background(), g, v.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !idx.HasGraph() {
					t.Fatal("freshly built index has no graph attached")
				}
				if v.opts.LabelBudget > 0 && v.opts.LabelBudget < 3 && !v.condense {
					// The small budgets exist to exercise the fallback; a
					// graph this dense must overflow somewhere. (Condensation
					// shrinks labels enough that small budgets may fit.)
					st := idx.Stats()
					if st.OverflowedIn+st.OverflowedOut == 0 {
						t.Fatalf("budget %d overflowed nothing — fallback untested", v.opts.LabelBudget)
					}
				}

				for s := 0; s < n; s++ {
					// Full-row sweep == per-pair oracle.
					row := idx.ReachableFrom(VertexID(s), all)
					for tt := 0; tt < n; tt++ {
						if want := dist[s][tt] >= 0; row[tt] != want {
							t.Fatalf("ReachableFrom(%d)[%d] = %v, oracle says %v", s, tt, row[tt], want)
						}
					}
					// Metamorphic: set size == popcount of the full row.
					pop := 0
					for _, ok := range row {
						if ok {
							pop++
						}
					}
					if size := idx.ReachableSetSize(VertexID(s)); size != pop {
						t.Fatalf("ReachableSetSize(%d) = %d, popcount(ReachableFrom) = %d", s, size, pop)
					}
					// Duplicate-bearing subset answers match the full row.
					sub := []VertexID{VertexID((s + 7) % n), VertexID(s), VertexID((s + 7) % n), VertexID((s*3 + 1) % n)}
					got := idx.ReachableFrom(VertexID(s), sub)
					for i, tt := range sub {
						if got[i] != row[tt] {
							t.Fatalf("ReachableFrom(%d) subset[%d]=%d disagrees with full row", s, i, tt)
						}
					}
				}

				// Witness paths over a deterministic pair sample (all n²
				// pairs × 10 variants is needless; the sample covers
				// reachable, unreachable, and s==t).
				for k := 0; k < 400; k++ {
					s := VertexID((k * 13) % n)
					tt := VertexID((k*29 + 7) % n)
					checkWitnessPath(t, idx, edges, s, tt, dist[s][tt])
				}
				if p, err := idx.WitnessPath(5, 5); err != nil || len(p) != 1 || p[0] != 5 {
					t.Fatalf("WitnessPath(5,5) = %v, %v; want [5]", p, err)
				}
			})
		}
	}
}

// TestRichQueriesStableAcrossRefreeze: rebuilding the same graph with
// the same options must reproduce every rich answer bit-for-bit —
// rows, sizes, and the witness paths themselves (the CSR fixes the
// BFS tie-break order, so even path choice is deterministic).
func TestRichQueriesStableAcrossRefreeze(t *testing.T) {
	g := randomCyclicGraph(50, 170, 23)
	n := g.NumVertices()
	all := make([]VertexID, n)
	for i := range all {
		all[i] = VertexID(i)
	}
	for _, opts := range []Options{{}, {LabelBudget: 2}} {
		a, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			if !slices.Equal(a.ReachableFrom(VertexID(s), all), b.ReachableFrom(VertexID(s), all)) {
				t.Fatalf("ReachableFrom(%d) differs across refreeze (opts %+v)", s, opts)
			}
			if a.ReachableSetSize(VertexID(s)) != b.ReachableSetSize(VertexID(s)) {
				t.Fatalf("ReachableSetSize(%d) differs across refreeze (opts %+v)", s, opts)
			}
			pa, erra := a.WitnessPath(VertexID(s), VertexID((s*7+3)%n))
			pb, errb := b.WitnessPath(VertexID(s), VertexID((s*7+3)%n))
			if erra != nil || errb != nil || !slices.Equal(pa, pb) {
				t.Fatalf("WitnessPath(%d,·) differs across refreeze: %v/%v vs %v/%v", s, pa, erra, pb, errb)
			}
		}
	}
}

// TestWitnessPathGraphAttachment: serialization drops the graph, so a
// deserialized index refuses WitnessPath with ErrNoGraph until
// AttachGraph supplies it — and then answers exactly like the
// original. AttachGraph rejects every graph but the indexed one, the
// same vertex count over other edges included, by the fingerprint the
// file carries.
func TestWitnessPathGraphAttachment(t *testing.T) {
	g := randomCyclicGraph(40, 130, 31)
	n := g.NumVertices()
	all := make([]VertexID, n)
	for i := range all {
		all[i] = VertexID(i)
	}
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasGraph() {
		t.Fatal("deserialized index claims a graph")
	}
	if _, err := loaded.WitnessPath(0, 1); err != ErrNoGraph {
		t.Fatalf("WitnessPath without graph: err = %v, want ErrNoGraph", err)
	}
	// Boolean sweeps need no graph and survive the roundtrip.
	for s := 0; s < n; s += 7 {
		if !slices.Equal(loaded.ReachableFrom(VertexID(s), all), idx.ReachableFrom(VertexID(s), all)) {
			t.Fatalf("ReachableFrom(%d) differs after roundtrip", s)
		}
		if loaded.ReachableSetSize(VertexID(s)) != idx.ReachableSetSize(VertexID(s)) {
			t.Fatalf("ReachableSetSize(%d) differs after roundtrip", s)
		}
	}
	if err := loaded.AttachGraph(randomCyclicGraph(41, 130, 31)); err == nil {
		t.Fatal("AttachGraph accepted a graph with the wrong vertex count")
	}
	err = loaded.AttachGraph(randomCyclicGraph(40, 130, 32))
	if err == nil || strings.Count(err.Error(), "N:40 ") != 2 || loaded.HasGraph() {
		t.Fatalf("AttachGraph of 40 vertices over other edges: err = %v, want a refusal naming both fingerprints", err)
	}
	if err := loaded.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		s, tt := VertexID(k%n), VertexID((k*11+2)%n)
		pa, erra := idx.WitnessPath(s, tt)
		pb, errb := loaded.WitnessPath(s, tt)
		if erra != nil || errb != nil || !slices.Equal(pa, pb) {
			t.Fatalf("WitnessPath(%d,%d) differs after attach: %v/%v vs %v/%v", s, tt, pa, erra, pb, errb)
		}
	}
}

// leastAllocated returns the fewest bytes one of ten calls of f
// allocates: the cost of a warm call, whatever sync.Pool let go of in
// between (under the race detector it drops a quarter of its Puts).
func leastAllocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRichQueryMemoryIndependentOfN: a warm witness path and a warm
// set-size count allocate for their answer, not for the graph — no
// 4n-byte parent array per path, no n-entry target and answer lists
// per count. A short chain and a 2-cycle sit in a 65,536-vertex ID
// space; each query must stay under 1 KiB.
func TestRichQueryMemoryIndependentOfN(t *testing.T) {
	g := NewGraph(1<<16, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 3}})
	for _, opts := range []Options{{Method: MethodDRLShared}} {
		idx, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if b := leastAllocated(func() {
			if p, err := idx.WitnessPath(0, 4); err != nil || len(p) != 5 {
				t.Fatalf("WitnessPath(0,4) = %v, %v", p, err)
			}
		}); b > 1024 {
			t.Errorf("%+v: a warm WitnessPath allocates %d bytes over %d vertices", opts, b, g.NumVertices())
		}
		if b := leastAllocated(func() {
			if c := idx.ReachableSetSize(0); c != 5 {
				t.Fatalf("ReachableSetSize(0) = %d, want 5", c)
			}
		}); b > 1024 {
			t.Errorf("%+v: a warm ReachableSetSize allocates %d bytes over %d vertices", opts, b, g.NumVertices())
		}
	}
}
