package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	g := FromEdges(3, []Edge{
		{U: 0, V: 1},
		{U: 1, V: 2},
		{U: 0, V: 1}, // duplicate
		{U: 2, V: 2}, // self-loop
	})
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3 (dedup)", g.NumEdges())
	}
	if got := g.OutNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("OutNeighbors(0) = %v", got)
	}
	// In-neighbors are the transpose's out-neighbors.
	inv := g.Inverse()
	if got := inv.OutNeighbors(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("in-neighbors of 2 = %v", got)
	}
	if g.OutDegree(2) != 1 || inv.OutDegree(0) != 0 {
		t.Errorf("degrees wrong: out(2)=%d in(0)=%d", g.OutDegree(2), inv.OutDegree(0))
	}
}

func TestFromEdgesKeepsIsolatedVertices(t *testing.T) {
	g := FromEdges(10, []Edge{{U: 0, V: 1}})
	if g.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10", g.NumVertices())
	}
	if g.OutDegree(9) != 0 {
		t.Errorf("vertex 9 should be isolated")
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	FromEdges(2, []Edge{{U: 0, V: 5}})
}

func TestInverseIsInvolution(t *testing.T) {
	g := PaperExample()
	inv := g.Inverse()
	if inv.Inverse() != g {
		t.Fatal("Inverse().Inverse() should return the original")
	}
	// Every edge u → w of g is w → u in the inverse, and nothing else is.
	if inv.NumEdges() != g.NumEdges() {
		t.Fatalf("inverse has %d edges, want %d", inv.NumEdges(), g.NumEdges())
	}
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, w := range g.OutNeighbors(u) {
			if !slices.Contains(inv.OutNeighbors(w), u) {
				t.Fatalf("edge v%d→v%d missing from the inverse", u, w)
			}
		}
	}
}

// csrBytes is the resident size of g's CSR arrays, plus its held
// transpose's where it holds one.
func csrBytes(g *Digraph) int64 {
	b := 8*int64(cap(g.outOff)) + 4*int64(cap(g.outAdj))
	if inv := g.inverse; inv != nil {
		b += 8*int64(cap(inv.outOff)) + 4*int64(cap(inv.outAdj))
	}
	return b
}

func TestInverse(t *testing.T) {
	// A graph built in memory is its out-CSR alone: 8(n+1) + 4m bytes.
	const n = 1000
	edges := randomTestEdges(n, 5000, 11)
	streamed, err := FromEdgeStream(n, StreamOfEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Digraph{"FromEdges": FromEdges(n, edges), "FromEdgeStream": streamed} {
		if g.inverse != nil {
			t.Errorf("%s: the graph holds an in-direction", name)
		}
		if got, want := csrBytes(g), 8*int64(n+1)+4*g.NumEdges(); got != want || got != 27_816 {
			t.Errorf("%s: resident CSR is %d B, want 8(n+1) + 4m = %d B = 27,816 B", name, got, want)
		}
	}

	// Inverse() is the reference transpose, owned by the caller, and
	// its own inverse is the graph it came from.
	cases := map[string]struct {
		n     int
		edges []Edge
	}{
		"star":                 {1000, hubTestEdges(1000, 0, false)},
		"reverse-star":         {1000, hubTestEdges(1000, 0, true)},
		"hub-from-every-range": {2000, append(hubTestEdges(2000, 1000, false), randomTestEdges(2000, 6000, 9)...)},
	}
	for i, seed := range edgeListSeeds {
		if g, err := ReadEdgeList(strings.NewReader(seed)); err == nil {
			cases[fmt.Sprintf("fuzz-seed-%d", i)] = struct {
				n     int
				edges []Edge
			}{g.NumVertices(), g.Edges(nil)}
		}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			g := FromEdges(tc.n, tc.edges)
			inv := g.Inverse()
			assertIdenticalCSR(t, fromEdgesSort(tc.n, tc.edges).Inverse(), inv)
			if g.inverse != nil {
				t.Error("Inverse() left its transpose on the graph")
			}
			if inv.Inverse() != g {
				t.Error("Inverse().Inverse() is not the graph")
			}
		})
	}

	// A graph from a v2 file hands out the file's own in-sections: the
	// mapped ones, without allocating.
	want := fromEdgesSort(300, randomTestEdges(300, 2500, 7))
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveFile(path, want, true); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inv := m.Inverse()
	assertIdenticalCSR(t, want.Inverse(), inv)
	if inv != m.inverse || inv.Inverse() != m.Digraph {
		t.Error("the mapped graph's Inverse() is not the view of its in-sections")
	}
	if allocs := testing.AllocsPerRun(10, func() { inv = m.Inverse() }); allocs != 0 {
		t.Errorf("the mapped graph's Inverse() allocates %v times", allocs)
	}
}

// TestPaperExampleStructure checks the neighborhoods of Example 1.
func TestPaperExampleStructure(t *testing.T) {
	g := PaperExample()
	if g.NumVertices() != 11 || g.NumEdges() != 15 {
		t.Fatalf("got %v, want 11 vertices and 15 edges", g)
	}
	// N_in(v2) = {v6}; N_out(v2) = {v1, v3, v4, v5} (Example 1).
	if got := g.Inverse().OutNeighbors(1); len(got) != 1 || got[0] != 5 {
		t.Errorf("N_in(v2) = %v, want [v6]", got)
	}
	want := []VertexID{0, 2, 3, 4}
	got := g.OutNeighbors(1)
	if len(got) != len(want) {
		t.Fatalf("N_out(v2) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N_out(v2) = %v, want %v", got, want)
		}
	}
	// DES(v2) = everything; ANC(v2) = {v2, v3, v4, v6} (Example 1).
	if des := Descendants(g, 1); len(des) != 11 {
		t.Errorf("|DES(v2)| = %d, want 11", len(des))
	}
	anc := Descendants(g.Inverse(), 1)
	sort.Slice(anc, func(i, j int) bool { return anc[i] < anc[j] })
	wantAnc := []VertexID{1, 2, 3, 5}
	if len(anc) != len(wantAnc) {
		t.Fatalf("ANC(v2) = %v", anc)
	}
	for i := range wantAnc {
		if anc[i] != wantAnc[i] {
			t.Fatalf("ANC(v2) = %v, want %v", anc, wantAnc)
		}
	}
	// DES(v1) = {v1, v5, v7, v8, v9} (Example 4, round 1).
	des := Descendants(g, 0)
	sort.Slice(des, func(i, j int) bool { return des[i] < des[j] })
	wantDes := []VertexID{0, 4, 6, 7, 8}
	if len(des) != len(wantDes) {
		t.Fatalf("DES(v1) = %v", des)
	}
	for i := range wantDes {
		if des[i] != wantDes[i] {
			t.Fatalf("DES(v1) = %v, want %v", des, wantDes)
		}
	}
}

func TestReachableOracle(t *testing.T) {
	g := PaperExample()
	cases := []struct {
		s, t VertexID
		want bool
	}{
		{1, 6, true},  // v2 → v7 (Example 1)
		{0, 8, true},  // v1 → v9
		{9, 0, false}, // v10 → v1
		{4, 1, false}, // v5 → v2
		{5, 10, true}, // v6 → v11
		{3, 3, true},
	}
	for _, c := range cases {
		if got := Reachable(g, c.s, c.t); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestTextIORoundTrip(t *testing.T) {
	g := PaperExample()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, got)
}

func TestBinaryIORoundTrip(t *testing.T) {
	g := PaperExample()
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, got)
}

func TestLoadFileDetectsFormat(t *testing.T) {
	g := PaperExample()
	dir := t.TempDir()
	for _, binary := range []bool{true, false} {
		path := filepath.Join(dir, "g")
		if err := SaveFile(path, g, binary); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGraph(t, g, got)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"one-field": "3\n",
		"bad-int":   "a b\n",
		"negative":  "-1 2\n",
		"too-big":   "99999999999999999999 1\n",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
	// Comments and blanks are fine.
	g, err := ReadEdgeList(strings.NewReader("# header\n% konect\n\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary2(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Error("expected error for garbage input")
	}
}

func TestSCCPaperExample(t *testing.T) {
	g := PaperExample()
	r := SCC(g)
	// Cycles: {v1, v5, v7} and {v2, v3, v4, v6}; everything else is a
	// singleton.
	if r.LargestComponent() != 4 {
		t.Errorf("largest SCC = %d, want 4", r.LargestComponent())
	}
	if r.NumComponents() != 6 {
		t.Errorf("components = %d, want 6", r.NumComponents())
	}
	same := func(a, b VertexID) bool { return r.Component[a] == r.Component[b] }
	if !same(0, 4) || !same(0, 6) {
		t.Error("v1, v5, v7 should share a component")
	}
	if !same(1, 2) || !same(1, 3) || !same(1, 5) {
		t.Error("v2, v3, v4, v6 should share a component")
	}
	if same(0, 1) {
		t.Error("v1 and v2 are in different components")
	}
}

// TestSCCAgainstReachability: u, v share a component iff mutually
// reachable, on random graphs.
func TestSCCAgainstReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(25)
		var edges []Edge
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{U: VertexID(rng.Intn(n)), V: VertexID(rng.Intn(n))})
		}
		g := FromEdges(n, edges)
		r := SCC(g)
		for u := VertexID(0); int(u) < n; u++ {
			for v := VertexID(0); int(v) < n; v++ {
				want := Reachable(g, u, v) && Reachable(g, v, u)
				got := r.Component[u] == r.Component[v]
				if got != want {
					t.Fatalf("trial %d: SCC(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

func TestIsAcyclic(t *testing.T) {
	if IsAcyclic(PaperExample()) {
		t.Error("the paper example has cycles")
	}
	dag := FromEdges(3, []Edge{{0, 1}, {0, 2}, {1, 2}})
	if !IsAcyclic(dag) {
		t.Error("diamond DAG misclassified")
	}
	loop := FromEdges(1, []Edge{{0, 0}})
	if IsAcyclic(loop) {
		t.Error("self-loop is a cycle")
	}
}

// TestPostOrderProperty: in a DAG, every edge (u,v) has post[v] <
// post[u] (children finish first).
func TestPostOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		var edges []Edge
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u < v {
				edges = append(edges, Edge{U: VertexID(u), V: VertexID(v)})
			}
		}
		g := FromEdges(n, edges)
		order := PostOrder(g)
		if len(order) != n {
			t.Fatalf("postorder has %d entries, want %d", len(order), n)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := VertexID(0); int(u) < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				if pos[v] >= pos[u] {
					t.Fatalf("DAG edge (%d,%d) violates postorder", u, v)
				}
			}
		}
	}
}

func TestEdgePrefix(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}
	if got := EdgePrefix(edges, 0.4); len(got) != 2 {
		t.Errorf("40%% of 5 = %d, want 2", len(got))
	}
	if got := EdgePrefix(edges, 1.0); len(got) != 5 {
		t.Errorf("100%% = %d", len(got))
	}
	if got := EdgePrefix(edges, 0); got != nil {
		t.Errorf("0%% = %v", got)
	}
	if got := EdgePrefix(edges, 2); len(got) != 5 {
		t.Errorf("200%% clamped = %d", len(got))
	}
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats(PaperExample())
	if s.Vertices != 11 || s.Edges != 15 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.MaxOutDegree != 4 { // v2
		t.Errorf("MaxOutDegree = %d, want 4", s.MaxOutDegree)
	}
	if s.Acyclic {
		t.Error("paper example is cyclic")
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestTransitiveClosureSize(t *testing.T) {
	// Path 0→1→2: TC rows are {0,1,2}, {1,2}, {2} = 6.
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if got := TransitiveClosureSize(g); got != 6 {
		t.Errorf("TC size = %d, want 6", got)
	}
}

// TestCSRInvariants: quick-checked structural invariants of the
// builder on random edge sets.
func TestCSRInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 40
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: VertexID(raw[i] % n),
				V: VertexID(raw[i+1] % n),
			})
		}
		g := FromEdges(n, edges)
		// Round-trip through Edges must reproduce the deduped set.
		back := g.Edges(nil)
		if int64(len(back)) != g.NumEdges() {
			return false
		}
		seen := map[Edge]bool{}
		for _, e := range edges {
			seen[e] = true
		}
		if len(seen) != len(back) {
			return false
		}
		var inSum, outSum int64
		inv := g.Inverse()
		for v := VertexID(0); int(v) < n; v++ {
			out := g.OutNeighbors(v)
			for i := 1; i < len(out); i++ {
				if out[i-1] >= out[i] { // sorted, no dups
					return false
				}
			}
			in := inv.OutNeighbors(v)
			for i := 1; i < len(in); i++ {
				if in[i-1] >= in[i] {
					return false
				}
			}
			inSum += int64(len(in))
			outSum += int64(len(out))
		}
		return inSum == g.NumEdges() && outSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func assertSameGraph(t *testing.T, a, b *Digraph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %v vs %v", a, b)
	}
	for v := VertexID(0); int(v) < a.NumVertices(); v++ {
		ao, bo := a.OutNeighbors(v), b.OutNeighbors(v)
		if len(ao) != len(bo) {
			t.Fatalf("v%d out-degree differs", v)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("v%d out-neighbors differ: %v vs %v", v, ao, bo)
			}
		}
	}
}

// TransitiveClosureSize counts Σ_v |DES(v)| with one BFS per vertex.
// It is quadratic and intended only for small analysis runs (Table V
// style statistics on test graphs).
func TransitiveClosureSize(g *Digraph) int64 {
	var total int64
	n := g.NumVertices()
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	queue := make([]VertexID, 0, 64)
	for v := VertexID(0); int(v) < n; v++ {
		queue = queue[:0]
		queue = append(queue, v)
		seen[v] = int32(v)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			total++
			for _, w := range g.OutNeighbors(u) {
				if seen[w] != int32(v) {
					seen[w] = int32(v)
					queue = append(queue, w)
				}
			}
		}
	}
	return total
}

// IsAcyclic reports whether g contains no directed cycle (self-loops
// count as cycles).
func IsAcyclic(g *Digraph) bool {
	r := SCC(g)
	if r.LargestComponent() > 1 {
		return false
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(v) {
			if w == v {
				return false
			}
		}
	}
	return true
}
