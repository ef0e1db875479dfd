package tol

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Tests for what copy-on-write storage can break: a snapshot that
// changes after it was taken, an overlay that drifts from the labels a
// fresh build gives, a fold or rebuild that loses an edit.

// edgeSet is the tests' own record of the graph, kept apart from the
// maintainer's so a bookkeeping bug there cannot vouch for itself.
type edgeSet map[graph.Edge]bool

func (es edgeSet) digraph(n int) *graph.Digraph {
	edges := make([]graph.Edge, 0, len(es))
	for e := range es {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, cmpEdges)
	return graph.FromEdges(n, edges)
}

func cmpEdges(a, b graph.Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// sparseCyclic draws 0.8·n random edges — under the giant-component
// threshold, so most affected sets are small and updates repair rather
// than rebuild — and plants n/20 three-cycles among them.
func sparseCyclic(rng *rand.Rand, n int) edgeSet {
	es := edgeSet{}
	for len(es) < n*8/10 {
		es[graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}] = true
	}
	for c := 0; c < n/20; c++ {
		a, b, d := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		es[graph.Edge{U: a, V: b}], es[graph.Edge{U: b, V: d}], es[graph.Edge{U: d, V: a}] = true, true, true
	}
	return es
}

// randomUpdate applies one seeded insert or delete to d and es alike.
func randomUpdate(t *testing.T, rng *rand.Rand, d *DynamicIndex, es edgeSet) {
	t.Helper()
	n := d.NumVertices()
	e := graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	var err error
	if rng.Intn(5) < 3 {
		err = d.InsertEdge(e.U, e.V)
		es[e] = true
	} else {
		// Delete an edge that exists half the time: a miss is a no-op.
		if rng.Intn(2) == 0 {
			all := make([]graph.Edge, 0, len(es))
			for x := range es {
				all = append(all, x)
			}
			slices.SortFunc(all, cmpEdges)
			e = all[rng.Intn(len(all))]
		}
		err = d.DeleteEdge(e.U, e.V)
		delete(es, e)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func indexBytes(t *testing.T, x *label.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// epochCut is everything a snapshot promised at the moment it was
// taken, for checking later that it still delivers it.
type epochCut struct {
	op     int
	idx    *label.Index
	base   *graph.Digraph
	adj    *graph.Overlay[graph.VertexID]
	oracle *graph.Digraph // built from the test's own edge set
	want   *label.Index   // a fresh build over oracle
	bytes  []byte         // want's serialization
}

func takeCut(t *testing.T, op int, d *DynamicIndex, es edgeSet) epochCut {
	t.Helper()
	c := epochCut{op: op, idx: d.Snapshot(), oracle: es.digraph(d.NumVertices())}
	c.base, c.adj = d.SnapshotGraph()
	c.want = Build(c.oracle, d.ord)
	c.bytes = indexBytes(t, c.want)
	return c
}

// check reports how c's snapshot differs from what it promised, ""
// if it does not. It is safe on any goroutine.
func (c epochCut) check(rng *rand.Rand) string {
	if diff := c.want.Diff(c.idx); diff != "" {
		return "labels differ from a fresh build: " + diff
	}
	var buf bytes.Buffer
	if _, err := c.idx.WriteTo(&buf); err != nil {
		return err.Error()
	}
	if !bytes.Equal(buf.Bytes(), c.bytes) {
		return "WriteTo bytes differ from the fresh build's"
	}
	n := c.oracle.NumVertices()
	for u := graph.VertexID(0); int(u) < n; u++ {
		nbrs, ok := c.adj.Get(u)
		if !ok {
			nbrs = c.base.OutNeighbors(u)
		}
		if !slices.Equal(nbrs, c.oracle.OutNeighbors(u)) {
			return "out-neighbors differ from the edge set at the cut"
		}
	}
	for k := 0; k < 200; k++ {
		s, x := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if c.idx.Reachable(s, x) != graph.Reachable(c.oracle, s, x) {
			return "Reachable contradicts BFS on the edge set at the cut"
		}
	}
	return ""
}

// TestSnapshotsMatchFreshBuild is the differential test: over seeded
// cyclic digraphs and a seeded insert/delete sequence, every fifth
// snapshot is label-for-label and byte-for-byte the index a fresh
// build over the test's own edge set gives, and its graph view is that
// edge set. Folds happen on their own at this size; both update paths
// must have run.
func TestSnapshotsMatchFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 300
		es := sparseCyclic(rng, n)
		d := NewDynamic(es.digraph(n))
		for op := 1; op <= 300; op++ {
			randomUpdate(t, rng, d, es)
			if d.NumEdges() != int64(len(es)) {
				t.Fatalf("seed %d op %d: maintainer counts %d edges, the edge set holds %d", seed, op, d.NumEdges(), len(es))
			}
			if op%5 == 0 {
				if msg := takeCut(t, op, d, es).check(rng); msg != "" {
					t.Fatalf("seed %d op %d: %s", seed, op, msg)
				}
			}
		}
		if s := d.UpdateStats(); s.Repairs == 0 || s.Folds == 0 {
			t.Fatalf("seed %d: %+v: want both repairs and folds exercised", seed, s)
		}
	}
}

// TestInsertDeleteLeavesNoOverlay: inserting fresh edges and deleting
// them again, in another order, restores byte-identical labels and an
// overlay with nothing in it — the snapshot is the seed index itself.
func TestInsertDeleteLeavesNoOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	es := sparseCyclic(rng, n)
	g := es.digraph(n)
	d := NewDynamic(g)
	d.foldFraction = 0 // never fold: the seed index must come back as it was
	seed := d.Snapshot()
	before := indexBytes(t, seed)

	var added []graph.Edge
	for len(added) < 40 {
		e := graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
		if es[e] || slices.Contains(added, e) {
			continue
		}
		if err := d.InsertEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
		added = append(added, e)
	}
	mid := d.Snapshot()
	if mid == seed || bytes.Equal(indexBytes(t, mid), before) {
		t.Fatal("40 fresh edges changed no label; the round trip proves nothing")
	}
	if s := d.UpdateStats(); s.OverlayLists == 0 || s.Rebuilds != 0 {
		t.Fatalf("after the inserts: %+v, want a non-empty overlay and no rebuild", s)
	}
	rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
	for _, e := range added {
		if err := d.DeleteEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	after := d.Snapshot()
	if !bytes.Equal(indexBytes(t, after), before) {
		t.Fatalf("insert-then-delete changed the index: %s", seed.Diff(after))
	}
	base, adj := d.SnapshotGraph()
	if after != seed || base != g || adj != nil {
		t.Fatal("insert-then-delete left overrides behind: the snapshot is not the seed index and graph")
	}
	if s := d.UpdateStats(); s.OverlayLists != 0 || s.OverlayEntries != 0 {
		t.Fatalf("insert-then-delete left an overlay: %+v", s)
	}
	// The snapshot taken in between still reads as it did.
	if bytes.Equal(indexBytes(t, mid), before) {
		t.Fatal("the mid-sequence snapshot changed with the deletes that followed it")
	}
}

// TestSnapshotsSurviveFolds: with the fold fraction lowered so the
// overlay folds every few writes, snapshots taken all along — before
// and after each fold, and across rebuilds — keep reading exactly as
// they did when taken, while readers on other goroutines check them
// against the maintainer's later 1,200 writes (run under -race).
func TestSnapshotsSurviveFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, ops, readers = 300, 1200, 3
	es := sparseCyclic(rng, n)
	d := NewDynamic(es.digraph(n))
	d.foldFraction = 64

	cuts := make(chan epochCut, ops) // every cut of the run fits: the writer never waits
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(100 + r)))
			var held []epochCut
			recheck := func() {
				for _, c := range held {
					if msg := c.check(rrng); msg != "" {
						t.Errorf("reader %d: snapshot of op %d, %d snapshots later: %s", r, c.op, len(held), msg)
						return
					}
				}
			}
			for c := range cuts {
				held = append(held, c)
				if len(held)%8 == 0 {
					recheck()
				}
			}
			recheck() // after the last write
		}(r)
	}
	for op := 1; op <= ops; op++ {
		randomUpdate(t, rng, d, es)
		if op%10 == 0 {
			cuts <- takeCut(t, op, d, es)
		}
	}
	close(cuts)
	wg.Wait()
	if s := d.UpdateStats(); s.Folds < 3 || s.Repairs == 0 {
		t.Fatalf("%+v: want several folds among the repairs", s)
	}
}

// TestRepairAllocs pins the repair scratch: once warm, an insert and
// the matching delete in a region where no label changes (the edge
// joins vertices already connected, so every pair test comes out as it
// was) allocate nothing — no mark array per traversal, no queue, no
// reach table.
func TestRepairAllocs(t *testing.T) {
	const n = 400
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
	}
	d := NewDynamic(graph.FromEdges(n, edges))
	before := d.Snapshot()
	pair := func() {
		// ANC(10) × DES(12) = 11 × 388 pairs, 11 forward traversals.
		if err := d.InsertEdge(10, 12); err != nil {
			t.Fatal(err)
		}
		if err := d.DeleteEdge(10, 12); err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm the scratch and the two neighbor lists' overlay slots
	if got := testing.AllocsPerRun(20, pair); got != 0 {
		t.Errorf("an insert/delete pair allocates %v times, want 0", got)
	}
	if s := d.UpdateStats(); s.Repairs < 42 || s.Rebuilds != 0 {
		t.Fatalf("%+v: want every update a repair", s)
	}
	if after := d.Snapshot(); after != before {
		t.Fatal("a skip edge over a chain changed the labels")
	}
}

// TestRebuildGuards: an update that trips either rebuild guard runs
// the builder the maintainer was given, installs its result as the new
// base with an empty overlay, and yields the index a fresh build does.
// A builder that fails leaves the maintainer as it was.
func TestRebuildGuards(t *testing.T) {
	chains := func(n, a, b int) *graph.Digraph {
		var edges []graph.Edge
		for i := 0; i < a-1; i++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
		}
		for i := a; i < a+b-1; i++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
		}
		return graph.FromEdges(n, edges)
	}
	for _, tc := range []struct {
		name    string
		n, a, b int // chains 0..a-1 and a..a+b-1 in n vertices; the update bridges them
	}{
		// 30·200 > 8·(n+m) = 3,664 while min(30, 200) ≤ 32.
		{"pair count", 230, 30, 200},
		// min(40, 40) > max(n/64, 32) = 32 while 40·40 ≤ 8·(n+m).
		{"traversal count", 2000, 40, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := chains(tc.n, tc.a, tc.b)
			ord := order.Compute(g)
			var built []*label.Index
			var fail error
			d := NewDynamicFrom(g, ord, Build(g, ord), func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) {
				if fail != nil {
					return nil, fail
				}
				built = append(built, Build(g, ord))
				return built[len(built)-1], nil
			})
			na, nd, nm := int64(tc.a), int64(tc.b), int64(tc.n)+g.NumEdges()+1
			if pairs, bfs := na*nd > 8*nm, min(na, nd) > max(int64(tc.n)/64, 32); pairs == bfs {
				t.Fatalf("the case trips both guards or neither (pairs %v, traversals %v)", pairs, bfs)
			}
			u, v := graph.VertexID(tc.a-1), graph.VertexID(tc.a)

			// A local repair first, so the rebuild has an overlay to clear.
			if err := d.InsertEdge(0, 2); err != nil {
				t.Fatal(err)
			}
			if s := d.UpdateStats(); s.Repairs != 1 || s.OverlayLists == 0 {
				t.Fatalf("skip edge: %+v, want one repair and a non-empty overlay", s)
			}

			fail = errors.New("builder down")
			before := d.Snapshot()
			if err := d.InsertEdge(u, v); !errors.Is(err, fail) {
				t.Fatalf("err = %v, want the builder's", err)
			}
			if d.Reachable(0, v) || d.NumEdges() != g.NumEdges()+1 || !before.Equal(d.Snapshot()) {
				t.Fatal("a failed rebuild changed the maintainer")
			}
			fail = nil

			for i, insert := range []bool{true, false} {
				if err := d.update(u, v, insert); err != nil {
					t.Fatal(err)
				}
				s := d.UpdateStats()
				if s.Rebuilds != int64(i+1) || len(built) != i+1 {
					t.Fatalf("insert=%v: %+v after %d builder calls, want %d rebuilds through the builder", insert, s, len(built), i+1)
				}
				if s.OverlayLists != 0 || d.Snapshot() != built[i] {
					t.Fatalf("insert=%v: the rebuilt index is not the new base (%+v)", insert, s)
				}
				if want := Build(d.Graph(), ord); !want.Equal(d.Snapshot()) {
					t.Fatalf("insert=%v: %s", insert, want.Diff(d.Snapshot()))
				}
				if d.Reachable(0, v) != insert {
					t.Fatalf("insert=%v: the bridge reads %v", insert, d.Reachable(0, v))
				}
			}
		})
	}
}
