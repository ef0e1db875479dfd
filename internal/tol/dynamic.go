package tol

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Dynamic maintenance. The TOL line of work (Zhu et al., SIGMOD 2014)
// maintains the index under edge updates instead of rebuilding; the
// paper reproduced here treats *distributed* dynamic maintenance as
// future work (§II-B Remark) but depends on TOL-the-system, so the
// centralized maintenance lives here as part of the substrate.
//
// The implementation exploits the fixed-point characterization that
// also drives the static algorithms (Lemma 1): under a fixed total
// order,
//
//	x ∈ L_in(y)  ⇔  x→y  ∧  L_out(x)|<r ∩ L_in(y)|<r = ∅,
//
// where |<r restricts to ranks above x's rank r. Inserting or
// deleting an edge (u,v) can only change walks that traverse it, so
// only pairs (x, y) with x ∈ ANC(u) and y ∈ DES(v) can change
// membership — in either label direction. DynamicIndex re-evaluates
// exactly those pairs in increasing rank order, which keeps the
// characterization's precondition (all higher-rank labels final)
// intact. The result is bit-identical to a fresh TOL build under the
// same order, which the tests verify exhaustively.
//
// Storage is copy-on-write over a flat base. The label.Index and CSR
// Digraph the maintainer was seeded with stay as they are, shared with
// every snapshot; the maintainer holds only the label lists and
// neighbor lists that differ from them (graph.MutableOverlay), copied
// out of the base on their first edit. An update therefore costs
// O(deg) for the graph edit plus the localized repair sweep, and a
// Snapshot costs the number of lists that differ — neither ever the
// size of the index. Two events replace the base: a fold, when the
// overlay has outgrown 1/foldFraction of it and is written into a
// fresh label layout and CSR, and the rebuild fallback (an update
// whose affected sets cover most of the graph, where the incremental
// sweep would cost more than a fresh build). UpdateStats reports how
// often each ran so a serving tier can export them as counters.
//
// As in the original TOL, the total order is frozen at construction:
// updates change degrees but not ranks. Queries remain exact; only
// label sizes may drift from the degree heuristic's optimum until a
// Rebuild.

// DynamicIndex is a reachability index that supports edge insertions
// and deletions. One goroutine at a time may use it; the snapshots it
// hands out are immutable and may be read from any.
type DynamicIndex struct {
	n   int
	m   int64
	ord *order.Ordering

	// base and g are the index and the graph as of the last fold or
	// rebuild: immutable, and shared with every snapshot taken since.
	// inv is g's transpose, which only the maintainer walks: derived
	// with each new g and dropped with it.
	base *label.Index
	g    *graph.Digraph
	inv  *graph.Digraph
	// The lists that differ from them: rank-sorted label lists and
	// ID-sorted neighbor lists.
	in, out       *graph.MutableOverlay[order.Rank]
	outAdj, inAdj *graph.MutableOverlay[graph.VertexID]

	build Builder
	// foldFraction is the constant of the same name; tests lower it.
	foldFraction int64
	sc           repairScratch
	stats        UpdateStats
}

// foldFraction bounds the overlay: once it holds more than one part in
// foldFraction of the entries the base does (label entries plus both
// directions of adjacency), the next update folds it into a new base.
// An eighth keeps the maintainer's memory within 1/8 of the index's
// and a Snapshot's cost within 1/8 of the old whole-index copy, while a
// fold — that whole-index copy — comes once per several thousand
// writes on the benchmark graph.
const foldFraction = 8

// Builder builds the TOL index of g under ord: Build, or anything that
// reproduces it byte for byte.
type Builder func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error)

// UpdateStats counts how the maintainer absorbed updates: Repairs is
// the number of localized incremental sweeps, Rebuilds the number of
// full-build fallbacks (updates whose affected sets covered most of
// the graph), Folds the number of times the overlay was written into
// a new flat base. No-op updates (inserting a present edge, deleting a
// missing one) count nowhere. OverlayLists and OverlayEntries size the
// overlay right now: the lists it holds — a vertex counts once for
// each of its in-label, out-label, out-neighbor and in-neighbor lists
// that differs from the base — and their total length.
type UpdateStats struct {
	Repairs  int64
	Rebuilds int64
	Folds    int64

	OverlayLists   int
	OverlayEntries int
}

// NewDynamic builds a dynamic index over g with the degree-product
// order of the initial graph.
func NewDynamic(g *graph.Digraph) *DynamicIndex {
	ord := order.Compute(g)
	return NewDynamicFrom(g, ord, Build(g, ord), nil)
}

// NewDynamicFrom seeds a dynamic index over g with a prebuilt index:
// idx must be the TOL index of g under ord — what Build returns, and
// what every parallel builder reproduces byte for byte, so a caller
// can pay for the initial labeling on all its cores. build, if not
// nil, is that builder, and the rebuild fallback runs it instead of
// the serial Build. Neither g nor idx is copied: both are immutable
// and become the base the maintainer's snapshots share.
func NewDynamicFrom(g *graph.Digraph, ord *order.Ordering, idx *label.Index, build Builder) *DynamicIndex {
	if build == nil {
		build = func(g *graph.Digraph, ord *order.Ordering) (*label.Index, error) { return Build(g, ord), nil }
	}
	d := &DynamicIndex{n: g.NumVertices(), ord: ord, build: build, foldFraction: foldFraction}
	d.sc.init(d.n)
	d.rebase(idx, g)
	return d
}

// rebase makes idx and g the base and empties the overlay.
func (d *DynamicIndex) rebase(idx *label.Index, g *graph.Digraph) {
	if g != d.g {
		d.inv = g.Inverse()
	}
	d.base, d.g, d.m = idx, g, g.NumEdges()
	d.in = graph.NewMutableOverlay[order.Rank](d.n)
	d.out = graph.NewMutableOverlay[order.Rank](d.n)
	d.outAdj = graph.NewMutableOverlay[graph.VertexID](d.n)
	d.inAdj = graph.NewMutableOverlay[graph.VertexID](d.n)
}

// inLabels returns L_in(v): the overlay's list, or the base's decoded
// into *buf, which then holds it until the next call with that buffer.
func (d *DynamicIndex) inLabels(v graph.VertexID, buf *[]order.Rank) []order.Rank {
	if l, ok := d.in.Get(v); ok {
		return l
	}
	*buf = d.base.AppendInLabels((*buf)[:0], v)
	return *buf
}

func (d *DynamicIndex) outLabels(v graph.VertexID, buf *[]order.Rank) []order.Rank {
	if l, ok := d.out.Get(v); ok {
		return l
	}
	*buf = d.base.AppendOutLabels((*buf)[:0], v)
	return *buf
}

func (d *DynamicIndex) outNeighbors(v graph.VertexID) []graph.VertexID {
	if l, ok := d.outAdj.Get(v); ok {
		return l
	}
	return d.g.OutNeighbors(v)
}

func (d *DynamicIndex) inNeighbors(v graph.VertexID) []graph.VertexID {
	if l, ok := d.inAdj.Get(v); ok {
		return l
	}
	return d.inv.OutNeighbors(v)
}

// Graph materializes the current graph as an immutable Digraph: a full
// CSR construction whenever an edge has changed since the last fold.
// It is for inspection and oracles; the maintainer itself calls it
// only to fold or rebuild, and snapshots use SnapshotGraph.
func (d *DynamicIndex) Graph() *graph.Digraph {
	if _, out := d.SnapshotGraph(); out == nil {
		return d.g
	}
	// The builder replays the adjacency twice; no edge slice is made.
	g, err := graph.FromEdgeStream(d.n, func(emit func(graph.Edge) error) error {
		for u := graph.VertexID(0); int(u) < d.n; u++ {
			for _, v := range d.outNeighbors(u) {
				if err := emit(graph.Edge{U: u, V: v}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		panic(err) // the adjacency is in range and replays identically
	}
	return g
}

// NumVertices returns the (fixed) vertex count.
func (d *DynamicIndex) NumVertices() int { return d.n }

// NumEdges returns the current number of distinct directed edges.
func (d *DynamicIndex) NumEdges() int64 { return d.m }

// UpdateStats reports the repair/rebuild/fold tally so far and the
// overlay's present size.
func (d *DynamicIndex) UpdateStats() UpdateStats {
	s := d.stats
	s.OverlayLists = d.in.Len() + d.out.Len() + d.outAdj.Len() + d.inAdj.Len()
	s.OverlayEntries = d.overlayEntries()
	return s
}

func (d *DynamicIndex) overlayEntries() int {
	return d.in.Entries() + d.out.Entries() + d.outAdj.Entries() + d.inAdj.Entries()
}

// Ordering returns the frozen total order.
func (d *DynamicIndex) Ordering() *order.Ordering { return d.ord }

// Reachable answers q(s, t) from the maintained labels.
func (d *DynamicIndex) Reachable(s, t graph.VertexID) bool {
	// Every rank is below n: the whole of both lists is merged.
	return !label.DisjointBelow(d.outLabels(s, &d.sc.held), d.inLabels(t, &d.sc.each), order.Rank(d.n))
}

// Snapshot returns the current labels as an immutable Index: the base
// patched with the lists that differ from it as of this call. It costs
// one map entry per such list — nothing is frozen, and no list is
// copied — and the index it returns never changes, whatever updates,
// folds and rebuilds follow.
func (d *DynamicIndex) Snapshot() *label.Index {
	in := d.in.Freeze(func(v graph.VertexID) []order.Rank {
		d.sc.each = d.base.AppendInLabels(d.sc.each[:0], v)
		return d.sc.each
	})
	out := d.out.Freeze(func(v graph.VertexID) []order.Rank {
		d.sc.each = d.base.AppendOutLabels(d.sc.each[:0], v)
		return d.sc.each
	})
	return d.base.Patched(in, out)
}

// SnapshotGraph returns the current graph the way Snapshot returns the
// labels, at the same cost: the base CSR and the out-neighbor lists
// that differ from it (nil if none do). A reader takes out[v] where
// the overlay has v and base.OutNeighbors(v) elsewhere.
func (d *DynamicIndex) SnapshotGraph() (base *graph.Digraph, out *graph.Overlay[graph.VertexID]) {
	d.inAdj.Compact(d.inv.OutNeighbors) // never published, but bounded by the same rule
	return d.g, d.outAdj.Freeze(d.g.OutNeighbors)
}

// Fold writes the overlay into a new flat base — one pass over the
// index and, if an edge changed, one CSR construction — and empties
// it. Updates fold by themselves when the overlay outgrows its
// fraction of the base; snapshots taken before keep the old base.
func (d *DynamicIndex) Fold() {
	// A list that edits have brought back to the base's value is dropped
	// by the freeze inside these two: what is left is a real difference.
	idx, g := d.Snapshot().Fold(), d.Graph()
	if idx == d.base && g == d.g {
		return
	}
	d.stats.Folds++
	d.rebase(idx, g)
}

// InsertEdge adds the directed edge (u, v) and repairs the labels.
// Inserting an existing edge is a no-op.
func (d *DynamicIndex) InsertEdge(u, v graph.VertexID) error {
	return d.update(u, v, true)
}

// DeleteEdge removes the directed edge (u, v) and repairs the labels.
// Deleting a missing edge is a no-op.
func (d *DynamicIndex) DeleteEdge(u, v graph.VertexID) error {
	return d.update(u, v, false)
}

func (d *DynamicIndex) update(u, v graph.VertexID, insert bool) error {
	if int(u) >= d.n || u < 0 || int(v) >= d.n || v < 0 {
		return fmt.Errorf("tol: edge (%d,%d) out of range for %d vertices", u, v, d.n)
	}
	if !d.setEdge(u, v, insert) {
		return nil
	}
	if err := d.repair(u, v); err != nil {
		// Only a failed rebuild gets here, before any label has changed.
		d.setEdge(u, v, !insert)
		return err
	}
	if int64(d.overlayEntries())*d.foldFraction > d.base.Entries()+2*d.g.NumEdges() {
		d.Fold()
	}
	return nil
}

// setEdge makes (u, v) present or absent in both neighbor lists and
// reports whether that changed anything.
func (d *DynamicIndex) setEdge(u, v graph.VertexID, present bool) bool {
	outs, ins := d.outNeighbors(u), d.inNeighbors(v)
	i, has := slices.BinarySearch(outs, v)
	if has == present {
		return false
	}
	j, _ := slices.BinarySearch(ins, u)
	if present {
		d.outAdj.Insert(u, outs, i, v)
		d.inAdj.Insert(v, ins, j, u)
		d.m++
	} else {
		d.outAdj.Remove(u, outs, i)
		d.inAdj.Remove(v, ins, j)
		d.m--
	}
	return true
}

// marks is an epoch-stamped vertex set, in the style of label's sweep
// scratch: v is in the set iff stamp[v] == epoch, so emptying it is
// one increment.
type marks struct {
	stamp []int32
	epoch int32
}

func (m *marks) reset() {
	m.epoch++
	if m.epoch == 0 { // wrapped: stamps are stale, clear once
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *marks) add(v graph.VertexID)      { m.stamp[v] = m.epoch }
func (m *marks) has(v graph.VertexID) bool { return m.stamp[v] == m.epoch }

// repairScratch is what one repair needs and the next can reuse: a
// mark set per role, the BFS queue, the affected sets, the A×D
// reachability relation as a bit matrix, and two buffers base lists are
// decoded into — one for the list a sweep step holds, one for each list
// it tests against that one.
type repairScratch struct {
	seen, inA, inD marks
	posA, posD     []int32 // v's index in anc / des, where inA / inD has v
	queue          []graph.VertexID
	anc, des       []graph.VertexID
	ranks          []order.Rank
	reach          []uint64 // bit i·|des|+j: anc[i] reaches des[j]
	held, each     []order.Rank
}

func (sc *repairScratch) init(n int) {
	sc.seen.stamp = make([]int32, n)
	sc.inA.stamp = make([]int32, n)
	sc.inD.stamp = make([]int32, n)
	sc.posA = make([]int32, n)
	sc.posD = make([]int32, n)
}

// bfs runs a BFS from src along out-edges (forward) or in-edges,
// additionally traversing extra.U → extra.V as if present (for
// deletions, whose removed edge's old walks must still be
// considered), and reports every reached vertex including src.
func (d *DynamicIndex) bfs(forward bool, src graph.VertexID, extra graph.Edge, visit func(graph.VertexID)) {
	adj, g := d.inAdj, d.inv
	if forward {
		adj, g = d.outAdj, d.g
	}
	seen := &d.sc.seen
	seen.reset()
	seen.add(src)
	queue := append(d.sc.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		visit(w)
		nbrs, ok := adj.Get(w)
		if !ok {
			nbrs = g.OutNeighbors(w)
		}
		for _, x := range nbrs {
			if !seen.has(x) {
				seen.add(x)
				queue = append(queue, x)
			}
		}
		if w == extra.U && !seen.has(extra.V) {
			seen.add(extra.V)
			queue = append(queue, extra.V)
		}
	}
	d.sc.queue = queue
}

// repair re-evaluates label membership for every pair that an update
// of edge (u, v) can affect: sources A = ANC(u), targets D = DES(v),
// both in the *union* of the old and new graphs (computed on the new
// adjacency plus the updated edge; for a deletion the old-graph sets
// are recovered by traversing the deleted edge as if present, and
// re-evaluating a pair that did not change is harmless, so the sets
// are taken generously).
func (d *DynamicIndex) repair(u, v graph.VertexID) error {
	sc := &d.sc
	anc, des := sc.anc[:0], sc.des[:0]
	d.bfs(false, u, graph.Edge{U: v, V: u}, func(w graph.VertexID) { anc = append(anc, w) })
	d.bfs(true, v, graph.Edge{U: u, V: v}, func(w graph.VertexID) { des = append(des, w) })
	sc.anc, sc.des = anc, des

	// The incremental sweep costs O(|A|·|D|·Δ) pair tests plus
	// min(|A|,|D|) BFS traversals: a bargain for localized updates
	// (DAG-like regions, or growth workloads where one side is a
	// handful of vertices) but worse than a fresh build when the
	// update touches a giant SCC or both affected sets span the
	// graph. Fall back to the rebuild in those regimes — the order
	// stays frozen either way, so the resulting labels are identical.
	// The rebuilt index and the graph it was built from become the new
	// base, exactly as after a fold.
	if int64(len(anc))*int64(len(des)) > 8*(int64(d.n)+d.m) ||
		int64(min(len(anc), len(des))) > max(int64(d.n)/64, 32) {
		g := d.Graph()
		idx, err := d.build(g, d.ord)
		if err != nil {
			return fmt.Errorf("tol: rebuilding after an update of (%d,%d): %w", u, v, err)
		}
		d.stats.Rebuilds++
		d.rebase(idx, g)
		return nil
	}
	d.stats.Repairs++

	sc.inA.reset()
	for i, x := range anc {
		sc.inA.add(x)
		sc.posA[x] = int32(i)
	}
	sc.inD.reset()
	for j, y := range des {
		sc.inD.add(y)
		sc.posD[y] = int32(j)
	}

	// Fresh A×D reachability over the new graph (exact even for
	// deletions, where the old index cannot answer reach'). One
	// relation serves both label directions — "x reaches y" read from
	// a source x ∈ A is the same fact as "y is reached by x" read
	// from a target y ∈ D — so BFS from whichever side is smaller:
	// forward from each x ∈ A recording hits in D, or backward from
	// each y ∈ D recording hits in A.
	nd := len(des)
	words := (len(anc)*nd + 63) / 64
	sc.reach = slices.Grow(sc.reach[:0], words)[:words]
	clear(sc.reach)
	reach := sc.reach
	none := graph.Edge{U: -1, V: -1}
	if len(anc) <= len(des) {
		for i, x := range anc {
			d.bfs(true, x, none, func(w graph.VertexID) {
				if sc.inD.has(w) {
					bit := i*nd + int(sc.posD[w])
					reach[bit>>6] |= 1 << (bit & 63)
				}
			})
		}
	} else {
		for j, y := range des {
			d.bfs(false, y, none, func(w graph.VertexID) {
				if sc.inA.has(w) {
					bit := int(sc.posA[w])*nd + j
					reach[bit>>6] |= 1 << (bit & 63)
				}
			})
		}
	}
	reaches := func(i, j int) bool {
		bit := i*nd + j
		return reach[bit>>6]&(1<<(bit&63)) != 0
	}

	// Rank-ascending sweep: at rank r the labels below r are final.
	ranks := sc.ranks[:0]
	for _, x := range anc {
		ranks = append(ranks, d.ord.RankOf(x))
	}
	for _, y := range des {
		if !sc.inA.has(y) { // avoid double-processing vertices in both sets
			ranks = append(ranks, d.ord.RankOf(y))
		}
	}
	slices.Sort(ranks)
	sc.ranks = ranks

	for _, r := range ranks {
		x := d.ord.VertexAt(r)
		if sc.inA.has(x) {
			// x labels in-direction targets in D.
			i, outX := int(sc.posA[x]), d.outLabels(x, &sc.held)
			for j, y := range des {
				inY := d.inLabels(y, &sc.each)
				want := reaches(i, j) && label.DisjointBelow(outX, inY, r)
				setMembership(d.in, y, inY, r, want)
			}
		}
		if sc.inD.has(x) {
			// x labels out-direction targets in A.
			j, inX := int(sc.posD[x]), d.inLabels(x, &sc.held)
			for i, w := range anc {
				outW := d.outLabels(w, &sc.each)
				want := reaches(i, j) && label.DisjointBelow(outW, inX, r)
				setMembership(d.out, w, outW, r, want)
			}
		}
	}
	return nil
}

// setMembership makes rank r present or absent in v's sorted list,
// which reads as cur now; the list is copied into the overlay only if
// that changes it (so cur may be a scratch buffer).
func setMembership(lists *graph.MutableOverlay[order.Rank], v graph.VertexID, cur []order.Rank, r order.Rank, want bool) {
	i, present := slices.BinarySearch(cur, r)
	switch {
	case want && !present:
		lists.Insert(v, cur, i, r)
	case !want && present:
		lists.Remove(v, cur, i)
	}
}
