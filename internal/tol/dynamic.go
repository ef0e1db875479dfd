package tol

import (
	"fmt"
	"sort"

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
// The adjacency is maintained incrementally as sorted neighbor lists
// — an update costs O(deg) for the graph edit plus the localized
// repair sweep, never a full CSR rebuild. Only the rebuild fallback
// (an update whose affected sets cover most of the graph, where the
// incremental sweep would cost more than a fresh build) materializes
// a Digraph, and UpdateStats reports how often each path ran so a
// serving tier can export both as counters.
//
// As in the original TOL, the total order is frozen at construction:
// updates change degrees but not ranks. Queries remain exact; only
// label sizes may drift from the degree heuristic's optimum until a
// Rebuild.

// DynamicIndex is a reachability index that supports edge insertions
// and deletions.
type DynamicIndex struct {
	n int
	m int64
	// outAdj[v], inAdj[v]: sorted neighbor lists, maintained in place.
	outAdj, inAdj [][]graph.VertexID
	ord           *order.Ordering
	// in[y], out[y]: rank-sorted label lists.
	in, out [][]order.Rank

	stats UpdateStats
}

// UpdateStats counts how the maintainer absorbed updates: Repairs is
// the number of localized incremental sweeps, Rebuilds the number of
// full-build fallbacks (updates whose affected sets covered most of
// the graph). No-op updates (inserting a present edge, deleting a
// missing one) count in neither.
type UpdateStats struct {
	Repairs  int64
	Rebuilds int64
}

// NewDynamic builds a dynamic index over g with the degree-product
// order of the initial graph.
func NewDynamic(g *graph.Digraph) *DynamicIndex {
	ord := order.Compute(g)
	return NewDynamicFrom(g, ord, Build(g, ord))
}

// NewDynamicFrom seeds a dynamic index over g with a prebuilt index:
// idx must be the TOL index of g under ord — what Build returns, and
// what every parallel builder reproduces byte for byte, so a caller
// can pay for the initial labeling on all its cores. The labels are
// copied; idx is not retained.
func NewDynamicFrom(g *graph.Digraph, ord *order.Ordering, idx *label.Index) *DynamicIndex {
	n := g.NumVertices()
	d := &DynamicIndex{
		n:      n,
		m:      g.NumEdges(),
		outAdj: make([][]graph.VertexID, n),
		inAdj:  make([][]graph.VertexID, n),
		ord:    ord,
		in:     make([][]order.Rank, n),
		out:    make([][]order.Rank, n),
	}
	for v := graph.VertexID(0); int(v) < n; v++ {
		d.outAdj[v] = append([]graph.VertexID(nil), g.OutNeighbors(v)...)
		d.inAdj[v] = append([]graph.VertexID(nil), g.InNeighbors(v)...)
		d.in[v] = append([]order.Rank(nil), idx.InLabels(v)...)
		d.out[v] = append([]order.Rank(nil), idx.OutLabels(v)...)
	}
	return d
}

// Graph materializes the current graph as an immutable Digraph. The
// adjacency is maintained incrementally, so this costs a full CSR
// construction — call it for inspection and oracles, not per update.
func (d *DynamicIndex) Graph() *graph.Digraph {
	return graph.FromEdges(d.n, d.edges())
}

func (d *DynamicIndex) edges() []graph.Edge {
	edges := make([]graph.Edge, 0, d.m)
	for u := graph.VertexID(0); int(u) < d.n; u++ {
		for _, v := range d.outAdj[u] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return edges
}

// NumVertices returns the (fixed) vertex count.
func (d *DynamicIndex) NumVertices() int { return d.n }

// NumEdges returns the current number of distinct directed edges.
func (d *DynamicIndex) NumEdges() int64 { return d.m }

// UpdateStats reports the repair/rebuild tally so far.
func (d *DynamicIndex) UpdateStats() UpdateStats { return d.stats }

// Ordering returns the frozen total order.
func (d *DynamicIndex) Ordering() *order.Ordering { return d.ord }

// Reachable answers q(s, t) from the maintained labels.
func (d *DynamicIndex) Reachable(s, t graph.VertexID) bool {
	a, b := d.out[s], d.in[t]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Snapshot materializes the current labels as an immutable Index.
func (d *DynamicIndex) Snapshot() *label.Index {
	return label.FromLists(d.ord, d.in, d.out)
}

// InsertEdge adds the directed edge (u, v) and repairs the labels.
// Inserting an existing edge is a no-op.
func (d *DynamicIndex) InsertEdge(u, v graph.VertexID) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	if contains(d.outAdj[u], v) {
		return nil
	}
	d.outAdj[u] = sortedInsert(d.outAdj[u], v)
	d.inAdj[v] = sortedInsert(d.inAdj[v], u)
	d.m++
	d.repair(u, v)
	return nil
}

// DeleteEdge removes the directed edge (u, v) and repairs the labels.
// Deleting a missing edge is a no-op.
func (d *DynamicIndex) DeleteEdge(u, v graph.VertexID) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	if !contains(d.outAdj[u], v) {
		return nil
	}
	d.outAdj[u] = sortedRemove(d.outAdj[u], v)
	d.inAdj[v] = sortedRemove(d.inAdj[v], u)
	d.m--
	d.repair(u, v)
	return nil
}

func (d *DynamicIndex) check(u, v graph.VertexID) error {
	if int(u) >= d.n || u < 0 || int(v) >= d.n || v < 0 {
		return fmt.Errorf("tol: edge (%d,%d) out of range for %d vertices", u, v, d.n)
	}
	return nil
}

// bfsFrom runs a BFS over the adjacency in adj starting at src,
// additionally traversing extra.U → extra.V as if present (for
// deletions, whose removed edge's old walks must still be
// considered), and reports every reached vertex including src.
func (d *DynamicIndex) bfsFrom(adj [][]graph.VertexID, src graph.VertexID, extra graph.Edge, visit func(graph.VertexID)) {
	seen := make([]bool, d.n)
	queue := []graph.VertexID{src}
	seen[src] = true
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		visit(w)
		push := func(x graph.VertexID) {
			if !seen[x] {
				seen[x] = true
				queue = append(queue, x)
			}
		}
		for _, x := range adj[w] {
			push(x)
		}
		if w == extra.U {
			push(extra.V)
		}
	}
}

// repair re-evaluates label membership for every pair that an update
// of edge (u, v) can affect: sources A = ANC(u), targets D = DES(v),
// both in the *union* of the old and new graphs (computed on the new
// adjacency plus the updated edge; for a deletion the old-graph sets
// are recovered by traversing the deleted edge as if present, and
// re-evaluating a pair that did not change is harmless, so the sets
// are taken generously).
func (d *DynamicIndex) repair(u, v graph.VertexID) {
	n := d.n
	var anc, des []graph.VertexID
	d.bfsFrom(d.inAdj, u, graph.Edge{U: v, V: u}, func(w graph.VertexID) { anc = append(anc, w) })
	d.bfsFrom(d.outAdj, v, graph.Edge{U: u, V: v}, func(w graph.VertexID) { des = append(des, w) })

	// The incremental sweep costs O(|A|·|D|·Δ) pair tests plus
	// min(|A|,|D|) BFS traversals: a bargain for localized updates
	// (DAG-like regions, or growth workloads where one side is a
	// handful of vertices) but worse than a fresh build when the
	// update touches a giant SCC or both affected sets span the
	// graph. Fall back to the rebuild in those regimes — the order
	// stays frozen either way, so the resulting labels are identical.
	bfsSide := len(anc)
	if len(des) < bfsSide {
		bfsSide = len(des)
	}
	if int64(len(anc))*int64(len(des)) > 8*(int64(n)+d.m) ||
		int64(bfsSide) > max(int64(n)/64, 32) {
		d.stats.Rebuilds++
		idx := Build(d.Graph(), d.ord)
		for w := graph.VertexID(0); int(w) < n; w++ {
			d.in[w] = append(d.in[w][:0], idx.InLabels(w)...)
			d.out[w] = append(d.out[w][:0], idx.OutLabels(w)...)
		}
		return
	}
	d.stats.Repairs++

	inA := make([]bool, n)
	for _, x := range anc {
		inA[x] = true
	}
	inD := make([]bool, n)
	for _, y := range des {
		inD[y] = true
	}

	// Fresh A×D reachability over the new graph (exact even for
	// deletions, where the old index cannot answer reach'). One
	// relation serves both label directions — "x reaches y" read from
	// a source x ∈ A is the same fact as "y is reached by x" read
	// from a target y ∈ D — so BFS from whichever side is smaller:
	// forward from each x ∈ A recording hits in D, or backward from
	// each y ∈ D recording hits in A.
	none := graph.Edge{U: -1, V: -1}
	reach := make(map[graph.VertexID]map[graph.VertexID]bool, bfsSide)
	var reachAD func(x, y graph.VertexID) bool
	if len(anc) <= len(des) {
		for _, x := range anc {
			m := make(map[graph.VertexID]bool)
			d.bfsFrom(d.outAdj, x, none, func(w graph.VertexID) {
				if inD[w] {
					m[w] = true
				}
			})
			reach[x] = m
		}
		reachAD = func(x, y graph.VertexID) bool { return reach[x][y] }
	} else {
		for _, y := range des {
			m := make(map[graph.VertexID]bool)
			d.bfsFrom(d.inAdj, y, none, func(w graph.VertexID) {
				if inA[w] {
					m[w] = true
				}
			})
			reach[y] = m
		}
		reachAD = func(x, y graph.VertexID) bool { return reach[y][x] }
	}

	// Rank-ascending sweep: at rank r the labels below r are final.
	ranks := make([]order.Rank, 0, len(anc)+len(des))
	for _, x := range anc {
		ranks = append(ranks, d.ord.RankOf(x))
	}
	for _, y := range des {
		if !inA[y] { // avoid double-processing vertices in both sets
			ranks = append(ranks, d.ord.RankOf(y))
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	for _, r := range ranks {
		x := d.ord.VertexAt(r)
		if inA[x] {
			// x labels in-direction targets in D.
			for _, y := range des {
				want := reachAD(x, y) && disjointBelow(d.out[x], d.in[y], r)
				d.in[y] = setMembership(d.in[y], r, want)
			}
		}
		if inD[x] {
			// x labels out-direction targets in A.
			for _, w := range anc {
				want := reachAD(w, x) && disjointBelow(d.out[w], d.in[x], r)
				d.out[w] = setMembership(d.out[w], r, want)
			}
		}
	}
}

// disjointBelow mirrors drl's refinement test: no common rank < bound.
func disjointBelow(a, b []order.Rank, bound order.Rank) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) && a[i] < bound && b[j] < bound {
		switch {
		case a[i] == b[j]:
			return false
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// setMembership inserts or removes rank r in a sorted list.
func setMembership(list []order.Rank, r order.Rank, want bool) []order.Rank {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= r })
	present := i < len(list) && list[i] == r
	switch {
	case want && !present:
		list = append(list, 0)
		copy(list[i+1:], list[i:])
		list[i] = r
	case !want && present:
		list = append(list[:i], list[i+1:]...)
	}
	return list
}

func sortedInsert(vs []graph.VertexID, v graph.VertexID) []graph.VertexID {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	return vs
}

func sortedRemove(vs []graph.VertexID, v graph.VertexID) []graph.VertexID {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	if i < len(vs) && vs[i] == v {
		vs = append(vs[:i], vs[i+1:]...)
	}
	return vs
}

func contains(vs []graph.VertexID, v graph.VertexID) bool {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	return i < len(vs) && vs[i] == v
}
