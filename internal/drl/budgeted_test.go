package drl

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// The tests below pin the five-point contract of BuildBatchBudgeted
// (DESIGN.md §5, "Budgeted labels"), one named test per point, over the
// whole grid of budgetGraphs × budgetGrid × batchGrid. Every graph is
// small enough for an all-pairs BFS oracle.

var (
	budgetGrid = []int{1, 2, 4, 8, math.MaxInt}
	batchGrid  = []BatchParams{{2, 2}, {1, 1}, {64, 1}}
)

// budgetGraphs returns seeded DAG and cyclic graphs, n ≤ 200.
func budgetGraphs(t *testing.T) map[string]*graph.Digraph {
	t.Helper()
	gs := map[string]*graph.Digraph{
		"paper":      graph.PaperExample(),
		"dag-sparse": randomDAG(120, 200, 21),
		"dag-dense":  randomDAG(60, 500, 22),
		"dag-wide":   randomDAG(200, 900, 26),
		"cyc-sparse": randomDigraph(150, 190, 23),
		"cyc-dense":  randomDigraph(50, 400, 24),
		"cyc-mid":    randomDigraph(200, 500, 25),
	}
	for _, fam := range []gen.Family{"citation", "web", "social"} {
		g, err := gen.Generate(gen.Params{Family: fam, N: 160, AvgDegree: 3, Seed: 27})
		if err != nil {
			t.Fatal(err)
		}
		gs["gen-"+string(fam)] = g
	}
	return gs
}

// reachMatrix is the BFS oracle: m[s][t] iff s reaches t (reflexive).
func reachMatrix(g *graph.Digraph) [][]bool {
	n := g.NumVertices()
	m := make([][]bool, n)
	for s := range m {
		m[s] = make([]bool, n)
		graph.BFS(g, graph.VertexID(s), func(v graph.VertexID) bool {
			m[s][v] = true
			return true
		})
	}
	return m
}

// budgetCell is one (graph, budget, batch params) point of the grid
// with the index BuildBatchBudgeted builds for it at 2 workers.
type budgetCell struct {
	g      *graph.Digraph
	ord    *order.Ordering
	reach  [][]bool
	budget int
	bp     BatchParams
	b      *label.Budgeted
}

func forBudgetGrid(t *testing.T, f func(t *testing.T, c budgetCell)) {
	for name, g := range budgetGraphs(t) {
		c := budgetCell{g: g, ord: order.Compute(g), reach: reachMatrix(g)}
		for _, c.budget = range budgetGrid {
			for _, c.bp = range batchGrid {
				budget := fmt.Sprint(c.budget)
				if c.budget == math.MaxInt {
					budget = "inf"
				}
				t.Run(fmt.Sprintf("%s/b%s/batch%d-%g", name, budget, c.bp.InitialSize, c.bp.Factor), func(t *testing.T) {
					var err error
					if c.b, err = BuildBatchBudgeted(g, c.ord, c.bp, c.budget, Options{Workers: 2}); err != nil {
						t.Fatal(err)
					}
					if got := c.b.Index().MaxLabelSize(); got > c.budget {
						t.Fatalf("MaxLabelSize = %d exceeds budget %d", got, c.budget)
					}
					f(t, c)
				})
			}
		}
	}
}

// Contract point 1: every stored entry is a fact about the graph.
func TestBudgetedEntriesFactual(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		x := c.b.Index()
		for w := graph.VertexID(0); int(w) < c.g.NumVertices(); w++ {
			for _, r := range x.InLabels(w) {
				if v := c.ord.VertexAt(r); !c.reach[v][w] {
					t.Fatalf("rank %d (v%d) ∈ L_in(v%d) but v%d does not reach v%d", r, v, w, v, w)
				}
			}
			for _, r := range x.OutLabels(w) {
				if v := c.ord.VertexAt(r); !c.reach[w][v] {
					t.Fatalf("rank %d (v%d) ∈ L_out(v%d) but v%d does not reach v%d", r, v, w, w, v)
				}
			}
		}
	})
}

// Contract point 2: a label miss between a complete L_out(s) and a
// complete L_in(t) proves s cannot reach t — no fallback consulted.
func TestBudgetedFullFlagMissIsUnreachable(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		x := c.b.Index()
		n := c.g.NumVertices()
		for s := graph.VertexID(0); int(s) < n; s++ {
			if !c.b.OutFull(s) {
				continue
			}
			for u := graph.VertexID(0); int(u) < n; u++ {
				if s != u && c.b.InFull(u) && !x.Reachable(s, u) && c.reach[s][u] {
					t.Fatalf("v%d reaches v%d, both lists are marked complete, and the labels miss", s, u)
				}
			}
		}
	})
}

// Contract point 3: answers equal the BFS oracle at every budget ≥ 1.
func TestBudgetedAnswersMatchBFS(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		n := c.g.NumVertices()
		for s := graph.VertexID(0); int(s) < n; s++ {
			for u := graph.VertexID(0); int(u) < n; u++ {
				if got := c.b.Reachable(s, u); got != c.reach[s][u] {
					t.Fatalf("q(%d,%d) = %v, want %v", s, u, got, c.reach[s][u])
				}
			}
		}
	})
}

// diffBudgeted describes the first difference between two budgeted
// indexes — label lists, then completeness marks — or returns "".
func diffBudgeted(a, b *label.Budgeted) string {
	if d := a.Index().Diff(b.Index()); d != "" {
		return d
	}
	for v := graph.VertexID(0); int(v) < a.Index().NumVertices(); v++ {
		if a.InFull(v) != b.InFull(v) || a.OutFull(v) != b.OutFull(v) {
			return fmt.Sprintf("completeness marks of v%d: in %v vs %v, out %v vs %v",
				v, a.InFull(v), b.InFull(v), a.OutFull(v), b.OutFull(v))
		}
	}
	return ""
}

// Contract point 4: the output is a function of (graph, order, budget,
// batch params) — Workers changes nothing, entries or marks.
func TestBudgetedIndependentOfWorkers(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		for _, p := range []int{1, 4, 8} {
			other, err := BuildBatchBudgeted(c.g, c.ord, c.bp, c.budget, Options{Workers: p})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffBudgeted(c.b, other); d != "" {
				t.Fatalf("2 workers vs %d: %s", p, d)
			}
		}
	})
}

// Contract point 5, first half: a budget no list reaches gives TOL's
// index byte for byte, every list complete.
func TestBudgetedUncappedEqualsTOL(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		full := tol.Build(c.g, c.ord)
		if c.budget < full.MaxLabelSize() {
			return
		}
		if !bytes.Equal(indexBytes(t, full), indexBytes(t, c.b.Index())) {
			t.Fatalf("budget %d ≥ Δ = %d but the index differs from TOL: %s",
				c.budget, full.MaxLabelSize(), full.Diff(c.b.Index()))
		}
		if in, out := c.b.Overflowed(); in != 0 || out != 0 {
			t.Fatalf("budget %d ≥ Δ = %d overflowed: in=%d out=%d", c.budget, full.MaxLabelSize(), in, out)
		}
	})
}

// subset reports whether rank-sorted a ⊆ rank-sorted b.
func subset(a, b []order.Rank) bool {
	j := 0
	for _, r := range a {
		for j < len(b) && b[j] < r {
			j++
		}
		if j == len(b) || b[j] != r {
			return false
		}
	}
	return true
}

// Contract point 5, second half: when the cap bites, the batch labeler
// differs from the serial reference only by omission. Wherever the
// serial list did not overflow, the batch list did not either and
// holds a subset of it: the serial rounds run an un-pruned BFS and so
// offer entries beyond a label-blocked vertex that the batch labeler
// never reaches, never the other way round.
func TestBudgetedOmitsOnlyVersusSerial(t *testing.T) {
	forBudgetGrid(t, func(t *testing.T, c budgetCell) {
		serial, err := tol.BuildBudgeted(c.g, c.ord, c.budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		sx, bx := serial.Index(), c.b.Index()
		for v := graph.VertexID(0); int(v) < c.g.NumVertices(); v++ {
			if serial.InFull(v) {
				if !c.b.InFull(v) {
					t.Fatalf("L_in(v%d) overflowed in the batch build only", v)
				}
				if !subset(bx.InLabels(v), sx.InLabels(v)) {
					t.Fatalf("L_in(v%d): batch %v ⊄ serial %v", v, bx.InLabels(v), sx.InLabels(v))
				}
			}
			if serial.OutFull(v) {
				if !c.b.OutFull(v) {
					t.Fatalf("L_out(v%d) overflowed in the batch build only", v)
				}
				if !subset(bx.OutLabels(v), sx.OutLabels(v)) {
					t.Fatalf("L_out(v%d): batch %v ⊄ serial %v", v, bx.OutLabels(v), sx.OutLabels(v))
				}
			}
		}
	})
}

// TestBudgetedRaceStress is the -race workout for the capped appends
// and the per-worker arenas: 8 workers, repeated, against the 1-worker
// build of the same cell.
func TestBudgetedRaceStress(t *testing.T) {
	g := randomDigraph(150, 600, 91)
	ord := order.Compute(g)
	reps := 3
	if testing.Short() {
		reps = 1
	}
	for _, budget := range []int{1, 3, 16} {
		want, err := BuildBatchBudgeted(g, ord, DefaultBatchParams(), budget, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < reps; rep++ {
			got, err := BuildBatchBudgeted(g, ord, DefaultBatchParams(), budget, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffBudgeted(want, got); d != "" {
				t.Fatalf("budget %d rep %d: 8 workers differ from 1: %s", budget, rep, d)
			}
		}
	}
}

func TestBudgetedRejectsBadBudget(t *testing.T) {
	g := graph.PaperExample()
	for _, budget := range []int{0, -3} {
		if _, err := BuildBatchBudgeted(g, order.Compute(g), DefaultBatchParams(), budget, Options{}); err == nil {
			t.Errorf("budget %d accepted", budget)
		}
	}
	if _, err := BuildBatchBudgeted(g, order.Compute(g), BatchParams{Factor: 0.1}, 4, Options{}); err == nil {
		t.Error("bad batch params accepted")
	}
}

// TestBudgetedCancel: a cancelled context ends the build with
// context.Canceled, and every worker goroutine has exited by then.
func TestBudgetedCancel(t *testing.T) {
	g := randomDigraph(3000, 12000, 5)
	ord := order.Compute(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		if _, err := BuildBatchBudgeted(g, ord, DefaultBatchParams(), 4, Options{Ctx: ctx, Workers: p}); err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", p, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after a canceled build", before, after)
	}
}
