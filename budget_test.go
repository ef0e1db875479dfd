package reachlab

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLabelBudgetOption pins the public memory-bounded mode: answers
// stay exact for any budget, and stats report the cap and overflow.
func TestLabelBudgetOption(t *testing.T) {
	g, err := GenerateGraph("social", 300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(context.Background(), g, Options{Method: MethodTOL})
	if err != nil {
		t.Fatal(err)
	}
	var grid []Options
	for _, budget := range []int{1, 4, 1 << 20} {
		grid = append(grid,
			Options{LabelBudget: budget},
			Options{LabelBudget: budget, Method: MethodDRLShared, Workers: 2})
	}
	for _, opts := range grid {
		budget := opts.LabelBudget
		idx, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if budget == 1<<20 && !idx.LabelIndex().Equal(full.LabelIndex()) {
			t.Fatalf("%+v: unbounded budget diverged from the full index: %s",
				opts, full.LabelIndex().Diff(idx.LabelIndex()))
		}
		st := idx.Stats()
		if st.LabelBudget != budget {
			t.Fatalf("Stats().LabelBudget = %d, want %d", st.LabelBudget, budget)
		}
		if st.MaxLabelSize > budget {
			t.Fatalf("MaxLabelSize = %d exceeds budget %d", st.MaxLabelSize, budget)
		}
		if budget == 1<<20 && (st.OverflowedIn != 0 || st.OverflowedOut != 0) {
			t.Fatalf("unbounded budget overflowed: %+v", st)
		}
		if budget == 1 && st.OverflowedIn == 0 && st.OverflowedOut == 0 {
			t.Fatal("budget 1 on a social graph should overflow somewhere")
		}
		// Exactness: spot-check every pair of a vertex sample against
		// the full index (itself BFS-verified elsewhere).
		sample := []VertexID{0, 1, 7, 50, 123, 299}
		var pairs []Pair
		for _, s := range sample {
			for _, u := range sample {
				if got, want := idx.Reachable(s, u), full.Reachable(s, u); got != want {
					t.Fatalf("budget %d: q(%d,%d) = %v, want %v", budget, s, u, got, want)
				}
				pairs = append(pairs, Pair{S: s, T: u})
			}
		}
		batch := idx.ReachableBatch(pairs)
		for i, p := range pairs {
			if want := full.Reachable(p.S, p.T); batch[i] != want {
				t.Fatalf("budget %d: batch q(%d,%d) = %v, want %v", budget, p.S, p.T, batch[i], want)
			}
		}
	}
}

// TestBudgetedIndexRoundTrip: a budgeted index is a file like any
// other. At every budget, the index OpenIndex brings back with the graph
// answers every pair as BFS and as the built index do, reports the same
// Stats, and writes the file's bytes again. What the file cannot be
// opened with is refused before a query: no graph, and another graph.
func TestBudgetedIndexRoundTrip(t *testing.T) {
	g := randomCyclicGraph(90, 130, 19)
	other := randomCyclicGraph(90, 130, 18)
	n := g.NumVertices()
	dir := t.TempDir()
	overflowed := 0
	for _, budget := range []int{1, 2, 8, math.MaxInt} {
		opts := Options{LabelBudget: budget}
		built, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		var file bytes.Buffer
		if _, err := built.WriteTo(&file); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		path := filepath.Join(dir, "b.idx")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenIndex(path, g)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for s := VertexID(0); int(s) < n; s++ {
			for u := VertexID(0); int(u) < n; u++ {
				want := g.ReachableBFS(s, u)
				if a, b := built.Reachable(s, u), loaded.Reachable(s, u); a != want || b != want {
					t.Fatalf("%+v: q(%d,%d) = %v built, %v from the file, BFS says %v", opts, s, u, a, b, want)
				}
			}
		}
		st := loaded.Stats()
		if st != built.Stats() || st.LabelBudget != budget {
			t.Fatalf("%+v: Stats %+v from the file, %+v built", opts, st, built.Stats())
		}
		overflowed += st.OverflowedIn + st.OverflowedOut
		var again bytes.Buffer
		if _, err := loaded.WriteTo(&again); err != nil || !bytes.Equal(file.Bytes(), again.Bytes()) {
			t.Fatalf("%+v: the loaded index writes %d bytes (%v), the file has %d", opts, again.Len(), err, file.Len())
		}

		if _, err := ReadIndex(bytes.NewReader(file.Bytes())); err == nil || !strings.Contains(err.Error(), "OpenIndex") {
			t.Errorf("%+v: without a graph: err = %v, want one naming OpenIndex", opts, err)
		}
		if _, err := OpenIndex(path, other); err == nil || !strings.Contains(err.Error(), "wrong graph") {
			t.Errorf("%+v: with another graph: err = %v, want a wrong-graph refusal", opts, err)
		}
	}
	if overflowed == 0 {
		t.Fatal("no budget overflowed any list: the fallback from a file is untested")
	}
}

// TestLabelBudgetMethods pins which methods take a label budget and
// what BuildStats then reports: the shared-memory batch labeler (also
// the default when Method is empty) at the requested worker count. It
// is the one budgeted builder: every other method is rejected with an
// error naming the one that takes a budget.
func TestLabelBudgetMethods(t *testing.T) {
	g, err := GenerateGraph("citation", 50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts        Options
		wantMethod  Method
		wantWorkers int
	}{
		{Options{LabelBudget: 4}, MethodDRLShared, 4},
		{Options{LabelBudget: 4, Workers: 3}, MethodDRLShared, 3},
		{Options{LabelBudget: 4, Method: MethodDRLShared, Workers: 2}, MethodDRLShared, 2},
	} {
		idx, err := Build(context.Background(), g, tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if st := idx.BuildStats(); st.Method != tc.wantMethod || st.Workers != tc.wantWorkers {
			t.Errorf("%+v: BuildStats reports %s with %d workers, want %s with %d",
				tc.opts, st.Method, st.Workers, tc.wantMethod, tc.wantWorkers)
		}
	}
	for _, m := range []Method{MethodTOL, MethodDRL, MethodDRLBasic, MethodDRLBatch} {
		if _, err := Build(context.Background(), g, Options{LabelBudget: 4, Method: m}); err == nil || !strings.Contains(err.Error(), "MethodDRLShared") {
			t.Errorf("LabelBudget with the method %q: err = %v, want a refusal naming MethodDRLShared", m, err)
		}
	}
}

// TestLabelBudgetIndependentOfWorkers: the budgeted index is the same
// index — entries and overflow marks — whatever the worker count, and
// agrees with BFS on every sampled query.
func TestLabelBudgetIndependentOfWorkers(t *testing.T) {
	g, err := GenerateGraph("web", 600, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(context.Background(), g, Options{LabelBudget: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := ref.Stats(); st.OverflowedIn+st.OverflowedOut == 0 {
		t.Fatal("budget 3 overflowed nothing — the cap is untested")
	}
	for _, p := range []int{2, 4, 8} {
		idx, err := Build(context.Background(), g, Options{LabelBudget: 3, Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.LabelIndex().Equal(idx.LabelIndex()) {
			t.Fatalf("workers %d: %s", p, ref.LabelIndex().Diff(idx.LabelIndex()))
		}
		if a, b := ref.Stats(), idx.Stats(); a != b {
			t.Fatalf("workers %d: stats %+v, want %+v", p, b, a)
		}
		for s := VertexID(0); int(s) < g.NumVertices(); s += 13 {
			for u := VertexID(0); int(u) < g.NumVertices(); u += 7 {
				if got, want := idx.Reachable(s, u), g.ReachableBFS(s, u); got != want {
					t.Fatalf("workers %d: q(%d,%d) = %v, BFS says %v", p, s, u, got, want)
				}
			}
		}
	}
}

// TestLabelBudgetBuildCanceled: a canceled context ends the parallel
// budgeted build with the context's error and leaves no goroutine
// behind.
func TestLabelBudgetBuildCanceled(t *testing.T) {
	g, err := GenerateGraph("citation", 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{LabelBudget: 8, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := Build(ctx, g, Options{LabelBudget: 8, Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after the canceled builds", before, after)
	}
}

// TestLabelBudgetWithCondenseSCC: a budgeted index of the SCC
// condensation, queried through the component table, answers as BFS
// does on the graph, for every budgeted build path.
func TestLabelBudgetWithCondenseSCC(t *testing.T) {
	g, err := GenerateGraph("social", 120, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{LabelBudget: 2},
		{LabelBudget: 1, Method: MethodDRLShared, Workers: 3},
		{LabelBudget: 2, Workers: 1},
	} {
		idx, comp := buildCondensed(t, g, opts)
		for s := VertexID(0); int(s) < g.NumVertices(); s += 7 {
			for u := VertexID(0); int(u) < g.NumVertices(); u += 11 {
				if got, want := idx.Reachable(VertexID(comp[s]), VertexID(comp[u])), g.ReachableBFS(s, u); got != want {
					t.Fatalf("%+v: q(%d,%d) = %v, want %v", opts, s, u, got, want)
				}
			}
		}
	}
}
