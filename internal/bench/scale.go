package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// The scale experiment measures the 10⁸-edge build path end to end:
// parallel CSR construction, streaming construction, binary v2
// save, copying load, mmap load, and memory-bounded labeling — and
// asserts along the way that every path produces the identical graph.
// Timings are reported as medians over ScaleParams.Runs repetitions
// (this bench host sees double-digit CPU steal, so single timings are
// noise); the structural outputs (edge count, file bytes, index
// entries) are fully deterministic and are what benchcompare gates.

// ScaleParams configures RunScale.
type ScaleParams struct {
	Family    string
	N         int
	AvgDegree float64
	Seed      int64
	// Budget is the per-vertex label cap for the labeling phase;
	// 0 skips labeling (pure build/IO measurement).
	Budget int
	// Runs is the number of timing repetitions per phase; the ordering
	// phase always runs once, the labeling phase at least three times.
	Runs int
	// Dir is the scratch directory for the file phases ("" = temp).
	Dir string
}

// ScalePhase is one measured phase of the scale experiment.
type ScalePhase struct {
	Phase         string    `json:"phase"`
	MedianSeconds float64   `json:"median_seconds"`
	RunSeconds    []float64 `json:"run_seconds"`
}

// ScaleRecord is the serializable result of one scale run. The
// non-timing fields are fully determined by (family, n, deg, seed,
// budget) and the code: benchcompare fails when any of them moves.
type ScaleRecord struct {
	Family    string  `json:"family"`
	N         int     `json:"n"`
	AvgDegree float64 `json:"avg_degree"`
	Seed      int64   `json:"seed"`
	Budget    int     `json:"budget,omitempty"`
	Runs      int     `json:"runs"`
	// Workers is the labeling phase's goroutine count (0 in records
	// that predate the parallel labeler: one serial TOL loop).
	Workers int `json:"workers,omitempty"`

	Edges         int64 `json:"edges"`
	FileBytes     int64 `json:"file_bytes"`
	IndexEntries  int64 `json:"index_entries,omitempty"`
	IndexBytes    int64 `json:"index_bytes,omitempty"`
	MaxLabel      int   `json:"max_label,omitempty"`
	OverflowedIn  int   `json:"overflowed_in,omitempty"`
	OverflowedOut int   `json:"overflowed_out,omitempty"`

	Phases []ScalePhase `json:"phases"`
}

// RunScale runs the scale experiment. It returns an error (rather
// than a record) if any two build paths disagree — that is a
// correctness bug, not a measurement.
func RunScale(p ScaleParams, progress func(string)) (*ScaleRecord, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("bench: scale n %d must be positive", p.N)
	}
	if p.Runs < 1 {
		p.Runs = 1
	}
	params := gen.Params{Family: gen.Family(p.Family), N: p.N, AvgDegree: p.AvgDegree, Seed: p.Seed}
	rec := &ScaleRecord{
		Family: p.Family, N: p.N, AvgDegree: p.AvgDegree, Seed: p.Seed,
		Budget: p.Budget, Runs: p.Runs,
	}

	dir := p.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "drscale")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "scale.bin")

	var g *graph.Digraph
	phase, err := timed("generate", p.Runs, func() error {
		var err error
		g, err = gen.Generate(params)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Phases = append(rec.Phases, phase)
	rec.Edges = g.NumEdges()
	report(progress, "scale generate: %d vertices, %d edges, median %.3fs",
		p.N, rec.Edges, phase.MedianSeconds)

	var gs *graph.Digraph
	phase, err = timed("generate-stream", p.Runs, func() error {
		var err error
		gs, err = gen.GenerateStreamed(params)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Phases = append(rec.Phases, phase)
	if err := sameCSR(g, gs); err != nil {
		return nil, fmt.Errorf("bench: streamed build diverged from in-RAM build: %w", err)
	}
	gs = nil
	report(progress, "scale generate-stream: identical CSR, median %.3fs", phase.MedianSeconds)

	phase, err = timed("save-v2", p.Runs, func() error {
		return graph.SaveFile(path, g, true)
	})
	if err != nil {
		return nil, err
	}
	rec.Phases = append(rec.Phases, phase)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	rec.FileBytes = st.Size()
	report(progress, "scale save-v2: %d bytes, median %.3fs", rec.FileBytes, phase.MedianSeconds)

	var gc *graph.Digraph
	phase, err = timed("load-copy", p.Runs, func() error {
		var err error
		gc, err = graph.LoadFile(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Phases = append(rec.Phases, phase)
	if err := sameCSR(g, gc); err != nil {
		return nil, fmt.Errorf("bench: copy-loaded graph diverged: %w", err)
	}
	gc = nil
	report(progress, "scale load-copy: median %.3fs", phase.MedianSeconds)

	var gm *graph.Mapped
	phase, err = timed("load-mmap", p.Runs, func() error {
		if gm != nil {
			if err := gm.Close(); err != nil {
				return err
			}
		}
		var err error
		gm, err = graph.MapFile(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Phases = append(rec.Phases, phase)
	if err := sameCSR(g, gm.Digraph); err != nil {
		gm.Close()
		return nil, fmt.Errorf("bench: mmap-loaded graph diverged: %w", err)
	}
	if err := gm.Close(); err != nil {
		return nil, err
	}
	report(progress, "scale load-mmap: median %.3fs", phase.MedianSeconds)

	if p.Budget > 0 {
		var ord *order.Ordering
		phase, err = timed("order", 1, func() error {
			ord = order.Compute(g)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.Phases = append(rec.Phases, phase)
		report(progress, "scale order: %.3fs", phase.MedianSeconds)

		// The builder reachlab.Build routes LabelBudget to, at the
		// host's core count; the index does not depend on it.
		opt := drl.Options{Workers: runtime.GOMAXPROCS(0)}
		rec.Workers = opt.Workers
		var b *label.Budgeted
		phase, err = timed("label-budgeted", max(p.Runs, 3), func() error {
			var err error
			b, err = drl.BuildBatchBudgeted(g, ord, drl.DefaultBatchParams(), p.Budget, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		rec.Phases = append(rec.Phases, phase)
		x := b.Index()
		rec.IndexEntries = x.Entries()
		rec.IndexBytes = x.SizeBytes()
		rec.MaxLabel = x.MaxLabelSize()
		rec.OverflowedIn, rec.OverflowedOut = b.Overflowed()
		report(progress, "scale label-budgeted: %d entries, %d/%d overflowed, %.3fs",
			rec.IndexEntries, rec.OverflowedIn, rec.OverflowedOut, phase.MedianSeconds)
	}
	return rec, nil
}

// timed runs f runs times and reports the median wall time. Every run
// must succeed.
func timed(name string, runs int, f func() error) (ScalePhase, error) {
	ph := ScalePhase{Phase: name, RunSeconds: make([]float64, 0, runs)}
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return ph, fmt.Errorf("bench: scale phase %s: %w", name, err)
		}
		ph.RunSeconds = append(ph.RunSeconds, time.Since(start).Seconds())
	}
	sorted := append([]float64(nil), ph.RunSeconds...)
	sort.Float64s(sorted)
	ph.MedianSeconds = sorted[len(sorted)/2]
	return ph, nil
}

// sameCSR verifies two graphs expose identical adjacency, direction by
// direction — the byte-identity contract between the build paths.
func sameCSR(a, b *graph.Digraph) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape differs: %d/%d vertices, %d/%d edges",
			a.NumVertices(), b.NumVertices(), a.NumEdges(), b.NumEdges())
	}
	for v := graph.VertexID(0); int(v) < a.NumVertices(); v++ {
		if err := sameAdj(a.OutNeighbors(v), b.OutNeighbors(v), "out", v); err != nil {
			return err
		}
		if err := sameAdj(a.InNeighbors(v), b.InNeighbors(v), "in", v); err != nil {
			return err
		}
	}
	return nil
}

func sameAdj(a, b []graph.VertexID, dir string, v graph.VertexID) error {
	if len(a) != len(b) {
		return fmt.Errorf("v%d %s-degree differs: %d vs %d", v, dir, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("v%d %s-adjacency differs at %d: %d vs %d", v, dir, i, a[i], b[i])
		}
	}
	return nil
}
