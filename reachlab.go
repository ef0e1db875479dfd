package reachlab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/drl"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// Method selects the index-construction algorithm. Every method
// produces the identical TOL index; they differ only in build cost
// and in whether they run on the simulated distributed cluster.
type Method string

// The available construction methods.
const (
	// MethodTOL is the serial baseline (Algorithm 1): correct and
	// simple, but single-threaded by construction.
	MethodTOL Method = "tol"
	// MethodDRLBasic is the basic filtering-and-refinement method
	// DRL⁻ (Theorem 3) on the vertex-centric system. Slow; provided
	// for completeness and the paper's ablations.
	MethodDRLBasic Method = "drl-basic"
	// MethodDRL is the improved method (Algorithm 3) on the
	// vertex-centric system: MethodDRLBatch with every vertex in one
	// batch.
	MethodDRL Method = "drl"
	// MethodDRLBatch is DRL_b (Algorithm 4), the paper's best: batch
	// labeling on the vertex-centric system. The default.
	MethodDRLBatch Method = "drl-batch"
	// MethodDRLShared is the shared-memory multi-core DRL_b^M: no
	// message passing, Workers goroutines over one address space.
	MethodDRLShared Method = "drl-shared"
)

// Options configures Build.
type Options struct {
	// Method picks the algorithm (default MethodDRLBatch).
	Method Method
	// Workers is the number of computation nodes (or goroutines for
	// MethodDRLShared). Default 4; MethodTOL ignores it.
	Workers int
	// BatchSize and BatchFactor are DRL_b's b and k (defaults 2, 2).
	BatchSize int
	// BatchFactor is the geometric growth factor k of the batch
	// sequence; k = 1 means fixed-size batches.
	BatchFactor float64
	// NetworkLatency is the simulated per-superstep barrier latency
	// of the cluster interconnect. Zero disables network simulation;
	// it never applies to MethodTOL or MethodDRLShared.
	NetworkLatency time.Duration
	// Obs receives build-time counters and superstep traces; nil
	// disables observability (see MetricsRegistry).
	Obs *MetricsRegistry
	// LabelBudget > 0 caps every per-vertex label list at that many
	// entries per direction (the memory-bounded mode for graphs whose
	// full 2-hop cover does not fit): label entries stay exact, lists
	// that hit the cap are flagged incomplete, and queries touching a
	// flagged endpoint fall back to a label-pruned BFS over the graph.
	// The index is built by the shared-memory batch labeler (Method
	// empty or MethodDRLShared; Workers, BatchSize and BatchFactor
	// apply, and the result does not depend on Workers); every other
	// method is rejected. The resulting index retains the graph, and
	// its file is reopened with it (OpenIndex).
	LabelBudget int
}

func (o Options) method() Method {
	if o.Method == "" {
		return MethodDRLBatch
	}
	return o.Method
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 4
	}
	return o.Workers
}

func (o Options) batchParams() drl.BatchParams {
	bp := drl.DefaultBatchParams()
	if o.BatchSize > 0 {
		bp.InitialSize = o.BatchSize
	}
	if o.BatchFactor > 0 {
		bp.Factor = o.BatchFactor
	}
	return bp
}

func (o Options) net() netsim.Model {
	if o.NetworkLatency <= 0 {
		return netsim.Zero()
	}
	m := netsim.Commodity()
	m.BarrierLatency = o.NetworkLatency
	return m
}

// BuildStats describes the cost of an index construction. The
// vertex-centric methods fill in their cost record, the sum of its rows
// (the embedded Metrics: supersteps, messages, bytes, fault handling —
// zero in process, where there is no process to lose — and Phases, the
// build's time by phase); the other methods leave it zero.
type BuildStats struct {
	Method   Method
	Workers  int
	WallTime time.Duration
	// Compute and Communication are Fig. 5's split of the supersteps:
	// their PreStep and Superstep phases, and their decode, encode,
	// exchange and routing plus the simulated wire time.
	Compute       time.Duration
	Communication time.Duration
	pregel.Metrics
}

// Index is a reachability index over a graph. Full builds are
// self-contained: queries never touch the graph, so the index can be
// serialized and served from a single machine regardless of where the
// graph lives. A budgeted build (Options.LabelBudget) is the
// exception — it retains the graph for fallback queries, so its file
// is served from a machine that holds the graph too.
type Index struct {
	// q is the representation that answers: the plain label index or the
	// budgeted one. newIndex picks it once; the query methods ask it and
	// nothing else.
	q    plan
	idx  *label.Index    // the label payload: Stats, WriteTo, LabelIndex
	bidx *label.Budgeted // non-nil for memory-bounded builds; retains the graph
	g    *graph.Digraph  // the indexed graph, when available (witness paths)
	// fp identifies the indexed graph, so that the index's file can say
	// which graph it belongs to: set by a build or brought back from a
	// file; nil on an epoch of an Updater or DynamicIndex, whose graph —
	// base plus overlay — is no file anybody holds.
	fp *graph.Fingerprint
	// adj, on an epoch an Updater published, holds the out-neighbor lists
	// that differ from g as of that epoch's cut (see outNeighbors).
	adj   *graph.Overlay[graph.VertexID]
	stats BuildStats
}

// plan is what both representations of an index answer: label.Index
// and label.Budgeted as they are. The two one-source sweeps run under
// the request's context (a budgeted index may traverse the graph for
// them) and fail only cancelled.
type plan interface {
	Reachable(s, t VertexID) bool
	ReachableBatch(pairs []Pair) []bool
	ReachableFrom(ctx context.Context, s VertexID, targets []VertexID) ([]bool, error)
	ReachableSetSize(ctx context.Context, s VertexID) (int, error)
}

// newIndex wraps a built, loaded or published label index — bidx its
// budgeted form, or nil — and resolves the plan its queries run on.
func newIndex(idx *label.Index, bidx *label.Budgeted) *Index {
	x := &Index{q: idx, idx: idx, bidx: bidx}
	if bidx != nil {
		x.q = bidx
	}
	return x
}

// Build constructs the reachability index for g. The context stops
// the build (checked between parallel rounds) with its error, wrapped.
func Build(ctx context.Context, g *Graph, opts Options) (*Index, error) {
	if g == nil {
		return nil, errors.New("reachlab: nil graph")
	}
	gd := g.d
	ord := order.Compute(gd)
	method, workers, what := opts.method(), opts.workers(), "index"
	start := time.Now()

	var (
		idx  *label.Index
		bidx *label.Budgeted
		met  pregel.Metrics
		err  error
	)
	dopt := drl.DistOptions{Workers: workers, Net: opts.net(), Ctx: ctx, Obs: opts.Obs}
	sopt := drl.Options{Workers: workers, Ctx: ctx, Obs: opts.Obs}
	switch {
	case opts.LabelBudget > 0:
		// One builder per budget: the cap rides on the shared-memory
		// batch labeler, and no other method has a capped variant.
		if opts.Method != "" && opts.Method != MethodDRLShared {
			return nil, fmt.Errorf("reachlab: LabelBudget requires MethodDRLShared (the default when Method is empty), not %q", opts.Method)
		}
		method, what = MethodDRLShared, "budgeted index"
		if bidx, err = drl.BuildBatchBudgeted(gd, ord, opts.batchParams(), opts.LabelBudget, sopt); err == nil {
			idx = bidx.Index()
		}
	case method == MethodTOL:
		idx, err = tol.BuildCancelable(ctx, gd, ord)
	case method == MethodDRLShared:
		idx, err = drl.BuildBatch(gd, ord, opts.batchParams(), sopt)
	case method == MethodDRL:
		idx, met, err = drl.BuildDistributed(gd, ord, dopt)
	case method == MethodDRLBasic:
		idx, met, err = drl.BuildDistributedBasic(gd, ord, dopt)
	case method == MethodDRLBatch:
		idx, met, err = drl.BuildDistributedBatch(gd, ord, opts.batchParams(), dopt)
	default:
		return nil, fmt.Errorf("reachlab: unknown method %q", method)
	}
	if err != nil {
		return nil, fmt.Errorf("reachlab: building %s: %w", what, err)
	}
	x := newIndex(idx, bidx)
	fp := gd.Fingerprint()
	x.g, x.fp = gd, &fp
	x.stats = buildStats(method, workers, start, met)
	return x, nil
}

// buildStats ends a build's record (met is zero for the methods that
// run no supersteps).
func buildStats(method Method, workers int, start time.Time, met pregel.Metrics) BuildStats {
	return BuildStats{Method: method, Workers: workers, WallTime: time.Since(start),
		Compute: met.ComputeTime(), Communication: met.TotalComm(), Metrics: met}
}

// Reachable answers q(s, t) from the index alone: true iff there is a
// path from s to t in the indexed graph.
func (x *Index) Reachable(s, t VertexID) bool { return x.q.Reachable(s, t) }

// Pair is one (source, target) query of a batch.
type Pair = label.Pair

// ReachableBatch answers q(s, t) for every pair, in the callers'
// order, with answers identical to calling Reachable per pair. The
// batch is processed sorted by source so consecutive pairs sharing a
// source reuse its out-label range — the cheap locality win the batch
// HTTP endpoint exists to expose.
func (x *Index) ReachableBatch(pairs []Pair) []bool { return x.q.ReachableBatch(pairs) }

// NumVertices returns the number of vertices the index covers.
func (x *Index) NumVertices() int { return x.idx.NumVertices() }

// BuildStats returns the construction cost record.
func (x *Index) BuildStats() BuildStats { return x.stats }

// LabelIndex exposes the underlying label index for in-module
// tooling (the benchmark harness and the metamorphic tests compare
// indexes through it).
func (x *Index) LabelIndex() *label.Index { return x.idx }

// IndexStats summarizes the index payload.
type IndexStats struct {
	Entries int64 // total label entries Σ(|L_in|+|L_out|)
	// Bytes is the index size as the paper's Table VI accounts it: 4
	// bytes per entry plus an 8-byte offset per vertex and direction. It
	// is neither what the index occupies in memory (Resident) nor on disk
	// (WriteTo returns that).
	Bytes int64
	// Resident is the bytes the label layout holds in memory: most ranks
	// take two bytes there (internal/label's two-tier layout).
	Resident     int64
	MaxLabelSize int     // Δ of §II-A
	AvgLabelSize float64 // mean label size per side

	// Budgeted-build fields (zero for full builds).
	LabelBudget   int // the per-vertex per-direction cap
	OverflowedIn  int // vertices whose in-label list is incomplete
	OverflowedOut int // vertices whose out-label list is incomplete
}

// Stats returns the index payload summary.
func (x *Index) Stats() IndexStats {
	st := IndexStats{
		Entries:      x.idx.Entries(),
		Bytes:        x.idx.SizeBytes(),
		Resident:     x.idx.Resident(),
		MaxLabelSize: x.idx.MaxLabelSize(),
		AvgLabelSize: x.idx.AvgLabelSize(),
	}
	if x.bidx != nil {
		st.LabelBudget = x.bidx.Budget()
		st.OverflowedIn, st.OverflowedOut = x.bidx.Overflowed()
	}
	return st
}

// WriteTo serializes the index as one file (DESIGN.md §11) — the labels
// and whichever of the graph's fingerprint and the label budget with its
// flags the index has — and returns its size.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	e := label.Extras{Graph: x.fp}
	if x.bidx != nil {
		e.Budget = x.bidx.Budget()
		e.InFull, e.OutFull = x.bidx.Flags()
	}
	return x.idx.WriteWith(w, e)
}

// ReadIndex deserializes an index written by WriteTo. It has no graph
// to give a budgeted index, which OpenIndex opens.
func ReadIndex(r io.Reader) (*Index, error) { return readIndex(r, nil) }

// OpenIndex reads the index file at path and, if g is not nil, attaches
// g to it under AttachGraph's rule: another graph than the indexed one
// is an error here, not a wrong answer later. A budgeted index needs g
// to answer at all.
func OpenIndex(path string, g *Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readIndex(f, g)
}

func readIndex(r io.Reader, g *Graph) (*Index, error) {
	idx, e, err := label.ReadWith(r)
	if err != nil {
		return nil, err
	}
	x := newIndex(idx, nil)
	x.fp = e.Graph
	if g != nil {
		err = x.AttachGraph(g)
	} else if e.Budget > 0 {
		err = fmt.Errorf("reachlab: this index keeps at most %d labels per list and needs its graph for the rest: open it with OpenIndex and the graph it was built over (-graph, from the command line)", e.Budget)
	}
	if err != nil {
		return nil, err
	}
	if e.Budget == 0 {
		return x, nil
	}
	// The graph is the indexed one, so the capped form can be made over it.
	b := newIndex(idx, label.NewBudgeted(idx, g.d, e.Budget, e.InFull, e.OutFull))
	b.g, b.fp = x.g, x.fp
	return b, nil
}
