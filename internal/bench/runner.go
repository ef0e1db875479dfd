package bench

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/bfl"
	"repro/internal/drl"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// Runner holds the shared experiment configuration: the simulated
// cluster size, the interconnect model, the cut-off, and the query
// sample size. The zero value is not usable; call NewRunner.
type Runner struct {
	// Workers is the number of computation nodes P for the
	// distributed algorithms (the paper uses 32).
	Workers int
	// Cutoff marks a build INF when exceeded (the paper uses 2h; the
	// harness default is scaled down with the graphs).
	Cutoff time.Duration
	// Net is the simulated interconnect.
	Net netsim.Model
	// Queries is the number of sampled reachability queries per
	// query-time measurement.
	Queries int
}

// NewRunner returns a Runner with the defaults used throughout
// EXPERIMENTS.md: 8 workers, 60s cut-off, commodity network, 20 000
// queries.
func NewRunner() *Runner {
	return &Runner{
		Workers: 8,
		Cutoff:  60 * time.Second,
		Net:     netsim.Commodity(),
		Queries: 20000,
	}
}

// BuildResult is one (dataset, algorithm) measurement.
type BuildResult struct {
	Algo string
	// Index is nil when the build timed out.
	Index *label.Index
	// Total is the modeled index time: the wall time of a build that
	// runs no supersteps, else Metrics.Total — measured compute plus
	// measured and simulated communication, which ComputeTime and
	// TotalComm split for Fig. 5.
	Total time.Duration
	// Bytes is the index footprint (label indexes only; BFL results
	// report through BFLResult).
	Bytes    int64
	TimedOut bool
	Err      error

	// Metrics is the cost record of the distributed algorithms' BSP
	// runs (zero for TOL and DRL_b^M, which exchange no messages).
	pregel.Metrics
}

// INF reports whether the result should print as "INF" (cut-off hit).
func (r BuildResult) INF() bool { return r.TimedOut }

// cutoff returns a context the cut-off cancels, plus a stop function.
func (r *Runner) cutoff() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	if r.Cutoff <= 0 {
		return ctx, cancel
	}
	t := time.AfterFunc(r.Cutoff, cancel)
	return ctx, func() { t.Stop(); cancel() }
}

// build runs one label-index build under the cut-off and measures it;
// a build stopped at the cut-off is INF, one that fails otherwise is
// not. The builds that exchange no messages report zero Metrics.
func (r *Runner) build(algo string, run func(ctx context.Context) (*label.Index, pregel.Metrics, error)) BuildResult {
	ctx, stop := r.cutoff()
	defer stop()
	start := time.Now()
	idx, met, err := run(ctx)
	res := BuildResult{Algo: algo, Total: met.Total(), Metrics: met}
	if met.Supersteps == 0 {
		res.Total = time.Since(start)
	}
	if err != nil {
		res.TimedOut = errors.Is(err, context.Canceled)
		res.Err = err
		return res
	}
	res.Index = idx
	res.Bytes = idx.SizeBytes()
	return res
}

// RunTOL measures the serial TOL baseline (wall time on one node).
func (r *Runner) RunTOL(g *graph.Digraph, ord *order.Ordering) BuildResult {
	return r.build("TOL", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		idx, err := tol.BuildCancelable(ctx, g, ord)
		return idx, pregel.Metrics{}, err
	})
}

// RunDRLbM measures the shared-memory multi-core DRL_b^M with the
// runner's worker count as the thread count.
func (r *Runner) RunDRLbM(g *graph.Digraph, ord *order.Ordering) BuildResult {
	return r.build("DRLbM", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		idx, err := drl.BuildBatch(g, ord, drl.DefaultBatchParams(), drl.Options{Workers: r.Workers, Ctx: ctx})
		return idx, pregel.Metrics{}, err
	})
}

// RunDRL measures the distributed DRL (Algorithm 3).
func (r *Runner) RunDRL(g *graph.Digraph, ord *order.Ordering) BuildResult {
	return r.RunDRLWorkers(g, ord, r.Workers)
}

// RunDRLWorkers is RunDRL at an explicit worker count (Exp 5).
func (r *Runner) RunDRLWorkers(g *graph.Digraph, ord *order.Ordering, p int) BuildResult {
	return r.build("DRL", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		return drl.BuildDistributed(g, ord, drl.DistOptions{Workers: p, Net: r.Net, Ctx: ctx})
	})
}

// RunDRLb measures the distributed DRL_b (Algorithm 4).
func (r *Runner) RunDRLb(g *graph.Digraph, ord *order.Ordering) BuildResult {
	return r.RunDRLbParams(g, ord, drl.DefaultBatchParams(), r.Workers)
}

// RunDRLbParams is RunDRLb with explicit batch parameters and worker
// count (Exps 5, 7, 8).
func (r *Runner) RunDRLbParams(g *graph.Digraph, ord *order.Ordering, bp drl.BatchParams, p int) BuildResult {
	return r.build("DRLb", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		return drl.BuildDistributedBatch(g, ord, bp, drl.DistOptions{Workers: p, Net: r.Net, Ctx: ctx})
	})
}

// RunDRLMinus measures the distributed basic method DRL⁻.
func (r *Runner) RunDRLMinus(g *graph.Digraph, ord *order.Ordering) BuildResult {
	return r.RunDRLMinusWorkers(g, ord, r.Workers)
}

// RunDRLMinusWorkers is RunDRLMinus at an explicit worker count.
func (r *Runner) RunDRLMinusWorkers(g *graph.Digraph, ord *order.Ordering, p int) BuildResult {
	return r.build("DRL-", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		return drl.BuildDistributedBasic(g, ord, drl.DistOptions{Workers: p, Net: r.Net, Ctx: ctx})
	})
}

// BFLResult is the measurement of a BFL build (centralized or
// distributed).
type BFLResult struct {
	Algo     string
	Index    *bfl.Index
	Total    time.Duration
	Bytes    int64
	TimedOut bool
	Err      error
}

// INF reports whether the result should print as "INF".
func (r BFLResult) INF() bool { return r.TimedOut }

// RunBFLC measures the centralized BFL baseline.
func (r *Runner) RunBFLC(g *graph.Digraph) BFLResult {
	ctx, stop := r.cutoff()
	defer stop()
	start := time.Now()
	idx, err := bfl.Build(g, bfl.Options{Ctx: ctx})
	dur := time.Since(start)
	res := BFLResult{Algo: "BFLC", Total: dur}
	if err != nil {
		res.TimedOut = errors.Is(err, context.Canceled)
		res.Err = err
		return res
	}
	res.Index = idx
	res.Bytes = idx.SizeBytes()
	return res
}

// RunBFLD measures the distributed BFL (token-passing DFS).
func (r *Runner) RunBFLD(g *graph.Digraph) BFLResult {
	ctx, stop := r.cutoff()
	defer stop()
	idx, met, err := bfl.BuildDistributed(g, bfl.Options{}, bfl.DistOptions{
		Workers: r.Workers, Net: r.Net, Ctx: ctx,
	})
	res := BFLResult{Algo: "BFLD", Total: met.Total()}
	if err != nil {
		res.TimedOut = errors.Is(err, context.Canceled)
		res.Err = err
		return res
	}
	res.Index = idx
	res.Bytes = idx.SizeBytes()
	return res
}

// queryPairs samples deterministic (s, t) query pairs.
func queryPairs(n, q int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]graph.Edge, q)
	for i := range pairs {
		pairs[i] = graph.Edge{
			U: graph.VertexID(rng.Intn(n)),
			V: graph.VertexID(rng.Intn(n)),
		}
	}
	return pairs
}

// QueryIndex measures the mean query time of a label index
// (TOL/DRL_b; they share the index, §VI Exp 1).
func (r *Runner) QueryIndex(idx *label.Index) time.Duration {
	if idx == nil || idx.NumVertices() == 0 {
		return 0
	}
	pairs := queryPairs(idx.NumVertices(), r.Queries, 7)
	start := time.Now()
	for _, p := range pairs {
		idx.Reachable(p.U, p.V)
	}
	return time.Since(start) / time.Duration(len(pairs))
}

// QueryBFLC measures the mean centralized BFL query time (labels plus
// fallback searches on the in-memory graph).
func (r *Runner) QueryBFLC(g *graph.Digraph, idx *bfl.Index) time.Duration {
	if idx == nil || g.NumVertices() == 0 {
		return 0
	}
	q := r.Queries
	if q > 5000 {
		q = 5000 // fallback DFS queries are orders slower
	}
	pairs := queryPairs(g.NumVertices(), q, 7)
	start := time.Now()
	for _, p := range pairs {
		idx.Reachable(g, p.U, p.V)
	}
	return time.Since(start) / time.Duration(len(pairs))
}

// QueryBFLD measures the mean distributed BFL query time: measured
// CPU plus the simulated cross-partition latency of the distributed
// traversals.
func (r *Runner) QueryBFLD(g *graph.Digraph, idx *bfl.Index) time.Duration {
	if idx == nil || g.NumVertices() == 0 {
		return 0
	}
	q := r.Queries
	if q > 2000 {
		q = 2000
	}
	pairs := queryPairs(g.NumVertices(), q, 7)
	var sim time.Duration
	start := time.Now()
	for _, p := range pairs {
		_, s := idx.ReachableDistributed(g, p.U, p.V, r.Workers, r.Net)
		sim += s
	}
	return (time.Since(start) + sim) / time.Duration(len(pairs))
}
