package reachlab

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/drl"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pregel"
)

// Genuinely distributed construction: worker processes connected over
// TCP (net/rpc) instead of simulated nodes inside one process. Each
// worker owns the vertices v with v mod P == workerID and loads the
// graph from shared storage itself. cmd/drworker and cmd/drcluster
// wrap these entry points; examples/distributed drives them
// in-process.

// ClusterOptions tunes a cluster build: how often worker state is
// checkpointed for crash recovery, the dialer and the observability
// registry. Per-call deadlines and retries are fixed. The zero value
// checkpoints at run boundaries only.
type ClusterOptions = drl.ClusterOptions

// ServeWorker hosts one labeling cluster worker on addr (use
// "host:0" for an ephemeral port). The bound address is sent on ready
// if non-nil; the call then blocks serving requests.
func ServeWorker(addr string, ready chan<- string) error {
	return pregel.ServeWorker(addr, ready, pregel.WorkerOptions{})
}

// BuildOverCluster constructs the index on a cluster of running
// workers. graphPath must be readable by the master and every worker
// (the paper's shared-storage deployment). Only MethodDRL and
// MethodDRLBatch run over the cluster transport. Of opts it honours
// Method, BatchSize and BatchFactor; the workers label the graph file
// as it is, in full, so LabelBudget is refused. ctx stops the build at
// the next superstep, or in the call it interrupts, and nothing retries.
func BuildOverCluster(ctx context.Context, addrs []string, graphPath string, opts Options, copt ClusterOptions) (*Index, error) {
	start := time.Now()
	if opts.LabelBudget > 0 {
		return nil, errors.New("reachlab: Options.LabelBudget is not supported over a cluster")
	}
	var bp *drl.BatchParams // nil: DRL, the one-batch sequence
	switch m := opts.method(); m {
	case MethodDRL:
	case MethodDRLBatch:
		p := opts.batchParams()
		bp = &p
	default:
		return nil, fmt.Errorf("reachlab: method %q does not support cluster deployment (use %q or %q)",
			m, MethodDRL, MethodDRLBatch)
	}
	// The master reads the graph as well: for the order, and so that the
	// index names its graph as an in-process build's does.
	g, err := graph.LoadFile(graphPath)
	if err != nil {
		return nil, fmt.Errorf("reachlab: building over cluster: %w", err)
	}
	load := time.Since(start)
	idx, met, err := drl.BuildOverClusterOf(ctx, addrs, g, graphPath, bp, copt)
	if err != nil {
		return nil, fmt.Errorf("reachlab: building over cluster: %w", err)
	}
	met.Phases.Add(obs.Phases{pregel.PhaseLoad: load}) // read before the record began
	x := newIndex(idx, nil)
	fp := g.Fingerprint()
	x.g, x.fp = g, &fp
	x.stats = buildStats(opts.method(), len(addrs), start, met)
	return x, nil
}
