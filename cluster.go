package reachlab

import (
	"fmt"
	"time"

	"repro/internal/drl"
	"repro/internal/label"
	"repro/internal/pregel"
)

type indexAlias = label.Index

// Genuinely distributed construction: worker processes connected over
// TCP (net/rpc) instead of simulated nodes inside one process. Each
// worker owns the vertices v with v mod P == workerID and loads the
// graph from shared storage itself. cmd/drworker and cmd/drcluster
// wrap these entry points; examples/distributed drives them
// in-process.

// ClusterOptions tunes the fault handling of cluster builds: per-call
// deadlines and retry bounds, and how often worker state is
// checkpointed for crash recovery. The zero value uses the defaults.
type ClusterOptions = drl.ClusterOptions

// RetryPolicy bounds per-call deadlines and retries for cluster
// builds (see ClusterOptions.Retry).
type RetryPolicy = pregel.RetryPolicy

// ServeWorker hosts one labeling cluster worker on addr (use
// "host:0" for an ephemeral port). The bound address is sent on ready
// if non-nil; the call then blocks serving requests.
func ServeWorker(addr string, ready chan<- string) error {
	return pregel.ServeWorker(addr, ready)
}

// BuildOverCluster constructs the index on a cluster of running
// workers with default fault handling. graphPath must be readable by
// the master and every worker (the paper's shared-storage
// deployment). Only MethodDRL and MethodDRLBatch run over the cluster
// transport.
func BuildOverCluster(addrs []string, graphPath string, opts Options) (*Index, error) {
	return BuildOverClusterOpts(addrs, graphPath, opts, ClusterOptions{})
}

// BuildOverClusterOpts is BuildOverCluster with explicit
// fault-handling configuration.
func BuildOverClusterOpts(addrs []string, graphPath string, opts Options, copt ClusterOptions) (*Index, error) {
	start := time.Now()
	var (
		idx *indexAlias
		met pregel.Metrics
		err error
	)
	switch m := opts.method(); m {
	case MethodDRL:
		idx, met, err = drl.BuildOverRPCOpts(addrs, graphPath, copt)
	case MethodDRLBatch:
		idx, met, err = drl.BuildBatchOverRPCOpts(addrs, graphPath, opts.batchParams(), copt)
	default:
		return nil, fmt.Errorf("reachlab: method %q does not support cluster deployment (use %q or %q)",
			m, MethodDRL, MethodDRLBatch)
	}
	if err != nil {
		return nil, fmt.Errorf("reachlab: building over cluster: %w", err)
	}
	x := newIndex(idx, nil, nil)
	x.stats = BuildStats{
		Method:        opts.method(),
		Workers:       len(addrs),
		WallTime:      time.Since(start),
		Compute:       met.ComputeTime,
		Communication: met.TotalComm(),
		Supersteps:    met.Supersteps,
		Messages:      met.Messages,
		BytesRemote:   met.BytesRemote,

		Retries:            met.Retries,
		Recoveries:         met.Recoveries,
		Checkpoints:        met.Checkpoints,
		LastCheckpointStep: met.LastCheckpointStep,
	}
	return x, nil
}
