package drl

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/pregel"
)

// Cluster deployment: the labeling program registered for worker
// processes (cmd/drworker + cmd/drcluster). Each worker loads the graph
// from shared storage, computes the (fully deterministic) vertex order
// and the graph's transpose for each batch, and keeps its own replica
// of the broadcast state — the paper's deployment model, with net/rpc
// over TCP standing in for MPI.

func init() {
	pregel.RegisterRPC("drl", func(h *pregel.Host, params map[string]string) (pregel.Program, error) {
		ord := order.Compute(h.Graph)
		lo, err := strconv.Atoi(params["lo"])
		if err != nil {
			return nil, fmt.Errorf("drl: bad batch start %q: %w", params["lo"], err)
		}
		hi, err := strconv.Atoi(params["hi"])
		if err != nil {
			return nil, fmt.Errorf("drl: bad batch end %q: %w", params["hi"], err)
		}
		if lo < 0 || hi < lo || hi > ord.N() {
			return nil, fmt.Errorf("drl: batch [%d, %d) outside the %d ranks", lo, hi, ord.N())
		}
		adj := dirGraphs{h.Graph, h.Graph.Inverse()}
		return &batchProgram{shared: newBatchShared(ord, adj, Span{Lo: order.Rank(lo), Hi: order.Rank(hi)}, nil)}, nil
	})
}

// collectLabels encodes the label lists of the vertices w owns, one
// u32 record (wire.go) per vertex in increasing vertex order.
func collectLabels(w *pregel.Worker, lab dirLists) []byte {
	var blob []byte
	w.OwnedVertices(func(v graph.VertexID) {
		blob = appendRecord(blob, v, [2][]order.Rank{lab[0][v], lab[1][v]})
	})
	return blob
}

// decodeResults reads the workers' collect replies, blobs[i] being
// worker i's, into per-vertex L_in and L_out lists. The replies come
// from other processes: a record readRecord refuses, or one for a
// vertex its worker does not own, is an error naming the worker.
func decodeResults(blobs [][]byte, n int) (in, out [][]order.Rank, _ error) {
	in = make([][]order.Rank, n)
	out = make([][]order.Rank, n)
	for wk, blob := range blobs {
		prev := graph.VertexID(-1)
		for len(blob) > 0 {
			v, lists, rest, err := readRecord(blob, prev, n)
			if err == nil && int(v)%len(blobs) != wk {
				err = fmt.Errorf("vertex %d belongs to worker %d", v, int(v)%len(blobs))
			}
			if err != nil {
				return nil, nil, fmt.Errorf("drl: worker %d's collect reply: %w", wk, err)
			}
			in[v], out[v], prev, blob = lists[kindFwd], lists[kindBwd], v, rest
		}
	}
	return in, out, nil
}

// ClusterOptions tunes a cluster build. Per-call deadlines and retries
// are pregel's constants; the zero value checkpoints at run boundaries
// only.
type ClusterOptions struct {
	// CheckpointEvery additionally snapshots worker state every k
	// supersteps (0 = run-boundary checkpoints only).
	CheckpointEvery int
	// Dial overrides the transport dialer (tests inject faults here).
	Dial pregel.Dialer
	// Obs receives master-side counters and the superstep trace
	// (nil = off).
	Obs *obs.Registry
}

// BuildOverClusterOf labels g, the graph at graphPath — readable by
// every worker and the master, which has loaded it — on the worker
// processes at addrs: DRL_b over bp's batch sequence, or DRL
// (Algorithm 3) when bp is nil. A done ctx stops the build at the next
// superstep, or in the call it interrupts, with ctx's error; nil never
// stops it.
func BuildOverClusterOf(ctx context.Context, addrs []string, g *graph.Digraph, graphPath string, bp *BatchParams, copt ClusterOptions) (*label.Index, pregel.Metrics, error) {
	spans := oneBatch(g.NumVertices())
	if bp != nil {
		var err error
		if spans, err = BatchSequence(g.NumVertices(), *bp); err != nil {
			return nil, pregel.Metrics{}, err
		}
	}
	m, err := pregel.DialCluster(addrs, graphPath, pregel.Config{
		CheckpointEvery: copt.CheckpointEvery,
		Dial:            copt.Dial,
		Ctx:             ctx,
		Obs:             copt.Obs,
	})
	if err != nil {
		return nil, pregel.Metrics{}, err
	}
	defer m.Close()
	var ord *order.Ordering
	m.Phase(pregel.PhaseOrder, func(*obs.StepTrace) error {
		ord = order.Compute(g)
		return nil
	})
	return labelSpans(m, ord, spans, copt.Obs, func(span Span) error {
		return m.RunNamed("drl", map[string]string{
			"lo": strconv.Itoa(int(span.Lo)),
			"hi": strconv.Itoa(int(span.Hi)),
		})
	})
}
