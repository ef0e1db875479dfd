package drl

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/pregel"
)

// The vertex-centric labeler (Algorithms 3 and 4). There is one
// program: the trimmed BFSs of one batch of sources flood the graph in
// both directions, the Check procedure prunes expansions
// opportunistically as the inverted-list replicas fill in, and the
// Finish cleanup makes the batch exact (Theorem 5). Across batches the
// accumulated label sets provide TOL-style pruning: each batch source
// broadcasts its prior labels (Algorithm 4 line 8) and every expansion
// into w is additionally blocked when L_out(v) ∩ L_in(w) ≠ ∅ over
// prior batches (line 12). The driver executes one run per batch over
// a persistent worker set. §IV's batch sequence is the only dial:
// DRL_b is the geometric sequence of BatchParams, and DRL (Algorithm
// 3) is the one batch [0, n) — no prior labels exist, so the share,
// the self pruning and the label pruning all fall away.

// DistOptions configures the vertex-centric builders.
type DistOptions struct {
	// Workers is the number of computation nodes P.
	Workers int
	// Net is the simulated interconnect model.
	Net netsim.Model
	// Cancel aborts the build when closed.
	Cancel <-chan struct{}
	// Obs receives the loop's counters and the superstep trace (nil = off).
	Obs *obs.Registry
}

func (o DistOptions) config() pregel.Config {
	return pregel.Config{Workers: o.Workers, Net: o.Net, Cancel: o.Cancel, Obs: o.Obs}
}

// Message kinds: a v-sourced trimmed BFS step on G (building in-label
// candidates) or on G̅ (building out-label candidates). Msg.Val
// carries the source's rank. The same two values tag visit-event
// blobs; blobLabels tags the batch-label share of Algorithm 4 line 8.
const (
	kindFwd uint8 = iota
	kindBwd
	blobLabels
)

// seenKey packs (direction, vertex, source rank) for the per-worker
// visited-status table (the paper's w.status hash, footnote 2).
// Vertex IDs and ranks fit in 31 bits each, leaving two tag bits.
func seenKey(kind uint8, w graph.VertexID, r order.Rank) uint64 {
	return uint64(kind)<<62 | uint64(uint32(w))<<31 | uint64(uint32(r))
}

// checkCancelEvery bounds how many inbox messages a program processes
// between cut-off checks inside one superstep.
const checkCancelEvery = 1 << 16

func stepCanceled(i int, cancel <-chan struct{}) bool {
	if i%checkCancelEvery != 0 || cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// sortedVertices returns m's keys in increasing vertex order, the
// deterministic iteration order every broadcast- or message-emitting
// loop must use (mapdet).
func sortedVertices[V any](m map[graph.VertexID]V) []graph.VertexID {
	keys := make([]graph.VertexID, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// batchShared is the state every worker holds a replica of in a real
// cluster, for one batch: the prior labels of the batch sources and
// the in-batch inverted lists, fed by broadcasts. One copy per host
// stands in for the identical replicas of the workers it holds (see
// pregel.PreStepper).
type batchShared struct {
	ord  *order.Ordering
	span Span
	// cancel lets long supersteps honor the cut-off mid-step.
	cancel <-chan struct{}
	srcOut map[graph.VertexID][]order.Rank
	srcIn  map[graph.VertexID][]order.Rank
	// ibfsFwd[x] lists the ranks u whose *forward* BFS visited x —
	// the inverted list consumed by the backward Check.
	// ibfsBwd[x] is the symmetric list (IBFS_low of Definition 6)
	// consumed by the forward Check.
	ibfsFwd map[graph.VertexID][]order.Rank
	ibfsBwd map[graph.VertexID][]order.Rank
}

func newBatchShared(ord *order.Ordering, span Span, cancel <-chan struct{}) *batchShared {
	return &batchShared{
		ord:     ord,
		span:    span,
		cancel:  cancel,
		srcOut:  make(map[graph.VertexID][]order.Rank),
		srcIn:   make(map[graph.VertexID][]order.Rank),
		ibfsFwd: make(map[graph.VertexID][]order.Rank),
		ibfsBwd: make(map[graph.VertexID][]order.Rank),
	}
}

// batchLocal is one worker's persistent state: the accumulated label
// lists of its owned vertices, plus the per-batch visit status and
// visitor lists.
type batchLocal struct {
	in      map[graph.VertexID][]order.Rank
	out     map[graph.VertexID][]order.Rank
	seen    map[uint64]struct{}
	listFwd map[graph.VertexID][]order.Rank
	listBwd map[graph.VertexID][]order.Rank
}

type batchProgram struct {
	shared *batchShared
}

// PreStep applies the broadcasts of the previous step to the shared
// replica: label shares and visit events. A corrupt blob aborts the
// run.
func (p *batchProgram) PreStep(workers []*pregel.Worker, step int) error {
	if len(workers) == 0 {
		return nil
	}
	s := p.shared
	for _, blob := range workers[0].BcastIn {
		if len(blob) == 0 {
			continue
		}
		var err error
		switch blob[0] {
		case blobLabels:
			err = decodeLabelShares(blob[1:], func(v graph.VertexID, out, in []order.Rank) {
				s.srcOut[v] = out
				s.srcIn[v] = in
			})
		default:
			tgt := s.ibfsFwd
			if blob[0] == kindBwd {
				tgt = s.ibfsBwd
			}
			err = decodeEventPairs(blob[1:], func(x graph.VertexID, r order.Rank) {
				tgt[x] = append(tgt[x], r)
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MessageCombiner deduplicates rank messages to the same destination
// vertex: the receiving loop is seen-guarded, so duplicates carry no
// information and need not cross the wire.
func (p *batchProgram) MessageCombiner() pregel.Combiner { return pregel.DedupCombiner }

func (p *batchProgram) Superstep(w *pregel.Worker, step int) (bool, error) {
	ord := p.shared.ord
	if step == 0 {
		local, _ := w.State.(*batchLocal)
		if local == nil {
			local = &batchLocal{
				in:  make(map[graph.VertexID][]order.Rank),
				out: make(map[graph.VertexID][]order.Rank),
			}
			w.State = local
		}
		local.seen = make(map[uint64]struct{})
		local.listFwd = make(map[graph.VertexID][]order.Rank)
		local.listBwd = make(map[graph.VertexID][]order.Rank)

		var shares []labelShare
		span := p.shared.span
		w.OwnedVertices(func(v graph.VertexID) {
			r := ord.RankOf(v)
			if r < span.Lo || r >= span.Hi {
				return
			}
			// Self pruning (line 6): a prior-batch vertex on a cycle
			// through v covers everything v could label.
			if !disjointRanks(local.out[v], local.in[v]) {
				return
			}
			// Share the batch label sets (line 8). A source no prior
			// batch labeled shares nothing: the receivers' lookup of a
			// missing entry already reads as the empty set.
			if len(local.out[v])+len(local.in[v]) > 0 {
				shares = append(shares, labelShare{v: v, out: local.out[v], in: local.in[v]})
			}
			local.seen[seenKey(kindFwd, v, r)] = struct{}{}
			local.seen[seenKey(kindBwd, v, r)] = struct{}{}
			local.listFwd[v] = append(local.listFwd[v], r)
			local.listBwd[v] = append(local.listBwd[v], r)
			for _, nb := range w.Graph.OutNeighbors(v) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindFwd, Val: int32(r)})
			}
			for _, nb := range w.Graph.InNeighbors(v) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindBwd, Val: int32(r)})
			}
		})
		w.Broadcast(encodeLabelBlob(shares))
		return true, nil
	}

	local := w.State.(*batchLocal)
	var pendFwd, pendBwd []visitEvent
	for i, m := range w.Inbox {
		if stepCanceled(i, p.shared.cancel) {
			return false, pregel.ErrCanceled
		}
		dst := m.Dst
		r := order.Rank(m.Val)
		if r >= ord.RankOf(dst) {
			// ord(source) ≤ ord(dst): the trimmed BFS blocks here.
			continue
		}
		key := seenKey(m.Kind, dst, r)
		if _, ok := local.seen[key]; ok {
			continue
		}
		v := ord.VertexAt(r)
		// Batch-label pruning (line 12): a prior-batch vertex on a
		// v→dst walk blocks the expansion permanently.
		var ibfs []order.Rank
		if m.Kind == kindFwd {
			if !disjointRanks(p.shared.srcOut[v], local.in[dst]) {
				continue
			}
			ibfs = p.shared.ibfsBwd[v]
		} else {
			if !disjointRanks(p.shared.srcIn[v], local.out[dst]) {
				continue
			}
			ibfs = p.shared.ibfsFwd[v]
		}
		// Check (Algorithm 3 line 14): a known higher-order vertex u
		// that reaches v backwards and has already visited dst proves
		// a covering walk; prune the expansion.
		if covered(local, m.Kind, dst, ibfs) {
			continue
		}
		local.seen[key] = struct{}{}
		if m.Kind == kindFwd {
			local.listFwd[dst] = append(local.listFwd[dst], r)
			pendFwd = append(pendFwd, visitEvent{v: dst, r: r})
			for _, nb := range w.Graph.OutNeighbors(dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindFwd, Val: m.Val})
			}
		} else {
			local.listBwd[dst] = append(local.listBwd[dst], r)
			pendBwd = append(pendBwd, visitEvent{v: dst, r: r})
			for _, nb := range w.Graph.InNeighbors(dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindBwd, Val: m.Val})
			}
		}
	}
	w.Broadcast(encodeEventBlob(kindFwd, pendFwd))
	w.Broadcast(encodeEventBlob(kindBwd, pendBwd))
	return len(w.Inbox) > 0 || len(w.BcastIn) > 0, nil
}

// covered implements Check(v, w): true if some u ∈ ibfs (all of order
// higher than v) has already visited w in the same direction.
func covered(local *batchLocal, kind uint8, w graph.VertexID, ibfs []order.Rank) bool {
	for _, u := range ibfs {
		if _, ok := local.seen[seenKey(kind, w, u)]; ok {
			return true
		}
	}
	return false
}

// Finish is the end-of-batch cleanup (Algorithm 3 lines 19-20): re-run
// Check for every surviving visit against the now-complete inverted
// lists, and append the sorted survivors to the accumulated label
// lists (Algorithm 4 line 14). The check reads the pre-cleanup status:
// the maximal covering witness is never itself removed (Theorem 5's
// argument), so this is exact.
func (p *batchProgram) Finish(w *pregel.Worker) error {
	local := w.State.(*batchLocal)
	ord := p.shared.ord
	for v, list := range local.listFwd {
		keep := make([]order.Rank, 0, len(list))
		for _, r := range list {
			if !covered(local, kindFwd, v, p.shared.ibfsBwd[ord.VertexAt(r)]) {
				keep = append(keep, r)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		local.in[v] = append(local.in[v], keep...)
		// Visit events are seen-guarded, so a batch's survivors are a
		// sorted set, and they outrank nothing accumulated before them:
		// the list stays strictly increasing — the exact shape
		// label.FromLists requires.
		invariant.StrictlyIncreasing("drl: accumulated L_in after batch merge", local.in[v])
	}
	for v, list := range local.listBwd {
		keep := make([]order.Rank, 0, len(list))
		for _, r := range list {
			if !covered(local, kindBwd, v, p.shared.ibfsFwd[ord.VertexAt(r)]) {
				keep = append(keep, r)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		local.out[v] = append(local.out[v], keep...)
		invariant.StrictlyIncreasing("drl: accumulated L_out after batch merge", local.out[v])
	}
	return nil
}

// Collect encodes the labels of the worker's vertices for the gather.
func (p *batchProgram) Collect(w *pregel.Worker) ([]byte, error) {
	local, ok := w.State.(*batchLocal)
	if !ok {
		return nil, fmt.Errorf("drl: worker %d holds no labeling state", w.ID)
	}
	return collectLabels(w, local.in, local.out), nil
}

// labelSpans is the one build driver: one run of the labeling program
// per span on m — in process or on a cluster, which is runSpan's
// business — then the gather.
func labelSpans(m *pregel.Master, ord *order.Ordering, spans []Span, reg *obs.Registry, runSpan func(Span) error) (*label.Index, pregel.Metrics, error) {
	if len(spans) == 0 { // the empty graph: no batch, no run, nothing to gather
		return label.FromLists(ord, nil, nil), m.Metrics, nil
	}
	cBatches := reg.Counter("drl_batches_total")
	hBatch := reg.Histogram("drl_batch_vertices", obs.SizeBuckets)
	for _, span := range spans {
		if err := runSpan(span); err != nil {
			return nil, m.Metrics, err
		}
		cBatches.Inc()
		hBatch.Observe(float64(span.Size()))
	}
	return gather(m, ord)
}

// gather collects the per-worker label lists onto one "machine" (the
// paper serves queries from a single node holding the index) and
// charges the bytes every worker but the gathering one sends — 4 per
// label entry — to the metrics.
func gather(m *pregel.Master, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
	blobs, err := m.Collect()
	if err != nil {
		return nil, m.Metrics, err
	}
	in, out, err := decodeResults(blobs, ord.N())
	if err != nil {
		return nil, m.Metrics, err
	}
	for v := range in {
		if v%len(blobs) != 0 {
			m.Metrics.BytesRemote += 4 * int64(len(in[v])+len(out[v]))
		}
	}
	return label.FromLists(ord, in, out), m.Metrics, nil
}

func buildInProcess(g *graph.Digraph, ord *order.Ordering, spans []Span, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	m := pregel.New(g, opt.config())
	return labelSpans(m, ord, spans, opt.Obs, func(span Span) error {
		_, err := m.Run(&batchProgram{shared: newBatchShared(ord, span, opt.Cancel)})
		return err
	})
}

// BuildDistributed runs DRL (Algorithm 3) on the vertex-centric
// system with opt.Workers computation nodes and returns the index
// plus the run's cost metrics.
func BuildDistributed(g *graph.Digraph, ord *order.Ordering, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	return buildInProcess(g, ord, oneBatch(g.NumVertices()), opt)
}

// BuildDistributedBatch runs DRL_b (Algorithm 4) on the vertex-centric
// system: one run per batch over a persistent worker set, metrics
// accumulated across batches.
func BuildDistributedBatch(g *graph.Digraph, ord *order.Ordering, bp BatchParams, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	spans, err := BatchSequence(g.NumVertices(), bp)
	if err != nil {
		return nil, pregel.Metrics{}, err
	}
	return buildInProcess(g, ord, spans, opt)
}

// oneBatch is DRL's batch sequence: every vertex at once.
func oneBatch(n int) []Span { return []Span{{Lo: 0, Hi: order.Rank(n)}} }
