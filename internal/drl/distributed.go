package drl

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
	// Ctx stops the build with its error when done (nil: never).
	Ctx context.Context
	// Obs receives the loop's counters and the superstep trace (nil = off).
	Obs *obs.Registry
}

func (o DistOptions) config() pregel.Config {
	return pregel.Config{Workers: o.Workers, Net: o.Net, Ctx: o.Ctx, Obs: o.Obs}
}

// Direction is data. A flood message's Kind is the direction d of the
// v-sourced trimmed BFS it belongs to and Msg.Val the source's rank;
// every per-direction table below is a two-element array indexed by d:
//
//	d        floods along      writes       pruned with    Check consults
//	kindFwd  out-neighbors     L_in(dst)    L_out(source)  ibfs[kindBwd]
//	kindBwd  in-neighbors (G̅)  L_out(dst)   L_in(source)   ibfs[kindFwd]
//
// — Definition 4's two constructions are one construction on G and on
// G̅, so everything but the adjacency (flood) is the same code. The
// same two values tag visit-event blobs; blobLabels tags the
// batch-label share of Algorithm 4 line 8.
const (
	kindFwd uint8 = iota
	kindBwd
	blobLabels
)

// dirLists is a pair of vertex → rank-list tables, one per direction.
type dirLists [2]map[graph.VertexID][]order.Rank

func newDirLists() dirLists {
	return dirLists{make(map[graph.VertexID][]order.Rank), make(map[graph.VertexID][]order.Rank)}
}

// dirGraphs is the graph in both directions, indexed by d: G, and its
// transpose G̅, which a build derives once and holds until it returns.
type dirGraphs [2]*graph.Digraph

// flood sends (d, val) to v's neighbors in direction d. It is the one
// place that tells forward from backward.
func flood(w *pregel.Worker, adj dirGraphs, d uint8, v graph.VertexID, val int32) {
	for _, nb := range adj[d].OutNeighbors(v) {
		w.Send(pregel.Msg{Dst: nb, Kind: d, Val: val})
	}
}

// seenKey packs (direction, vertex, source rank) for the per-worker
// visited-status table (the paper's w.status hash, footnote 2).
// Vertex IDs and ranks fit in 31 bits each, leaving two tag bits.
func seenKey(kind uint8, w graph.VertexID, r order.Rank) uint64 {
	return uint64(kind)<<62 | uint64(uint32(w))<<31 | uint64(uint32(r))
}

// checkCancelEvery bounds how many inbox messages a program processes
// between cut-off checks inside one superstep.
const checkCancelEvery = 1 << 16

func stepCanceled(i int, ctx context.Context) bool {
	return i%checkCancelEvery == 0 && ctx != nil && ctx.Err() != nil
}

// sortedKeys returns m's keys in increasing order, the deterministic
// iteration order every broadcast-, message- or checkpoint-emitting
// loop must use (mapdet).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// eachBroadcast hands the blobs the previous step delivered to apply,
// by tag byte and payload, once per host: workers[0]'s copy stands for
// every worker's (pregel.PreStepper). A blob apply refuses aborts the
// run.
func eachBroadcast(workers []*pregel.Worker, apply func(tag uint8, payload []byte) error) error {
	if len(workers) == 0 {
		return nil
	}
	for _, blob := range workers[0].BcastIn {
		if len(blob) == 0 {
			continue
		}
		if err := apply(blob[0], blob[1:]); err != nil {
			return err
		}
	}
	return nil
}

// batchShared is the state every worker holds a replica of in a real
// cluster, for one batch: the prior labels of the batch sources and
// the in-batch inverted lists, fed by broadcasts. One copy per host
// stands in for the identical replicas of the workers it holds (see
// pregel.PreStepper).
type batchShared struct {
	ord  *order.Ordering
	adj  dirGraphs
	span Span
	// ctx lets long supersteps honor the cut-off mid-step.
	ctx context.Context
	// src[d][v] is the prior label list of batch source v that its
	// direction-d BFS prunes with: the side direction 1-d writes.
	src dirLists
	// ibfs[d][x] lists the ranks u whose direction-d BFS visited x —
	// the inverted list (IBFS_low of Definition 6) consumed by the
	// Check of the opposite direction.
	ibfs dirLists
}

func newBatchShared(ord *order.Ordering, adj dirGraphs, span Span, ctx context.Context) *batchShared {
	return &batchShared{ord: ord, adj: adj, span: span, ctx: ctx, src: newDirLists(), ibfs: newDirLists()}
}

// batchLocal is one worker's persistent state: the accumulated label
// lists of its owned vertices (lab[kindFwd] is L_in, lab[kindBwd] is
// L_out), plus the per-batch visit status and visitor lists.
type batchLocal struct {
	lab  dirLists
	seen map[uint64]struct{}
	list dirLists
}

type batchProgram struct {
	shared *batchShared
}

// PreStep applies the broadcasts of the previous step to the shared
// replica: label shares and visit events. Step 0 starts it empty, as
// a restore at the run's boundary brings back the last batch's.
func (p *batchProgram) PreStep(workers []*pregel.Worker, step int) error {
	s := p.shared
	if step == 0 {
		s.src, s.ibfs = newDirLists(), newDirLists()
	}
	return eachBroadcast(workers, func(tag uint8, payload []byte) error {
		switch tag {
		case blobLabels:
			return decodeLabelShares(payload, func(v graph.VertexID, out, in []order.Rank) {
				s.src[kindFwd][v] = out
				s.src[kindBwd][v] = in
			})
		case kindFwd, kindBwd:
			return decodeEventPairs(payload, func(x graph.VertexID, r order.Rank) {
				s.ibfs[tag][x] = append(s.ibfs[tag][x], r)
			})
		}
		return fmt.Errorf("drl: unknown broadcast tag %d", tag)
	})
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
			local = &batchLocal{lab: newDirLists()}
			w.State = local
		}
		local.seen = make(map[uint64]struct{})
		local.list = newDirLists()

		var shares []labelShare
		span := p.shared.span
		w.OwnedVertices(func(v graph.VertexID) {
			r := ord.RankOf(v)
			if r < span.Lo || r >= span.Hi {
				return
			}
			in, out := local.lab[kindFwd][v], local.lab[kindBwd][v]
			// Self pruning (line 6): a prior-batch vertex on a cycle
			// through v covers everything v could label.
			if !label.Disjoint(out, in) {
				return
			}
			// Share the batch label sets (line 8). A source no prior
			// batch labeled shares nothing: the receivers' lookup of a
			// missing entry already reads as the empty set.
			if len(out)+len(in) > 0 {
				shares = append(shares, labelShare{v: v, out: out, in: in})
			}
			for d := kindFwd; d <= kindBwd; d++ {
				local.seen[seenKey(d, v, r)] = struct{}{}
				local.list[d][v] = append(local.list[d][v], r)
				flood(w, p.shared.adj, d, v, int32(r))
			}
		})
		w.Broadcast(encodeLabelBlob(shares))
		return true, nil
	}

	local := w.State.(*batchLocal)
	var pend [2][]visitEvent
	for i, m := range w.Inbox {
		if stepCanceled(i, p.shared.ctx) {
			return false, p.shared.ctx.Err()
		}
		d, dst := m.Kind&1, m.Dst
		r := order.Rank(m.Val)
		if r >= ord.RankOf(dst) {
			// ord(source) ≤ ord(dst): the trimmed BFS blocks here.
			continue
		}
		key := seenKey(d, dst, r)
		if _, ok := local.seen[key]; ok {
			continue
		}
		v := ord.VertexAt(r)
		// Batch-label pruning (line 12): a prior-batch vertex on a
		// v→dst walk blocks the expansion permanently.
		if !label.Disjoint(p.shared.src[d][v], local.lab[d][dst]) {
			continue
		}
		// Check (Algorithm 3 line 14): a known higher-order vertex u
		// that reaches v backwards and has already visited dst proves
		// a covering walk; prune the expansion.
		if covered(local.seen, d, dst, p.shared.ibfs[1-d][v]) {
			continue
		}
		local.seen[key] = struct{}{}
		local.list[d][dst] = append(local.list[d][dst], r)
		pend[d] = append(pend[d], visitEvent{v: dst, r: r})
		flood(w, p.shared.adj, d, dst, m.Val)
	}
	for d := kindFwd; d <= kindBwd; d++ {
		w.Broadcast(encodeEventBlob(d, pend[d]))
	}
	return len(w.Inbox) > 0 || len(w.BcastIn) > 0, nil
}

// covered implements Check(v, w): true if some u ∈ us (all of order
// higher than v) has an entry (d, w, u) in seen — has already visited
// w in direction d.
func covered(seen map[uint64]struct{}, d uint8, w graph.VertexID, us []order.Rank) bool {
	for _, u := range us {
		if _, ok := seen[seenKey(d, w, u)]; ok {
			return true
		}
	}
	return false
}

// uncovered returns, sorted, the ranks r of list — the direction-d
// visitors of w — that no witness covers: no u ∈ wit[vertex ranked r]
// has an entry (d, w, u) in seen.
func uncovered(ord *order.Ordering, seen map[uint64]struct{}, d uint8, w graph.VertexID, list []order.Rank, wit map[graph.VertexID][]order.Rank) []order.Rank {
	keep := make([]order.Rank, 0, len(list))
	for _, r := range list {
		if !covered(seen, d, w, wit[ord.VertexAt(r)]) {
			keep = append(keep, r)
		}
	}
	slices.Sort(keep)
	return keep
}

// Finish is the end-of-batch cleanup (Algorithm 3 lines 19-20): re-run
// Check for every surviving visit against the now-complete inverted
// lists, and append the sorted survivors to the accumulated label
// lists (Algorithm 4 line 14). The check reads the pre-cleanup status:
// the maximal covering witness is never itself removed (Theorem 5's
// argument), so this is exact.
func (p *batchProgram) Finish(w *pregel.Worker) error {
	local := w.State.(*batchLocal)
	for d := kindFwd; d <= kindBwd; d++ {
		for v, list := range local.list[d] {
			keep := uncovered(p.shared.ord, local.seen, d, v, list, p.shared.ibfs[1-d])
			local.lab[d][v] = append(local.lab[d][v], keep...)
			// Visit events are seen-guarded, so a batch's survivors are a
			// sorted set, and they outrank nothing accumulated before them:
			// the list stays strictly increasing — the exact shape
			// label.FromLists requires.
			invariant.StrictlyIncreasing("drl: accumulated labels after batch merge", local.lab[d][v])
		}
	}
	return nil
}

// Collect encodes the labels of the worker's vertices for the gather.
func (p *batchProgram) Collect(w *pregel.Worker) ([]byte, error) {
	local, ok := w.State.(*batchLocal)
	if !ok {
		return nil, fmt.Errorf("drl: worker %d holds no labeling state", w.ID)
	}
	return collectLabels(w, local.lab), nil
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
// paper serves queries from a single node holding the index), charging
// the bytes every worker but the gathering one sends — 4 per label
// entry — to the gather's row, and lays them out as the index.
func gather(m *pregel.Master, ord *order.Ordering) (*label.Index, pregel.Metrics, error) {
	var in, out [][]order.Rank
	if err := m.Phase(pregel.PhaseGather, func(row *obs.StepTrace) error {
		blobs, err := m.Collect()
		if err != nil {
			return err
		}
		if in, out, err = decodeResults(blobs, ord.N()); err != nil {
			return err
		}
		for v := range in {
			if v%len(blobs) != 0 {
				row.BytesRemote += 4 * int64(len(in[v])+len(out[v]))
			}
		}
		return nil
	}); err != nil {
		return nil, m.Metrics, err
	}
	var idx *label.Index
	m.Phase(pregel.PhaseLayout, func(*obs.StepTrace) error {
		idx = label.FromLists(ord, in, out)
		return nil
	})
	return idx, m.Metrics, nil
}

func buildInProcess(g *graph.Digraph, ord *order.Ordering, spans []Span, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	m := pregel.New(g, opt.config())
	adj := dirGraphs{g, g.Inverse()}
	return labelSpans(m, ord, spans, opt.Obs, func(span Span) error {
		_, err := m.Run(&batchProgram{shared: newBatchShared(ord, adj, span, opt.Ctx)})
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
