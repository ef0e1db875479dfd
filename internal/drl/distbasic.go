package drl

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/pregel"
)

// Distributed DRL⁻ (the basic labeling method of Theorem 3 on the
// vertex-centric system). Two runs over a persistent worker set:
//
//	Phase A (filtering): every vertex floods its trimmed BFS in both
//	directions — no Check pruning exists in DRL⁻. A blocked expansion
//	at w both marks w as an eliminator locally and notifies the
//	source's owner so BFS_hig(v) can be assembled.
//
//	Phase B (refinement): every eliminator floods its full descendant
//	set DES(u); the hig lists are broadcast. A candidate w survives
//	for v unless some u ∈ BFS_hig(v) reached w.
//
// The DES floods are unrestricted BFSs, which is exactly why DRL⁻'s
// communication volume dwarfs DRL's (Fig. 5) and why it misses the
// cut-off on several datasets.

// kindHig+d is the notify kind of direction d: the Val-ranked vertex
// blocked the destination's direction-d BFS. The flood kinds are the
// directions themselves, so Kind&1 is the direction of every message
// and of every hig blob tag.
const kindHig uint8 = 2

type basicLocal struct {
	seen map[uint64]struct{}
	list dirLists
	// hig[d][v] = BFS_hig(v) in direction d (ranks), assembled from
	// notifies for owned sources v.
	hig dirLists
	// elim[d] marks owned vertices that blocked at least one
	// direction-d BFS: the eliminator sources of phase B.
	elim [2]map[graph.VertexID]struct{}
	// desSeen holds (d, w, eliminator-rank) triples from phase B.
	desSeen map[uint64]struct{}
	// res[kindFwd] is L_in, res[kindBwd] L_out (as batchLocal.lab).
	res dirLists
}

// basicShared replicates the hig lists for the phase-B elimination.
type basicShared struct {
	ord *order.Ordering
	adj dirGraphs
	hig dirLists
	ctx context.Context
}

// basicPhaseA floods all trimmed BFSs and gathers hig sets.
type basicPhaseA struct {
	ord *order.Ordering
	adj dirGraphs
	ctx context.Context
}

func (p *basicPhaseA) Superstep(w *pregel.Worker, step int) (bool, error) {
	ord := p.ord
	if step == 0 {
		local := &basicLocal{
			seen:    make(map[uint64]struct{}),
			list:    newDirLists(),
			hig:     newDirLists(),
			elim:    [2]map[graph.VertexID]struct{}{{}, {}},
			desSeen: make(map[uint64]struct{}),
			res:     newDirLists(),
		}
		w.State = local
		w.OwnedVertices(func(v graph.VertexID) {
			r := ord.RankOf(v)
			for d := kindFwd; d <= kindBwd; d++ {
				local.seen[seenKey(d, v, r)] = struct{}{}
				local.list[d][v] = append(local.list[d][v], r)
				flood(w, p.adj, d, v, int32(r))
			}
		})
		return true, nil
	}
	local := w.State.(*basicLocal)
	for i, m := range w.Inbox {
		if stepCanceled(i, p.ctx) {
			return false, p.ctx.Err()
		}
		d, dst := m.Kind&1, m.Dst
		r := order.Rank(m.Val)
		if m.Kind >= kindHig {
			local.hig[d][dst] = append(local.hig[d][dst], r)
			continue
		}
		rw := ord.RankOf(dst)
		// A vertex already visited by this source is skipped before
		// the order test (Algorithm 2 line 8) — in particular the
		// source itself, which otherwise would join its own BFS_hig
		// when a cycle leads back to it.
		if _, ok := local.seen[seenKey(d, dst, r)]; ok {
			continue
		}
		if r >= rw {
			// Blocked: dst ∈ BFS_hig(source). Record dst as an
			// eliminator and notify the source's owner once.
			blockKey := seenKey(kindHig+d, dst, r)
			if _, ok := local.seen[blockKey]; ok {
				continue
			}
			local.seen[blockKey] = struct{}{}
			local.elim[d][dst] = struct{}{}
			w.Send(pregel.Msg{Dst: ord.VertexAt(r), Kind: kindHig + d, Val: int32(rw)})
			continue
		}
		local.seen[seenKey(d, dst, r)] = struct{}{}
		local.list[d][dst] = append(local.list[d][dst], r)
		flood(w, p.adj, d, dst, m.Val)
	}
	return len(w.Inbox) > 0, nil
}

func (p *basicPhaseA) Finish(w *pregel.Worker) error { return nil }

// MessageCombiner deduplicates identical messages per destination. The
// flood kinds are seen-guarded and the block/notify path is guarded by
// blockKey, so a duplicate (Dst, Kind, Val) triple is never acted on.
func (p *basicPhaseA) MessageCombiner() pregel.Combiner { return pregel.DedupCombiner }

// basicPhaseB floods DES(u) from every eliminator and eliminates.
type basicPhaseB struct {
	shared *basicShared
}

func (p *basicPhaseB) PreStep(workers []*pregel.Worker, step int) error {
	return eachBroadcast(workers, func(tag uint8, payload []byte) error {
		d := tag - kindHig
		if d > kindBwd {
			return fmt.Errorf("drl: unknown broadcast tag %d", tag)
		}
		return decodeEventPairs(payload, func(v graph.VertexID, r order.Rank) {
			p.shared.hig[d][v] = append(p.shared.hig[d][v], r)
		})
	})
}

// MessageCombiner deduplicates DES-flood messages; the receiving loop
// is desSeen-guarded.
func (p *basicPhaseB) MessageCombiner() pregel.Combiner { return pregel.DedupCombiner }

func (p *basicPhaseB) Superstep(w *pregel.Worker, step int) (bool, error) {
	local := w.State.(*basicLocal)
	ord := p.shared.ord
	if step == 0 {
		// Broadcast the assembled hig lists and seed the DES floods.
		// Iterate in sorted vertex order so the broadcast bytes and the
		// outbox message order are run-independent (mapdet): the
		// elimination result is a set and would survive reordering, but
		// deterministic wire traffic is what keeps checkpoints and
		// fault-injection replays byte-stable.
		for d := kindFwd; d <= kindBwd; d++ {
			var evs []visitEvent
			for _, v := range sortedKeys(local.hig[d]) {
				for _, r := range local.hig[d][v] {
					evs = append(evs, visitEvent{v: v, r: r})
				}
			}
			w.Broadcast(encodeEventBlob(kindHig+d, evs))
			for _, u := range sortedKeys(local.elim[d]) {
				r := ord.RankOf(u)
				local.desSeen[seenKey(d, u, r)] = struct{}{}
				flood(w, p.shared.adj, d, u, int32(r))
			}
		}
		return true, nil
	}
	for i, m := range w.Inbox {
		if stepCanceled(i, p.shared.ctx) {
			return false, p.shared.ctx.Err()
		}
		d := m.Kind & 1
		key := seenKey(d, m.Dst, order.Rank(m.Val))
		if _, ok := local.desSeen[key]; ok {
			continue
		}
		local.desSeen[key] = struct{}{}
		flood(w, p.shared.adj, d, m.Dst, m.Val)
	}
	return len(w.Inbox) > 0 || len(w.BcastIn) > 0, nil
}

// Finish eliminates every candidate covered by an eliminator's DES
// and sorts the survivors into label lists.
func (p *basicPhaseB) Finish(w *pregel.Worker) error {
	local := w.State.(*basicLocal)
	for d := kindFwd; d <= kindBwd; d++ {
		for v, list := range local.list[d] {
			local.res[d][v] = uncovered(p.shared.ord, local.desSeen, d, v, list, p.shared.hig[d])
		}
	}
	return nil
}

// Collect encodes the labels of the worker's vertices for the gather.
func (p *basicPhaseB) Collect(w *pregel.Worker) ([]byte, error) {
	return collectLabels(w, w.State.(*basicLocal).res), nil
}

// BuildDistributedBasic runs DRL⁻ on the vertex-centric system.
func BuildDistributedBasic(g *graph.Digraph, ord *order.Ordering, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	m := pregel.New(g, opt.config())
	adj := dirGraphs{g, g.Inverse()}
	if _, err := m.Run(&basicPhaseA{ord: ord, adj: adj, ctx: opt.Ctx}); err != nil {
		return nil, m.Metrics, err
	}
	shared := &basicShared{ord: ord, adj: adj, hig: newDirLists(), ctx: opt.Ctx}
	if _, err := m.Run(&basicPhaseB{shared: shared}); err != nil {
		return nil, m.Metrics, err
	}
	return gather(m, ord)
}
