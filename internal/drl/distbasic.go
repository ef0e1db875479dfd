package drl

import (
	"sort"

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

const (
	kindHigFwd uint8 = 2 // notify: Val-ranked vertex blocked my fwd BFS
	kindHigBwd uint8 = 3
)

type basicLocal struct {
	seen    map[uint64]struct{}
	listFwd map[graph.VertexID][]order.Rank
	listBwd map[graph.VertexID][]order.Rank
	// higFwd[v] = BFS_hig(v) on G (ranks), assembled from notifies for
	// owned sources v.
	higFwd map[graph.VertexID][]order.Rank
	higBwd map[graph.VertexID][]order.Rank
	// elimFwd marks owned vertices that blocked at least one forward
	// BFS: the eliminator sources of phase B.
	elimFwd map[graph.VertexID]struct{}
	elimBwd map[graph.VertexID]struct{}
	// desSeen holds (kind, w, eliminator-rank) triples from phase B.
	desSeen map[uint64]struct{}
	resIn   map[graph.VertexID][]order.Rank
	resOut  map[graph.VertexID][]order.Rank
}

// basicShared replicates the hig lists for the phase-B elimination.
type basicShared struct {
	ord    *order.Ordering
	higFwd map[graph.VertexID][]order.Rank
	higBwd map[graph.VertexID][]order.Rank
	cancel <-chan struct{}
}

// basicPhaseA floods all trimmed BFSs and gathers hig sets.
type basicPhaseA struct {
	ord    *order.Ordering
	cancel <-chan struct{}
}

func (p *basicPhaseA) Superstep(w *pregel.Worker, step int) (bool, error) {
	ord := p.ord
	if step == 0 {
		local := &basicLocal{
			seen:    make(map[uint64]struct{}),
			listFwd: make(map[graph.VertexID][]order.Rank),
			listBwd: make(map[graph.VertexID][]order.Rank),
			higFwd:  make(map[graph.VertexID][]order.Rank),
			higBwd:  make(map[graph.VertexID][]order.Rank),
			elimFwd: make(map[graph.VertexID]struct{}),
			elimBwd: make(map[graph.VertexID]struct{}),
			desSeen: make(map[uint64]struct{}),
			resIn:   make(map[graph.VertexID][]order.Rank),
			resOut:  make(map[graph.VertexID][]order.Rank),
		}
		w.State = local
		w.OwnedVertices(func(v graph.VertexID) {
			r := ord.RankOf(v)
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
		return true, nil
	}
	local := w.State.(*basicLocal)
	for i, m := range w.Inbox {
		if stepCanceled(i, p.cancel) {
			return false, pregel.ErrCanceled
		}
		dst := m.Dst
		r := order.Rank(m.Val)
		switch m.Kind {
		case kindHigFwd:
			local.higFwd[dst] = append(local.higFwd[dst], r)
			continue
		case kindHigBwd:
			local.higBwd[dst] = append(local.higBwd[dst], r)
			continue
		}
		rw := ord.RankOf(dst)
		// A vertex already visited by this source is skipped before
		// the order test (Algorithm 2 line 8) — in particular the
		// source itself, which otherwise would join its own BFS_hig
		// when a cycle leads back to it.
		if _, ok := local.seen[seenKey(m.Kind, dst, r)]; ok {
			continue
		}
		if r >= rw {
			// Blocked: dst ∈ BFS_hig(source). Record dst as an
			// eliminator and notify the source's owner once.
			blockKey := seenKey(m.Kind+2, dst, r)
			if _, ok := local.seen[blockKey]; ok {
				continue
			}
			local.seen[blockKey] = struct{}{}
			src := ord.VertexAt(r)
			if m.Kind == kindFwd {
				local.elimFwd[dst] = struct{}{}
				w.Send(pregel.Msg{Dst: src, Kind: kindHigFwd, Val: int32(rw)})
			} else {
				local.elimBwd[dst] = struct{}{}
				w.Send(pregel.Msg{Dst: src, Kind: kindHigBwd, Val: int32(rw)})
			}
			continue
		}
		local.seen[seenKey(m.Kind, dst, r)] = struct{}{}
		if m.Kind == kindFwd {
			local.listFwd[dst] = append(local.listFwd[dst], r)
			for _, nb := range w.Graph.OutNeighbors(dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindFwd, Val: m.Val})
			}
		} else {
			local.listBwd[dst] = append(local.listBwd[dst], r)
			for _, nb := range w.Graph.InNeighbors(dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindBwd, Val: m.Val})
			}
		}
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
	if len(workers) == 0 {
		return nil
	}
	for _, blob := range workers[0].BcastIn {
		if len(blob) == 0 {
			continue
		}
		tgt := p.shared.higFwd
		if blob[0] == kindHigBwd {
			tgt = p.shared.higBwd
		}
		err := decodeEventPairs(blob[1:], func(v graph.VertexID, r order.Rank) {
			tgt[v] = append(tgt[v], r)
		})
		if err != nil {
			return err
		}
	}
	return nil
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
		var evsF, evsB []visitEvent
		for _, v := range sortedVertices(local.higFwd) {
			for _, r := range local.higFwd[v] {
				evsF = append(evsF, visitEvent{v: v, r: r})
			}
		}
		for _, v := range sortedVertices(local.higBwd) {
			for _, r := range local.higBwd[v] {
				evsB = append(evsB, visitEvent{v: v, r: r})
			}
		}
		w.Broadcast(encodeEventBlob(kindHigFwd, evsF))
		w.Broadcast(encodeEventBlob(kindHigBwd, evsB))
		for _, u := range sortedVertices(local.elimFwd) {
			r := ord.RankOf(u)
			local.desSeen[seenKey(kindFwd, u, r)] = struct{}{}
			for _, nb := range w.Graph.OutNeighbors(u) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindFwd, Val: int32(r)})
			}
		}
		for _, u := range sortedVertices(local.elimBwd) {
			r := ord.RankOf(u)
			local.desSeen[seenKey(kindBwd, u, r)] = struct{}{}
			for _, nb := range w.Graph.InNeighbors(u) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindBwd, Val: int32(r)})
			}
		}
		return true, nil
	}
	for i, m := range w.Inbox {
		if stepCanceled(i, p.shared.cancel) {
			return false, pregel.ErrCanceled
		}
		key := seenKey(m.Kind, m.Dst, order.Rank(m.Val))
		if _, ok := local.desSeen[key]; ok {
			continue
		}
		local.desSeen[key] = struct{}{}
		if m.Kind == kindFwd {
			for _, nb := range w.Graph.OutNeighbors(m.Dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindFwd, Val: m.Val})
			}
		} else {
			for _, nb := range w.Graph.InNeighbors(m.Dst) {
				w.Send(pregel.Msg{Dst: nb, Kind: kindBwd, Val: m.Val})
			}
		}
	}
	return len(w.Inbox) > 0 || len(w.BcastIn) > 0, nil
}

// Finish eliminates every candidate covered by an eliminator's DES
// and sorts the survivors into label lists.
func (p *basicPhaseB) Finish(w *pregel.Worker) error {
	local := w.State.(*basicLocal)
	ord := p.shared.ord
	eliminated := func(kind uint8, tgt graph.VertexID, hig []order.Rank) bool {
		for _, u := range hig {
			if _, ok := local.desSeen[seenKey(kind, tgt, u)]; ok {
				return true
			}
		}
		return false
	}
	for v, list := range local.listFwd {
		keep := make([]order.Rank, 0, len(list))
		for _, r := range list {
			if !eliminated(kindFwd, v, p.shared.higFwd[ord.VertexAt(r)]) {
				keep = append(keep, r)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		local.resIn[v] = keep
	}
	for v, list := range local.listBwd {
		keep := make([]order.Rank, 0, len(list))
		for _, r := range list {
			if !eliminated(kindBwd, v, p.shared.higBwd[ord.VertexAt(r)]) {
				keep = append(keep, r)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		local.resOut[v] = keep
	}
	return nil
}

// Collect encodes the labels of the worker's vertices for the gather.
func (p *basicPhaseB) Collect(w *pregel.Worker) ([]byte, error) {
	local := w.State.(*basicLocal)
	return collectLabels(w, local.resIn, local.resOut), nil
}

// BuildDistributedBasic runs DRL⁻ on the vertex-centric system.
func BuildDistributedBasic(g *graph.Digraph, ord *order.Ordering, opt DistOptions) (*label.Index, pregel.Metrics, error) {
	m := pregel.New(g, opt.config())
	if _, err := m.Run(&basicPhaseA{ord: ord, cancel: opt.Cancel}); err != nil {
		return nil, m.Metrics, err
	}
	shared := &basicShared{
		ord:    ord,
		higFwd: make(map[graph.VertexID][]order.Rank),
		higBwd: make(map[graph.VertexID][]order.Rank),
		cancel: opt.Cancel,
	}
	if _, err := m.Run(&basicPhaseB{shared: shared}); err != nil {
		return nil, m.Metrics, err
	}
	return gather(m, ord)
}
