package bfl

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"

	"repro/internal/pregel"
)

// BFL^D: the distributed BFL of Exp 2. BFL's index construction
// strictly follows DFS order, so the distributed build passes a single
// DFS token between workers — one or two supersteps per tree edge —
// which is exactly the cost profile the paper reports (BFL^D index
// time up to 50× BFL^C). Awerbuch-style visit notifications let the
// token holder skip children it already knows are visited, but the
// walk itself stays serial. The Bloom labels are then computed by a
// parallel fixpoint propagation, the only phase that actually
// parallelizes.
//
// Queries on BFL^D that the labels cannot decide must traverse the
// distributed graph; ReachableDistributed charges one barrier latency
// per cross-partition expansion, the model behind Table VI's query
// column.

// DistOptions configures the distributed BFL build.
type DistOptions struct {
	Workers int
	Net     netsim.Model
	Ctx     context.Context
}

// Message kinds of the DFS token protocol and label propagation.
const (
	dfsRoot   uint8 = 0 // root-scan cursor; Val2 = clock
	dfsVisit  uint8 = 1 // token enters Dst; Val = sender, Val2 = clock
	dfsReturn uint8 = 2 // token returns to Dst; Val2 = clock
	dfsMark   uint8 = 3 // Val was visited; skip it as a child
	lblWord   uint8 = 4 // Val = 32-bit word index of Dst's neighbor label, Val2 = bits
)

type dfsLocal struct {
	visited  map[graph.VertexID]struct{}
	known    map[graph.VertexID]struct{} // remote vertices known visited
	parent   map[graph.VertexID]graph.VertexID
	isRoot   map[graph.VertexID]struct{}
	childIdx map[graph.VertexID]int
	pre      map[graph.VertexID]int32
	post     map[graph.VertexID]int32
}

// dfsProgram runs the token-passing DFS and assigns interval labels
// with a single global clock (incremented on discovery and finish).
type dfsProgram struct {
	n int
	// inv is the graph's transpose, whose out-neighbors are the
	// in-neighbors the token's owner notifies.
	inv *graph.Digraph
	ctx context.Context
}

func (p *dfsProgram) Superstep(w *pregel.Worker, step int) (bool, error) {
	if step == 0 {
		w.State = &dfsLocal{
			visited:  make(map[graph.VertexID]struct{}),
			known:    make(map[graph.VertexID]struct{}),
			parent:   make(map[graph.VertexID]graph.VertexID),
			isRoot:   make(map[graph.VertexID]struct{}),
			childIdx: make(map[graph.VertexID]int),
			pre:      make(map[graph.VertexID]int32),
			post:     make(map[graph.VertexID]int32),
		}
		if p.n > 0 && w.Owns(0) {
			w.Send(pregel.Msg{Dst: 0, Kind: dfsRoot, Val2: 0})
		}
		return true, nil
	}
	local := w.State.(*dfsLocal)
	if p.ctx != nil && p.ctx.Err() != nil {
		return false, p.ctx.Err()
	}
	// Apply visit notifications before moving the token so the holder
	// skips known-visited children without a probe round-trip.
	for _, m := range w.Inbox {
		if m.Kind == dfsMark {
			local.known[graph.VertexID(m.Val)] = struct{}{}
		}
	}
	for _, m := range w.Inbox {
		switch m.Kind {
		case dfsRoot:
			p.runToken(w, local, tokenAction{kind: actRoot, v: m.Dst, clock: m.Val2})
		case dfsVisit:
			v := m.Dst
			sender := graph.VertexID(m.Val)
			if _, ok := local.visited[v]; ok {
				// Bounce: the child was already visited.
				w.Send(pregel.Msg{Dst: sender, Kind: dfsReturn, Val: int32(v), Val2: m.Val2})
				continue
			}
			p.runToken(w, local, tokenAction{kind: actEnter, v: v, parent: sender, clock: m.Val2})
		case dfsReturn:
			p.runToken(w, local, tokenAction{kind: actAdvance, v: m.Dst, clock: m.Val2})
		}
	}
	return len(w.Inbox) > 0, nil
}

// The single DFS token is driven as an iterative state machine: each
// step either produces the next local action or hands the token to
// another worker via a message. This keeps arbitrarily deep DFS
// chains off the call stack.
const (
	actRoot    uint8 = iota // scan the root cursor from v
	actEnter                // discover v (parent/root as tagged)
	actAdvance              // continue scanning v's children
)

type tokenAction struct {
	kind   uint8
	v      graph.VertexID
	parent graph.VertexID
	root   bool
	clock  int32
}

func (p *dfsProgram) runToken(w *pregel.Worker, local *dfsLocal, a tokenAction) {
	for {
		switch a.kind {
		case actRoot:
			if int(a.v) >= p.n {
				return // every vertex processed: quiesce
			}
			if !w.Owns(a.v) {
				w.Send(pregel.Msg{Dst: a.v, Kind: dfsRoot, Val2: a.clock})
				return
			}
			if _, ok := local.visited[a.v]; ok {
				a.v++
				continue
			}
			a = tokenAction{kind: actEnter, v: a.v, root: true, clock: a.clock}

		case actEnter:
			v := a.v
			local.visited[v] = struct{}{}
			local.pre[v] = a.clock
			if a.root {
				local.isRoot[v] = struct{}{}
			} else {
				local.parent[v] = a.parent
			}
			// Notify owners of in-neighbors so they skip v as a child.
			for _, nb := range p.inv.OutNeighbors(v) {
				if !w.Owns(nb) {
					w.Send(pregel.Msg{Dst: nb, Kind: dfsMark, Val: int32(v)})
				}
			}
			a = tokenAction{kind: actAdvance, v: v, clock: a.clock + 1}

		case actAdvance:
			v := a.v
			nbrs := w.Graph.OutNeighbors(v)
			i := local.childIdx[v]
			var descend graph.VertexID = -1
			for i < len(nbrs) {
				c := nbrs[i]
				i++
				if _, ok := local.known[c]; ok {
					continue
				}
				if !w.Owns(c) {
					local.childIdx[v] = i
					w.Send(pregel.Msg{Dst: c, Kind: dfsVisit, Val: int32(v), Val2: a.clock})
					return
				}
				if _, ok := local.visited[c]; ok {
					continue
				}
				descend = c
				break
			}
			local.childIdx[v] = i
			if descend >= 0 {
				a = tokenAction{kind: actEnter, v: descend, parent: v, clock: a.clock}
				continue
			}
			// Children exhausted: finish v.
			local.post[v] = a.clock
			a.clock++
			if _, ok := local.isRoot[v]; ok {
				a = tokenAction{kind: actRoot, v: v + 1, clock: a.clock}
				continue
			}
			parent := local.parent[v]
			if w.Owns(parent) {
				a = tokenAction{kind: actAdvance, v: parent, clock: a.clock}
				continue
			}
			w.Send(pregel.Msg{Dst: parent, Kind: dfsReturn, Val: int32(v), Val2: a.clock})
			return
		}
	}
}

func (p *dfsProgram) Finish(w *pregel.Worker) error { return nil }

// lblLocal holds the label words of a worker's owned vertices plus
// the per-step dirty set.
type lblLocal struct {
	lab   map[graph.VertexID][]uint32
	dirty map[graph.VertexID]map[int32]struct{}
}

// lblProgram computes the Bloom out-labels over dir by parallel
// fixpoint propagation: a vertex whose label grows re-sends the
// changed 32-bit words to its in-neighbors (which absorb them, since
// DES(parent) ⊇ DES(child)).
type lblProgram struct {
	words32 int
	bits    int
	// rev is the transpose of the graph the labels propagate over.
	rev *graph.Digraph
	ctx context.Context
}

func (p *lblProgram) Superstep(w *pregel.Worker, step int) (bool, error) {
	if step == 0 {
		local := &lblLocal{
			lab:   make(map[graph.VertexID][]uint32),
			dirty: make(map[graph.VertexID]map[int32]struct{}),
		}
		w.State = local
		w.OwnedVertices(func(v graph.VertexID) {
			lab := make([]uint32, p.words32)
			bit := hashVertex(v, p.bits)
			lab[bit/32] |= 1 << (uint(bit) % 32)
			local.lab[v] = lab
			word := bit / 32
			for _, nb := range p.rev.OutNeighbors(v) {
				w.Send(pregel.Msg{Dst: nb, Kind: lblWord, Val: word, Val2: int32(lab[word])})
			}
		})
		return true, nil
	}
	local := w.State.(*lblLocal)
	for k := range local.dirty {
		delete(local.dirty, k)
	}
	for i, m := range w.Inbox {
		// Supersteps of the fixpoint can carry millions of word
		// updates on dense graphs; honor the cut-off mid-step.
		if i%(1<<17) == 0 && p.ctx != nil && p.ctx.Err() != nil {
			return false, p.ctx.Err()
		}
		v := m.Dst
		lab := local.lab[v]
		old := lab[m.Val]
		merged := old | uint32(m.Val2)
		if merged == old {
			continue
		}
		lab[m.Val] = merged
		set := local.dirty[v]
		if set == nil {
			set = make(map[int32]struct{})
			local.dirty[v] = set
		}
		set[m.Val] = struct{}{}
	}
	for v, words := range local.dirty {
		lab := local.lab[v]
		for word := range words {
			for _, nb := range p.rev.OutNeighbors(v) {
				//lint:ignore mapdet BFL is randomized by design: label words merge by commutative OR, so emission order cannot change the index
				w.Send(pregel.Msg{Dst: nb, Kind: lblWord, Val: word, Val2: int32(lab[word])})
			}
		}
	}
	return len(w.Inbox) > 0, nil
}

func (p *lblProgram) Finish(w *pregel.Worker) error { return nil }

// BuildDistributed constructs the BFL index on the vertex-centric
// system (BFL^D) and returns the index plus run metrics.
func BuildDistributed(g *graph.Digraph, opt Options, dopt DistOptions) (*Index, pregel.Metrics, error) {
	bits, err := opt.bits()
	if err != nil {
		return nil, pregel.Metrics{}, err
	}
	n := g.NumVertices()
	cfg := pregel.Config{
		Workers:       dopt.Workers,
		Net:           dopt.Net,
		Ctx:           dopt.Ctx,
		MaxSupersteps: 8*(n+int(g.NumEdges())) + 64,
	}

	// The transpose, which every phase walks, for the build.
	inv := g.Inverse()

	// Phase 1: token-passing DFS for the intervals. Every phase runs on
	// the one master, whose Metrics sum them.
	eng := pregel.New(g, cfg)
	if met, err := eng.Run(&dfsProgram{n: n, inv: inv, ctx: dopt.Ctx}); err != nil {
		return nil, met, fmt.Errorf("bfl: distributed DFS: %w", err)
	}
	x := &Index{
		n:        n,
		words:    bits / 64,
		pre:      make([]int32, n),
		post:     make([]int32, n),
		labelOut: make([]uint64, n*(bits/64)),
		labelIn:  make([]uint64, n*(bits/64)),
		hashBit:  make([]int32, n),
	}
	for v := 0; v < n; v++ {
		x.hashBit[v] = hashVertex(graph.VertexID(v), bits)
	}
	for _, wk := range eng.Workers() {
		st := wk.State.(*dfsLocal)
		for v, t := range st.pre {
			x.pre[v] = t
		}
		for v, t := range st.post {
			x.post[v] = t
		}
	}

	// Phase 2+3: Bloom labels in both directions, in parallel. A
	// program walks only its rev graph, so both run over g's partition.
	for _, dir := range []struct {
		rev *graph.Digraph
		lab []uint64
	}{{inv, x.labelOut}, {g, x.labelIn}} {
		if met, err := eng.Run(&lblProgram{words32: bits / 32, bits: bits, rev: dir.rev, ctx: dopt.Ctx}); err != nil {
			return nil, met, fmt.Errorf("bfl: label propagation: %w", err)
		}
		for _, wk := range eng.Workers() {
			st := wk.State.(*lblLocal)
			for v, words := range st.lab {
				row := dir.lab[int(v)*x.words : (int(v)+1)*x.words]
				for i, bits32 := range words {
					row[i/2] |= uint64(bits32) << (uint(i%2) * 32)
				}
			}
		}
	}
	return x, eng.Metrics, nil
}

// ReachableDistributed answers q(s,t) against a partitioned graph:
// the labels of s and t decide most queries after one remote label
// fetch; undecided queries run the pruned DFS, paying one barrier
// latency per cross-partition expansion. It returns the answer and
// the simulated network time of the query.
func (x *Index) ReachableDistributed(g *graph.Digraph, s, t graph.VertexID, workers int, net netsim.Model) (bool, time.Duration) {
	var sim time.Duration
	owner := func(v graph.VertexID) int { return int(v) % workers }
	if workers > 1 && owner(s) != owner(t) {
		sim += net.BarrierLatency // fetch t's interval and labels
	}
	if s == t || x.treeDescendant(s, t) {
		return true, sim
	}
	if x.labelsRuleOut(s, t) {
		return false, sim
	}
	visited := make(map[graph.VertexID]struct{}, 64)
	stack := []graph.VertexID{s}
	visited[s] = struct{}{}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.OutNeighbors(u) {
			if _, ok := visited[w]; ok {
				continue
			}
			if workers > 1 && owner(u) != owner(w) {
				sim += net.BarrierLatency // the traversal crosses nodes
			}
			if w == t || x.treeDescendant(w, t) {
				return true, sim
			}
			if x.labelsRuleOut(w, t) {
				continue
			}
			visited[w] = struct{}{}
			stack = append(stack, w)
		}
	}
	return false, sim
}
