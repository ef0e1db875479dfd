package bfl

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// Options configures BFL index construction.
type Options struct {
	// Bits is the Bloom label width (default DefaultBits). Must be a
	// multiple of 64.
	Bits int
	// Ctx stops the build with its error when done (nil: never).
	Ctx context.Context
}

func (o Options) bits() (int, error) {
	b := o.Bits
	if b == 0 {
		b = DefaultBits
	}
	if b <= 0 || b%64 != 0 {
		return 0, fmt.Errorf("bfl: bits %d must be a positive multiple of 64", b)
	}
	return b, nil
}

// Build constructs the centralized BFL index (BFL^C): one DFS over the
// graph for the intervals, then a worklist fixpoint for the Bloom
// labels. The construction strictly follows DFS order — the property
// that makes BFL expensive to distribute (§V).
func Build(g *graph.Digraph, opt Options) (*Index, error) {
	bits, err := opt.bits()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
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
	x.computeIntervals(g)
	inv := g.Inverse()
	if err := x.fixpointLabels(opt.Ctx, g, inv, x.labelOut); err != nil {
		return nil, err
	}
	if err := x.fixpointLabels(opt.Ctx, inv, g, x.labelIn); err != nil {
		return nil, err
	}
	return x, nil
}

// computeIntervals assigns DFS discovery/finish times with an
// iterative DFS from every root in ID order. A single clock feeds
// both timestamps (it matches the token-passing distributed DFS
// bit for bit, which the tests rely on).
func (x *Index) computeIntervals(g *graph.Digraph) {
	n := g.NumVertices()
	seen := make([]bool, n)
	var clock int32
	type frame struct {
		v    graph.VertexID
		next int
	}
	var stack []frame
	for root := graph.VertexID(0); int(root) < n; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		x.pre[root] = clock
		clock++
		stack = append(stack, frame{v: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			nbrs := g.OutNeighbors(top.v)
			descended := false
			for top.next < len(nbrs) {
				w := nbrs[top.next]
				top.next++
				if !seen[w] {
					seen[w] = true
					x.pre[w] = clock
					clock++
					stack = append(stack, frame{v: w})
					descended = true
					break
				}
			}
			if descended {
				continue
			}
			x.post[top.v] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
}

// fixpointLabels computes lab[v] ⊇ {h(u) | u reachable from v in dir}
// by worklist propagation over dir and its transpose rev; on DAGs this
// is a single reverse-topological pass, on cyclic graphs it iterates
// to the fixpoint so the labels stay sound (the paper runs BFL on
// non-acyclic inputs).
func (x *Index) fixpointLabels(ctx context.Context, dir, rev *graph.Digraph, lab []uint64) error {
	n := dir.NumVertices()
	w := x.words
	// Seed: own hash bit.
	for v := 0; v < n; v++ {
		bit := x.hashBit[v]
		lab[v*w+int(bit)/64] |= 1 << (uint(bit) % 64)
	}
	inQueue := make([]bool, n)
	queue := make([]graph.VertexID, 0, n)
	// Start from every vertex in reverse post order for fast
	// convergence.
	order := graph.PostOrder(dir)
	for _, v := range order {
		queue = append(queue, v)
		inQueue[v] = true
	}
	steps := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		inQueue[v] = false
		steps++
		if steps%4096 == 0 && ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		changed := false
		lv := lab[int(v)*w : (int(v)+1)*w]
		for _, u := range dir.OutNeighbors(v) {
			lu := lab[int(u)*w : (int(u)+1)*w]
			for i := 0; i < w; i++ {
				if add := lu[i] &^ lv[i]; add != 0 {
					lv[i] |= add
					changed = true
				}
			}
		}
		if changed {
			for _, p := range rev.OutNeighbors(v) {
				if !inQueue[p] {
					inQueue[p] = true
					queue = append(queue, p)
				}
			}
		}
	}
	return nil
}
