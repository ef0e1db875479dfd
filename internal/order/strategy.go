package order

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Strategy selects how the total order is derived. Every labeling
// algorithm is correct under any total order; the strategy only
// affects index size and build time. The paper (§II-B) uses the
// degree product because it is cheap and works well; the alternatives
// here back the ordering ablation in the benchmark harness.
type Strategy string

// The available strategies.
const (
	// StrategyDegreeProduct is the paper's ord(v) =
	// (d_in+1)(d_out+1) + ID/(n+1). The default.
	StrategyDegreeProduct Strategy = "degree-product"
	// StrategyDegreeSum orders by d_in + d_out.
	StrategyDegreeSum Strategy = "degree-sum"
	// StrategyOutDegree orders by d_out only.
	StrategyOutDegree Strategy = "out-degree"
	// StrategyID orders by vertex ID (descending, matching the ID
	// tie-break direction). A deliberately structure-blind baseline.
	StrategyID Strategy = "id"
	// StrategyRandom is a deterministic pseudo-random permutation —
	// the worst-case control of the ablation.
	StrategyRandom Strategy = "random"
)

// Strategies lists every available strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyDegreeProduct, StrategyDegreeSum, StrategyOutDegree, StrategyID, StrategyRandom}
}

// ComputeStrategy derives the total order for g under the given
// strategy.
func ComputeStrategy(g *graph.Digraph, s Strategy) (*Ordering, error) {
	n := g.NumVertices()
	switch s {
	case StrategyDegreeProduct, "":
		return Compute(g), nil
	case StrategyDegreeSum:
		return computeByKey(g, func(v graph.VertexID) int64 {
			return int64(g.InDegree(v) + g.OutDegree(v))
		}), nil
	case StrategyOutDegree:
		return computeByKey(g, func(v graph.VertexID) int64 {
			return int64(g.OutDegree(v))
		}), nil
	case StrategyID:
		ranks := make([]Rank, n)
		for v := 0; v < n; v++ {
			ranks[v] = Rank(n - 1 - v)
		}
		return FromRanks(ranks), nil
	case StrategyRandom:
		return computeByKey(g, func(v graph.VertexID) int64 {
			return int64(splitmix(uint64(v)) >> 1)
		}), nil
	default:
		return nil, fmt.Errorf("order: unknown strategy %q", s)
	}
}

// computeByKey sorts descending by key, breaking ties upward by ID
// (the same tie-break direction as the paper's formula). The keys live
// only while the vertices are sorted.
func computeByKey(g *graph.Digraph, key func(graph.VertexID) int64) *Ordering {
	n := g.NumVertices()
	o := &Ordering{
		rank:   make([]Rank, n),
		vertex: make([]graph.VertexID, n),
		n:      n,
	}
	keys := make([]int64, n)
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		keys[v] = key(id)
		o.vertex[v] = id
	}
	sort.SliceStable(o.vertex, func(i, j int) bool {
		vi, vj := o.vertex[i], o.vertex[j]
		if keys[vi] != keys[vj] {
			return keys[vi] > keys[vj]
		}
		return vi > vj
	})
	for r, v := range o.vertex {
		o.rank[v] = Rank(r)
	}
	return o
}

// splitmix is the splitmix64 mixer, used for the deterministic random
// permutation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
