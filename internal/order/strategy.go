package order

import (
	"fmt"

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
		in := inDegrees(g)
		return computeByKey(g, func(v graph.VertexID) int64 {
			return int64(int(in[v]) + g.OutDegree(v))
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
// (the same tie-break direction as the paper's formula): a least
// significant digit radix sort, a byte of the key a pass, of the
// vertices taken in descending ID order — stable, so equal keys keep
// that order. A pass over a byte every key shares moves nothing and is
// skipped: keys below 2¹⁶, as the benchmark graph's degree products
// are, take two passes, random ones eight, and no comparison is made at
// all. The keys live only while the vertices are sorted.
func computeByKey(g *graph.Digraph, key func(graph.VertexID) int64) *Ordering {
	n := g.NumVertices()
	type item struct {
		desc uint64 // ascending in desc is descending in key
		v    graph.VertexID
	}
	a, b := make([]item, n), make([]item, n)
	for i := range a {
		v := graph.VertexID(n - 1 - i)
		a[i] = item{^(uint64(key(v)) ^ 1<<63), v} // the sign flip orders int64s as uint64s
	}
	for shift := uint(0); shift < 64 && n > 0; shift += 8 {
		var start [256]int
		for _, it := range a {
			start[byte(it.desc>>shift)]++
		}
		if start[byte(a[0].desc>>shift)] == n {
			continue
		}
		sum := 0
		for d, count := range start {
			start[d], sum = sum, sum+count
		}
		for _, it := range a {
			d := byte(it.desc >> shift)
			b[start[d]] = it
			start[d]++
		}
		a, b = b, a
	}
	o := &Ordering{rank: make([]Rank, n), vertex: make([]graph.VertexID, n), n: n}
	for r, it := range a {
		o.vertex[r] = it.v
		o.rank[it.v] = Rank(r)
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
