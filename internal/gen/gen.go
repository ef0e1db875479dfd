// Package gen provides seeded synthetic graph generators, one per
// structural family of the paper's 18 evaluation datasets (Table V).
//
// The real datasets are multi-gigabyte downloads (SNAP, Konect, LAW,
// NetworkRepository); this environment has no network access, so each
// paper graph is replaced by a generator reproducing its family's
// structural regime — the properties the labeling algorithms are
// sensitive to:
//
//	Web        hierarchical copying model with hub pages and
//	           intra-site back links → skewed degrees, medium SCCs
//	Citation   preferential attachment, edges only new→old → DAG
//	Social     preferential attachment with reciprocation → one giant
//	           SCC, heavy-tailed degrees
//	Knowledge  sparse tree backbone plus cross links → shallow, wide
//	Biology    layered ontology DAG (GO-style) → short paths, high
//	           fan-out
//	Synthetic  RMAT/Kronecker as in Graph500
//
// Every generator is deterministic in (parameters, seed).
//
// Generators are written in emit style: each produces its edge stream
// through a callback, holding only its preferential-attachment pools
// (4 bytes per edge for the copying models, less for the rest) instead
// of the full edge slice. Edges collects the stream into a slice;
// Stream exposes it replayably so graph.FromEdgeStream can build the
// CSR without the slice ever existing — the generate-and-label path
// for graphs that stress one machine's memory.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Family names a structural regime from Table V.
type Family string

// The supported families.
const (
	Web       Family = "web"
	Citation  Family = "citation"
	Social    Family = "social"
	Knowledge Family = "knowledge"
	Biology   Family = "biology"
	Synthetic Family = "synthetic"
)

// Families lists every supported family.
func Families() []Family {
	return []Family{Web, Citation, Social, Knowledge, Biology, Synthetic}
}

// Params configures a generated graph.
type Params struct {
	Family Family
	// N is the number of vertices.
	N int
	// AvgDegree is the target average out-degree.
	AvgDegree float64
	// Seed makes the output deterministic.
	Seed int64
}

// EmitEdges streams the edge sequence of p to emit, in generation
// order — exactly the sequence Edges returns as a slice. An error
// from emit aborts generation and is returned unchanged.
func EmitEdges(p Params, emit func(graph.Edge) error) error {
	if p.N <= 0 {
		return fmt.Errorf("gen: vertex count %d must be positive", p.N)
	}
	if p.AvgDegree <= 0 {
		p.AvgDegree = 4
	}
	rng := rand.New(rand.NewSource(p.Seed))
	switch p.Family {
	case Web:
		return webEdges(p.N, p.AvgDegree, rng, emit)
	case Citation:
		return citationEdges(p.N, p.AvgDegree, rng, emit)
	case Social:
		return socialEdges(p.N, p.AvgDegree, rng, emit)
	case Knowledge:
		return knowledgeEdges(p.N, p.AvgDegree, rng, emit)
	case Biology:
		return biologyEdges(p.N, p.AvgDegree, rng, emit)
	case Synthetic:
		return rmatEdges(p.N, p.AvgDegree, rng, emit)
	default:
		return fmt.Errorf("gen: unknown family %q", p.Family)
	}
}

// edgesPerVertex is the number of edges a vertex emits at average
// degree avg (4 where avg is unset), at least one.
func edgesPerVertex(avg float64) int {
	if avg <= 0 {
		avg = 4
	}
	return max(1, int(avg+0.5))
}

// Edges generates the edge stream for p as a slice. The stream order
// matters: the scalability experiment (Fig. 7) takes prefixes of it.
// The slice is sized once for N × edgesPerVertex edges; a family that
// emits more (social's reciprocal edges) grows it.
func Edges(p Params) ([]graph.Edge, error) {
	edges := make([]graph.Edge, 0, max(p.N, 0)*edgesPerVertex(p.AvgDegree))
	if err := EmitEdges(p, func(e graph.Edge) error {
		edges = append(edges, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return edges, nil
}

// Stream returns the replayable edge stream of p: every invocation
// regenerates the identical sequence from the seed, which is what
// graph.FromEdgeStream's two passes need.
func Stream(p Params) graph.EdgeStreamFunc {
	return func(emit func(graph.Edge) error) error {
		return EmitEdges(p, emit)
	}
}

// Generate builds the graph for p through the in-memory edge slice.
func Generate(p Params) (*graph.Digraph, error) {
	edges, err := Edges(p)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(p.N, edges), nil
}

// GenerateStreamed builds the graph for p without materializing the
// edge slice: the generator runs twice (count pass, placement pass)
// and the peak footprint is the CSR plus the generator's pools. The
// result is byte-identical to Generate.
func GenerateStreamed(p Params) (*graph.Digraph, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("gen: vertex count %d must be positive", p.N)
	}
	return graph.FromEdgeStream(p.N, Stream(p))
}

// webEdges: linear-growth copying model. Each new page links to a few
// targets, copying the out-links of a random earlier page with
// probability copyP (produces hub pages and skewed in-degrees); with
// probability backP a target links back (intra-site navigation),
// forming medium-size cycles. The target pool stands in for the edge
// history: entry i is the target of the i-th emitted edge, so sampling
// it consumes the rng exactly as indexing the edge slice used to.
func webEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	const copyP, backP = 0.55, 0.12
	perVertex := edgesPerVertex(avg)
	var targets []graph.VertexID
	put := func(u, v int) error {
		targets = append(targets, graph.VertexID(v))
		return emit(graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	for v := 1; v < n; v++ {
		for j := 0; j < perVertex; j++ {
			var t int
			if rng.Float64() < copyP && len(targets) > 0 {
				// Copy a random existing link's target: preferential
				// attachment by in-degree.
				t = int(targets[rng.Intn(len(targets))])
			} else {
				t = rng.Intn(v)
			}
			if t == v {
				continue
			}
			if err := put(v, t); err != nil {
				return err
			}
			if rng.Float64() < backP {
				if err := put(t, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// citationEdges: edges strictly from newer to older vertices — a DAG,
// like Citeseerx and Cit-patent. Citations mix strong preferential
// attachment (landmark papers dominate, which is what keeps 2-hop
// labels small on real citation graphs) with recency (papers mostly
// cite the recent literature).
func citationEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	perVertex := edgesPerVertex(avg)
	// Papers live in research areas and overwhelmingly cite within
	// their own area; the occasional cross-area citation goes to a
	// well-cited paper. This community structure is what keeps the
	// transitive closure — and therefore the 2-hop labels — sparse on
	// real citation graphs.
	numCats := n/800 + 1
	perCat := make([][]int32, numCats)   // older papers per area
	catCited := make([][]int32, numCats) // citation targets per area (preferential pool)
	var allCited []int32                 // global preferential pool
	for v := 0; v < n; v++ {
		c := rng.Intn(numCats)
		for j := 0; j < perVertex; j++ {
			var t int32 = -1
			r := rng.Float64()
			switch {
			case r < 0.05 && len(allCited) > 0:
				t = allCited[rng.Intn(len(allCited))] // cross-area landmark
			case r < 0.65 && len(catCited[c]) > 0:
				t = catCited[c][rng.Intn(len(catCited[c]))]
			case len(perCat[c]) > 0:
				t = perCat[c][rng.Intn(len(perCat[c]))]
			}
			if t < 0 || int(t) >= v { // keep the DAG invariant
				continue
			}
			if err := emit(graph.Edge{U: graph.VertexID(v), V: graph.VertexID(t)}); err != nil {
				return err
			}
			catCited[c] = append(catCited[c], t)
			allCited = append(allCited, t)
		}
		perCat[c] = append(perCat[c], int32(v))
	}
	return nil
}

// socialEdges: directed preferential attachment with reciprocation,
// yielding a giant SCC and heavy-tailed degrees (Twitter/Sina-weibo
// regime). The target pool replaces the edge history as in webEdges.
func socialEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	const reciprocateP = 0.3
	perVertex := edgesPerVertex(avg)
	var targets []graph.VertexID
	put := func(u, v int) error {
		targets = append(targets, graph.VertexID(v))
		return emit(graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	for v := 1; v < n; v++ {
		for j := 0; j < perVertex; j++ {
			var t int
			if rng.Float64() < 0.7 && len(targets) > 0 {
				t = int(targets[rng.Intn(len(targets))])
			} else {
				t = rng.Intn(v)
			}
			if t == v {
				continue
			}
			if err := put(v, t); err != nil {
				return err
			}
			if rng.Float64() < reciprocateP {
				if err := put(t, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// knowledgeEdges: a shallow forest backbone (instance→class edges)
// plus sparse cross references — the DBpedia regime: low degrees,
// mostly acyclic, many tiny components reaching a small core.
func knowledgeEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	core := n / 50
	if core < 1 {
		core = 1
	}
	emitted := 0
	put := func(u, v int) error {
		emitted++
		return emit(graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	for v := core; v < n; v++ {
		// Parent link into the earlier part of the graph, biased to
		// the core.
		var t int
		if rng.Float64() < 0.4 {
			t = rng.Intn(core)
		} else {
			t = rng.Intn(v)
		}
		if err := put(v, t); err != nil {
			return err
		}
	}
	// Cross references: mostly toward earlier (more general) entities
	// so the graph stays largely acyclic with only small local cycles,
	// the DBpedia regime.
	extra := int(float64(n)*avg) - emitted
	for i := 0; i < extra; i++ {
		u := rng.Intn(n)
		t := rng.Intn(n)
		if u == t {
			continue
		}
		if t > u {
			u, t = t, u
		}
		if err := put(u, t); err != nil {
			return err
		}
		// A sprinkle of reciprocal links (redirect pairs, see-also
		// loops) keeps the family non-acyclic without a giant SCC.
		if rng.Float64() < 0.01 {
			if err := put(t, u); err != nil {
				return err
			}
		}
	}
	return nil
}

// biologyEdges: a layered ontology DAG in the Go-uniprot style —
// annotation vertices point into a term hierarchy that narrows toward
// a handful of roots.
func biologyEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	// The first tenth of the vertices form the term hierarchy; the
	// rest are annotations pointing into it.
	terms := n / 10
	if terms < 2 {
		terms = 2
	}
	if terms > n {
		terms = n
	}
	for v := 1; v < terms; v++ {
		// is-a edges toward lower-numbered (more general) terms.
		parents := 1 + rng.Intn(2)
		for j := 0; j < parents; j++ {
			t := rng.Intn(v)
			if err := emit(graph.Edge{U: graph.VertexID(v), V: graph.VertexID(t)}); err != nil {
				return err
			}
		}
	}
	perAnnot := edgesPerVertex(avg)
	for v := terms; v < n; v++ {
		for j := 0; j < perAnnot; j++ {
			t := rng.Intn(terms)
			if err := emit(graph.Edge{U: graph.VertexID(v), V: graph.VertexID(t)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// rmatEdges: the Graph500 RMAT/Kronecker generator with the standard
// (0.57, 0.19, 0.19, 0.05) partition probabilities.
func rmatEdges(n int, avg float64, rng *rand.Rand, emit func(graph.Edge) error) error {
	// Round n up to a power of two for the recursive partition, then
	// fold overflowing IDs back into range.
	scale := 0
	for 1<<scale < n {
		scale++
	}
	m := int(float64(n) * avg)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		u %= n
		v %= n
		if err := emit(graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)}); err != nil {
			return err
		}
	}
	return nil
}
