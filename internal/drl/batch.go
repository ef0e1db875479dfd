package drl

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/order"
)

// BatchParams controls the batch sequence of §IV: the initial batch
// size b and the increment factor k. The paper's defaults are b = 2,
// k = 2; k = 1 degenerates to fixed-size batches (and is the
// pathological configuration of Exp 8).
type BatchParams struct {
	InitialSize int
	Factor      float64
}

// DefaultBatchParams returns the paper's default b = 2, k = 2.
func DefaultBatchParams() BatchParams { return BatchParams{InitialSize: 2, Factor: 2} }

func (p BatchParams) validate() error {
	if p.InitialSize < 1 {
		return fmt.Errorf("drl: initial batch size %d must be positive", p.InitialSize)
	}
	if p.Factor < 1 {
		return fmt.Errorf("drl: batch factor %g must be >= 1", p.Factor)
	}
	return nil
}

// Span is a half-open rank interval [Lo, Hi) forming one batch.
type Span struct {
	Lo, Hi order.Rank
}

// Size returns the number of vertices in the batch.
func (s Span) Size() int { return int(s.Hi - s.Lo) }

// BatchSequence splits the n ranks into the batch sequence
// [V_1, …, V_g] of Definition 7: batch i takes the next ⌊b·k^(i-1)⌋
// highest-order vertices (at least one per batch).
func BatchSequence(n int, p BatchParams) ([]Span, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	var spans []Span
	cur := float64(p.InitialSize)
	lo := order.Rank(0)
	for int(lo) < n {
		// Clamped to the ranks that remain before converting: cur
		// outgrows int (k = 1e19 does at once) and would convert to a
		// negative size.
		hi := lo + order.Rank(max(int(min(cur, float64(n-int(lo)))), 1))
		spans = append(spans, Span{Lo: lo, Hi: hi})
		lo = hi
		cur *= p.Factor
	}
	return spans, nil
}

// BuildBatch is DRL_b (§IV): vertices are labeled batch by batch in
// decreasing order; inside a batch everything runs in parallel with
// the DRL machinery, while the label sets accumulated from previous
// batches provide TOL-style pruning — the trimmed BFS additionally
// blocks at any vertex w with L_out(v) ∩ L_in(w) ≠ ∅ over the
// already-final labels, which is exactly "a previously-labeled vertex
// lies on a v→w walk".
//
// With Options.Workers = GOMAXPROCS this is the multi-core DRL_b^M of
// Exp 3; the vertex-centric implementation is BuildDistributedBatch.
func BuildBatch(g *graph.Digraph, ord *order.Ordering, bp BatchParams, opt Options) (*label.Index, error) {
	in, out, err := batchLabel(g, ord, bp, opt, math.MaxInt, nil, nil)
	if err != nil {
		return nil, err
	}
	return label.FromStores(ord, in, out), nil
}

// BuildImproved is the improved labeling method DRL (Theorem 4):
// trimmed BFSs from every vertex in both directions, then refinement
// by inverted lists alone (Lemma 5). It is BuildBatch with the one
// batch [0, n) — no prior labels exist, so the self pruning and the
// label pruning fall away, exactly as for batchProgram's Algorithm 3.
func BuildImproved(g *graph.Digraph, ord *order.Ordering, opt Options) (*label.Index, error) {
	return BuildBatch(g, ord, BatchParams{InitialSize: max(g.NumVertices(), 1), Factor: 1}, opt)
}

// BuildBatchBudgeted is BuildBatch with every per-vertex label list
// capped at budget entries per direction — the size-restricted index
// of label.Budgeted, built by the parallel batch labeler instead of
// the serial rounds of tol.BuildBudgeted. The labeling is BuildBatch's
// except at the two refine-step appends: an entry a full list cannot
// take is dropped and the list is marked incomplete.
//
// Stored entries are factual (every one comes from a BFS visit), and a
// label miss between a complete L_out(s) and a complete L_in(t) proves
// s cannot reach t: the highest-order vertex m on any s→t walk is
// never blocked on its way to s or t — a rank block, a label block, a
// self prune and a refine hit each exhibit a factual vertex on that
// walk that outranks m — so m is offered to both lists. The output
// depends on (g, ord, budget, bp) and not on Options.Workers; with
// budget ≥ Δ it is tol.Build's index with every list complete. When
// the cap bites, the index may differ from tol.BuildBudgeted's only by
// omission: the serial rounds run an un-pruned BFS and so offer, past
// a label-blocked vertex, entries (and overflow marks) the batch
// labeler never reaches.
//
// The returned index retains g for fallback queries.
func BuildBatchBudgeted(g *graph.Digraph, ord *order.Ordering, bp BatchParams, budget int, opt Options) (*label.Budgeted, error) {
	if budget < 1 {
		return nil, fmt.Errorf("drl: label budget %d must be at least 1", budget)
	}
	n := g.NumVertices()
	inFull := make([]bool, n)
	outFull := make([]bool, n)
	for v := range inFull {
		inFull[v], outFull[v] = true, true
	}
	in, out, err := batchLabel(g, ord, bp, opt, budget, inFull, outFull)
	if err != nil {
		return nil, err
	}
	return label.NewBudgeted(label.FromStores(ord, in, out), g, budget, inFull, outFull), nil
}

// batchScratch is one worker's BFS state. seen is epoch-marked so a
// BFS costs no clearing; lows is the arena the worker's BFS_low lists
// of the current batch are appended to (each BFS uses its stretch of
// the arena as its queue), reset per batch so its backing array is
// reused for the whole build.
type batchScratch struct {
	// seen[w] is the epoch of the last BFS that met w — whether w then
	// joined BFS_low or blocked the expansion, it is not looked at
	// again, so one mark (one random load per edge) serves both.
	seen  []int32
	epoch int32
	lows  []graph.VertexID
	tests int64 // label pruning tests run, added to drl_label_tests_total per batch
}

// lowRef locates one batch vertex's two BFS_low lists inside a worker's
// arena: forward in lows[lo:mid], backward in lows[mid:hi]. Offsets,
// not slices, so a growing arena frees its old backing array.
type lowRef struct {
	wk          int
	lo, mid, hi int
}

// batchLabel is the one labeling core behind BuildBatch and
// BuildBatchBudgeted. It returns the label lists, one working store
// per direction. A list holding budget entries takes no more: the
// refused entry clears the vertex's inFull/outFull mark instead.
// BuildBatch passes a budget no list reaches and nil marks.
func batchLabel(g *graph.Digraph, ord *order.Ordering, bp BatchParams, opt Options, budget int, inFull, outFull []bool) (in, out *label.Store, err error) {
	n := g.NumVertices()
	spans, err := BatchSequence(n, bp)
	if err != nil {
		return nil, nil, err
	}
	inv := g.Inverse()
	in, out = label.NewStore(n), label.NewStore(n)

	scratches := make([]*batchScratch, opt.workers())
	for i := range scratches {
		scratches[i] = &batchScratch{seen: make([]int32, n)}
	}
	// Per-batch tables, allocated once and refilled every batch.
	maxSpan := 0
	for _, span := range spans {
		maxSpan = max(maxSpan, span.Size())
	}
	refs := make([]lowRef, maxSpan)
	fwdLow := func(i int) []graph.VertexID { return scratches[refs[i].wk].lows[refs[i].lo:refs[i].mid] }
	bwdLow := func(i int) []graph.VertexID { return scratches[refs[i].wk].lows[refs[i].mid:refs[i].hi] }
	visitedFwd := &rankLists{off: make([]int64, n+1)}
	visitedBwd := &rankLists{off: make([]int64, n+1)}
	// One n-entry count per worker, which invert splits a batch's
	// sources among.
	counts := make([][]int32, opt.workers())
	for i := range counts {
		counts[i] = make([]int32, n)
	}

	cBatches := opt.Obs.Counter("drl_batches_total")
	hBatch := opt.Obs.Histogram("drl_batch_vertices", obs.SizeBuckets)
	cBFS := opt.Obs.Counter("drl_trimmed_bfs_total")
	cVisits := opt.Obs.Counter("drl_bfs_visits_total")
	cRefine := opt.Obs.Counter("drl_refine_rounds_total")
	cTests := opt.Obs.Counter("drl_label_tests_total")

	// batchTrimmed is the trimmed BFS with batch-label pruning: the
	// expansion into w is blocked both at higher-order vertices
	// (Algorithm 2) and where srcLab ∩ tgtLab[w] ≠ ∅ — a vertex from a
	// previous batch lies on a v→w walk (Algorithm 4). An empty srcLab
	// meets nothing, so tgtLab's list of w is not read at all.
	// BFS_low(v) is appended to the worker's arena.
	batchTrimmed := func(dir *graph.Digraph, s *batchScratch, v graph.VertexID, rv order.Rank, srcLab label.List, tgtLab *label.Store) {
		s.epoch++
		ep := s.epoch
		head := len(s.lows)
		s.lows = append(s.lows, v)
		s.seen[v] = ep
		for ; head < len(s.lows); head++ {
			u := s.lows[head]
			for _, w := range dir.OutNeighbors(u) {
				if s.seen[w] == ep {
					continue
				}
				s.seen[w] = ep
				if ord.RankOf(w) <= rv {
					continue
				}
				if !srcLab.Empty() {
					s.tests++
					if !srcLab.Disjoint(tgtLab.List(w)) {
						continue
					}
				}
				s.lows = append(s.lows, w)
			}
		}
	}

	for _, span := range spans {
		size := span.Size()
		for _, s := range scratches {
			s.lows = s.lows[:0]
		}
		err := parallelRanks(span.Lo, span.Hi, opt.workers(), opt.Ctx, func(wk int, r order.Rank) {
			v := ord.VertexAt(r)
			s := scratches[wk]
			ref := lowRef{wk: wk, lo: len(s.lows), mid: len(s.lows), hi: len(s.lows)}
			// Self pruning (Algorithm 4 line 6): a higher-order vertex
			// on a cycle through v means v joins no label set at all.
			if outV, inV := out.List(v), in.List(v); outV.Disjoint(inV) {
				batchTrimmed(g, s, v, r, outV, in)
				ref.mid = len(s.lows)
				batchTrimmed(inv, s, v, r, inV, out)
				ref.hi = len(s.lows)
				cBFS.Add(2)
				cVisits.Add(int64(ref.hi - ref.lo))
			}
			refs[r-span.Lo] = ref
		})
		if err != nil {
			return nil, nil, err
		}
		cBatches.Inc()
		hBatch.Observe(float64(size))
		for _, s := range scratches {
			cTests.Add(s.tests)
			s.tests = 0
		}
		visitedFwd.invert(size, fwdLow, span.Lo, counts)
		visitedBwd.invert(size, bwdLow, span.Lo, counts)

		// In-batch refinement (Lemma 5) plus label append. A list gains
		// at most one rank per batch source that visited its vertex, so
		// the stores make room for that first, and the appends go in
		// place. New ranks all exceed previously appended ones — that is
		// what lets the lists skip a final sort and still match TOL byte
		// for byte — and the visitors of w below rv are a prefix of its
		// row, so the refine test needs no bound of its own.
		cRefine.Inc()
		err = parallelRanks(0, order.Rank(in.Blocks()), opt.workers(), opt.Ctx, func(_ int, b order.Rank) {
			in.Reserve(int(b), span.Hi, visitedFwd.off, budget)
			out.Reserve(int(b), span.Hi, visitedBwd.off, budget)
			lo, hi := in.Block(int(b))
			for w := lo; w < hi; w++ {
				fRow := visitedFwd.Row(w)
				bRow := visitedBwd.Row(w)
				for k, rv := range fRow {
					if label.Disjoint(visitedBwd.Row(ord.VertexAt(rv)), fRow[:k]) {
						if in.Len(w) < budget {
							in.Append(w, rv)
						} else {
							// A needed entry was refused: from here on a
							// miss in L_in(w) proves nothing.
							inFull[w] = false
						}
					}
				}
				for k, rv := range bRow {
					if label.Disjoint(visitedFwd.Row(ord.VertexAt(rv)), bRow[:k]) {
						if out.Len(w) < budget {
							out.Append(w, rv)
						} else {
							outFull[w] = false
						}
					}
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	opt.Obs.Gauge("drl_store_bytes").Set(in.Bytes() + out.Bytes())
	return in, out, nil
}

// invert refills t with the vertex→visitors table of the BFS_low lists
// of a batch of sources: low(i) belongs to the source with rank base+i.
// It is a stable counting sort, run as graph.FromEdges derives a
// transpose: the sources are split into one contiguous range per count
// scratch, of about equal visits; each range counts its visits per
// vertex; the prefix sums give every (range, vertex) pair its own
// stretch of the vertex's row, in range order; and each range places its
// sources in increasing rank — so every row comes out sorted, with no
// shared cursor. The ranges run in parallel. t.off (n+1 entries),
// t.data's backing array and the counts are reused, so a labeler that
// inverts twice per batch allocates only when a batch outgrows every
// earlier one.
func (t *rankLists) invert(sources int, low func(i int) []graph.VertexID, base order.Rank, counts [][]int32) {
	total := 0
	for i := 0; i < sources; i++ {
		total += len(low(i))
	}
	parts := len(counts)
	cuts := make([]int, parts+1)
	for i, seen, k := 0, 0, 1; k < parts; k++ {
		for ; i < sources && seen*parts < total*k; i++ {
			seen += len(low(i))
		}
		cuts[k] = i
	}
	cuts[parts] = sources
	each := func(fn func(c []int32, i int)) {
		_ = parallelRanks(0, order.Rank(parts), parts, nil, func(_ int, p order.Rank) {
			c := counts[p]
			for i := cuts[p]; i < cuts[p+1]; i++ {
				fn(c, i)
			}
		})
	}
	for _, c := range counts {
		clear(c)
	}
	each(func(c []int32, i int) {
		for _, w := range low(i) {
			c[w]++
		}
	})
	for v := range counts[0] {
		var row int32
		for _, c := range counts {
			row, c[v] = row+c[v], row
		}
		t.off[v+1] = t.off[v] + int64(row)
	}
	if cap(t.data) < total {
		t.data = make([]order.Rank, total)
	}
	t.data = t.data[:total]
	each(func(c []int32, i int) {
		for _, w := range low(i) {
			t.data[t.off[w]+int64(c[w])] = base + order.Rank(i)
			c[w]++
		}
	})
}
