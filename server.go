package reachlab

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// QueryHandler serves reachability queries from an index over HTTP —
// the paper's deployment: the distributed graph stays put, the
// compact index answers queries from one machine (§I). cmd/drserve
// wraps it into a standalone server; cmd/drrouter fans traffic across
// a fleet of them (DESIGN.md §9).
//
// The endpoints, their bodies, limits and refusals are the HTTP
// contract of internal/httpapi (DESIGN.md "HTTP contract"); this file
// and server_query.go, server_update.go are what a replica does behind
// it. /metrics, /trace and /debug/pprof/ are mounted beside them.
//
// The handler serves an *epoch* of the index: the frozen flat index
// and its hot-pair cache live together in one immutable serveState
// behind an atomic.Pointer, so a reload (Swap) replaces both as one
// unit and no query ever observes a torn index or a cache entry from
// a different index. Every query answer carries the serving epoch in
// EpochHeader, /healthz carries it too (plus VerticesHeader) so a fleet
// health probe learns it for free, and /stats reports index_epoch and
// index_vertices so operators can confirm a reload landed.
//
// Every mounted request is counted and timed once, by the mux, per
// handler: "reachlab_http_requests_total", "reachlab_http_errors_total",
// "reachlab_http_canceled_total" (requests dropped because their client
// went away) and the latency histogram "reachlab_http_request_seconds",
// whatever the request's outcome. Every pair a request asks about is
// counted once in "reachlab_query_pairs_total", by resolve; with the
// hot-pair cache enabled, each also counts exactly once in
// "reachlab_cache_hits_total" or "reachlab_cache_misses_total", so
// hits + misses == pairs reconciles by construction. The same tallies
// feed the handler's own lifetime counters, which CacheStats and /stats
// read: one count per outcome, across every epoch, with or without a
// registry.
type QueryHandler struct {
	state atomic.Pointer[serveState]
	mux   *httpapi.Mux

	// reloadMu serializes Swap/Reload so epochs increment one at a
	// time; queries never take it — they only load the state pointer.
	reloadMu sync.Mutex
	loader   func(ref string) (*Index, error)

	// updater, when set via EnableUpdates, serves POST /edges and the
	// /stats "updates" block (server_update.go). It is bound once at
	// startup, before the handler sees traffic.
	updater *Updater

	// Cache size, re-applied to the fresh cache of every epoch.
	cachePairs int

	// Lifetime cache outcomes across epochs, added to once per request
	// by resolve.
	hits, misses atomic.Int64

	// Hot-path metric handles, resolved once.
	pairsTotal  *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	reloads     *obs.Counter
	epochGauge  *obs.Gauge
}

// serveState is one epoch of serving: an immutable index and the
// cache that holds only that index's answers. The pair is swapped
// atomically — a query that loaded epoch k runs entirely against
// epoch k's index and cache.
type serveState struct {
	idx   *Index
	cache *qcache.Cache
	epoch uint64
}

// ServeOptions configures NewQueryHandlerOpts.
type ServeOptions struct {
	// Obs receives request counters and latency histograms; nil
	// disables instrumentation (/metrics and /trace serve empty
	// documents).
	Obs *MetricsRegistry
	// CachePairs sizes the hot-pair answer cache in 4-byte slots
	// (rounded up to a power of two). Zero disables the cache. Within
	// one epoch the index is immutable, so cached answers never need
	// invalidation; a reload swaps in a fresh cache with the index.
	CachePairs int
	// CacheShards is ignored: the cache is one table. The field stays
	// while the benchmark harness sets it.
	CacheShards int
	// Loader produces the next index for POST /admin/reload (and
	// drserve's SIGHUP): ref is the request's "ref" field, "" meaning
	// "the default source" (drserve reloads its -idx path). Nil
	// disables the reload endpoint (501).
	Loader func(ref string) (*Index, error)
}

// The contract's constants under the names this package has always
// exported them by: the caps every replica and router enforce (a larger
// batch or list, or a larger deduplicated join product, is refused with
// 413), and the two response headers.
const (
	DefaultMaxBatch = httpapi.MaxBatch
	DefaultMaxJoin  = httpapi.MaxJoin
	EpochHeader     = httpapi.EpochHeader
	VerticesHeader  = httpapi.VerticesHeader
)

// NewQueryHandlerOpts returns an http.Handler serving queries from idx
// as opts configure it: metrics registry, cache size and reload
// loader. The zero ServeOptions serves uninstrumented and uncached.
func NewQueryHandlerOpts(idx *Index, opts ServeOptions) *QueryHandler {
	reg := opts.Obs
	h := &QueryHandler{
		mux:        httpapi.NewMux(reg, "reachlab"),
		loader:     opts.Loader,
		cachePairs: opts.CachePairs,

		pairsTotal:  reg.Counter("reachlab_query_pairs_total"),
		cacheHits:   reg.Counter("reachlab_cache_hits_total"),
		cacheMisses: reg.Counter("reachlab_cache_misses_total"),
		reloads:     reg.Counter("reachlab_reloads_total"),
		epochGauge:  reg.Gauge("reachlab_index_epoch"),
	}
	h.state.Store(&serveState{
		idx:   idx,
		cache: qcache.New(opts.CachePairs, 0),
		epoch: 1,
	})
	h.epochGauge.Set(1)
	h.mux.Mount(httpapi.Reach, h.reach)
	h.mux.Mount(httpapi.Batch, h.reachBatch)
	h.mux.Mount(httpapi.Path, h.reachPath)
	h.mux.Mount(httpapi.Count, h.reachCount)
	h.mux.Mount(httpapi.From, h.reachFrom)
	h.mux.Mount(httpapi.Join, h.reachJoin)
	h.mux.Mount(httpapi.Reload, h.reload)
	h.mux.Mount(httpapi.Edges, h.edges)
	h.mux.Mount(httpapi.Stats, h.stats)
	h.mux.HandleFunc(httpapi.Healthz.Pattern(), func(w http.ResponseWriter, _ *http.Request) {
		st := h.state.Load()
		setEpoch(w, st)
		w.Header().Set(VerticesHeader, strconv.Itoa(st.idx.NumVertices()))
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	obs.Mount(h.mux.ServeMux, reg)
	return h
}

// ServeHTTP implements http.Handler.
func (h *QueryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Swap atomically replaces the served index with idx under a fresh
// hot-pair cache, returning the new epoch. In-flight queries finish
// against whichever state they loaded; new queries see the new epoch
// immediately. Safe to call under full query load.
func (h *QueryHandler) Swap(idx *Index) uint64 {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	return h.swapLocked(idx)
}

func (h *QueryHandler) swapLocked(idx *Index) uint64 {
	cur := h.state.Load()
	next := &serveState{
		idx:   idx,
		cache: qcache.New(h.cachePairs, 0),
		epoch: cur.epoch + 1,
	}
	h.state.Store(next)
	h.reloads.Inc()
	h.epochGauge.Set(int64(next.epoch))
	return next.epoch
}

// Reload invokes the configured Loader (ref "" = default source) and
// swaps the result in, returning the new epoch. The load runs in the
// caller's goroutine while the old epoch keeps serving; only the
// pointer flip is synchronized. Reloads are serialized — concurrent
// calls queue rather than load in parallel.
func (h *QueryHandler) Reload(ref string) (epoch uint64, vertices int, err error) {
	if h.loader == nil {
		return 0, 0, errors.New("reachlab: no reload loader configured")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	idx, err := h.loader(ref)
	if err != nil {
		return 0, 0, fmt.Errorf("reachlab: reload: %w", err)
	}
	if idx == nil {
		return 0, 0, errors.New("reachlab: reload loader returned nil index")
	}
	return h.swapLocked(idx), idx.NumVertices(), nil
}

// Epoch returns the current serving epoch (1 for a handler that has
// never reloaded).
func (h *QueryHandler) Epoch() uint64 { return h.state.Load().epoch }

// Index returns the currently served index.
func (h *QueryHandler) Index() *Index { return h.state.Load().idx }

// CacheStats returns the hot-pair cache's lifetime hit and miss
// counts, summed across every epoch served so far (zeros when the
// cache is disabled).
func (h *QueryHandler) CacheStats() (hits, misses int64) {
	return h.hits.Load(), h.misses.Load()
}

// vertexParam reads the query parameter name as a vertex of st's
// index; on failure it has refused the request (400) and ok is false.
func vertexParam(api *httpapi.Handle, w http.ResponseWriter, st *serveState, r *http.Request, name string) (v VertexID, ok bool) {
	raw := r.URL.Query().Get(name)
	n, err := strconv.Atoi(raw)
	switch {
	case raw == "":
		err = fmt.Errorf("missing query parameter %q", name)
	case err != nil:
		err = fmt.Errorf("bad vertex %q: %v", raw, err)
	case n < 0 || n >= st.idx.NumVertices():
		err = fmt.Errorf("vertex %d out of range [0, %d)", n, st.idx.NumVertices())
	default:
		return VertexID(n), true
	}
	api.Fail(w, err.Error(), http.StatusBadRequest)
	return 0, false
}

// pairParams is vertexParam for the s and t of /reach and /reach/path.
func pairParams(api *httpapi.Handle, w http.ResponseWriter, st *serveState, r *http.Request) (s, t VertexID, ok bool) {
	if s, ok = vertexParam(api, w, st, r, "s"); ok {
		t, ok = vertexParam(api, w, st, r, "t")
	}
	return s, t, ok
}

// resolve answers validated pairs against one epoch; every pair any
// endpoint answers passes through here, and is counted here once. With
// the cache off they go to kernel whole. With it on, every pair
// consults the cache once, and the request's hits and misses are added
// once to the lifetime and once to the obs counters; the misses go to
// kernel as one call — keeping whatever locality kernel gets from
// seeing them together — and its answers backfill the cache.
func (h *QueryHandler) resolve(st *serveState, pairs []Pair, kernel func([]Pair) []bool) []bool {
	h.pairsTotal.Add(int64(len(pairs)))
	if st.cache == nil {
		return kernel(pairs)
	}
	results := make([]bool, len(pairs))
	miss := make([]Pair, 0, len(pairs))
	missPos := make([]int, 0, len(pairs))
	for i, p := range pairs {
		if ans, ok := st.cache.Get(int32(p.S), int32(p.T)); ok {
			results[i] = ans
			continue
		}
		miss = append(miss, p)
		missPos = append(missPos, i)
	}
	hits, misses := int64(len(pairs)-len(miss)), int64(len(miss))
	h.hits.Add(hits)
	h.misses.Add(misses)
	h.cacheHits.Add(hits)
	h.cacheMisses.Add(misses)
	if len(miss) == 0 {
		return results
	}
	for k, ans := range kernel(miss) {
		st.cache.Put(int32(miss[k].S), int32(miss[k].T), ans)
		results[missPos[k]] = ans
	}
	return results
}

// resolveOne is resolve for the single pair of /reach and /reach/path.
func (h *QueryHandler) resolveOne(st *serveState, s, t VertexID) bool {
	return h.resolve(st, []Pair{{S: s, T: t}}, func(p []Pair) []bool {
		return []bool{st.idx.Reachable(p[0].S, p[0].T)}
	})[0]
}

// setEpoch stamps the serving epoch on a response.
func setEpoch(w http.ResponseWriter, st *serveState) {
	w.Header().Set(EpochHeader, strconv.FormatUint(st.epoch, 10))
}

func (h *QueryHandler) reach(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	// One state load per request: the whole query — validation, cache,
	// merge — runs against a single epoch.
	st := h.state.Load()
	s, t, ok := pairParams(api, w, st, r)
	if !ok {
		return
	}
	reachable := h.resolveOne(st, s, t)
	setEpoch(w, st)
	httpapi.WriteJSON(w, httpapi.ReachResponse{S: s, T: t, Reachable: reachable})
}

func (h *QueryHandler) reachBatch(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	var req httpapi.BatchRequest
	if !api.Decode(w, r, &req) {
		return
	}
	n := int64(st.idx.NumVertices())
	pairs := make([]Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			api.Fail(w, fmt.Sprintf("pair %d: vertex out of range [0, %d): [%d,%d]", i, n, p[0], p[1]),
				http.StatusBadRequest)
			return
		}
		pairs[i] = Pair{S: VertexID(p[0]), T: VertexID(p[1])}
	}
	// Misses resolve as one batch: the source-locality win survives the cache.
	results := h.resolve(st, pairs, st.idx.ReachableBatch)
	setEpoch(w, st)
	httpapi.WriteJSON(w, httpapi.BatchResponse{Count: len(results), Results: results})
}

// reload serves POST /admin/reload: load the next index via the
// configured Loader and swap it in. Queries keep flowing against the
// old epoch while the load runs; the response reports the new epoch.
func (h *QueryHandler) reload(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	// Body first, as a router relaying it must: an over-limit or malformed
	// body is refused the same way whether or not a loader is configured.
	var req httpapi.ReloadRequest
	if !api.Decode(w, r, &req) {
		return
	}
	if h.loader == nil {
		api.Fail(w, "reload not configured on this replica", http.StatusNotImplemented)
		return
	}
	epoch, vertices, err := h.Reload(req.Ref)
	if err != nil {
		api.Fail(w, err.Error(), http.StatusInternalServerError)
		return
	}
	httpapi.WriteJSON(w, httpapi.ReloadResponse{Epoch: epoch, Vertices: vertices})
}

func (h *QueryHandler) stats(_ *httpapi.Handle, w http.ResponseWriter, _ *http.Request) {
	stSrv := h.state.Load()
	st := stSrv.idx.Stats()
	bs := stSrv.idx.BuildStats()
	hits, misses := h.CacheStats()
	doc := map[string]any{
		"vertices": stSrv.idx.NumVertices(),
		// Epoch bookkeeping: index_epoch advances by one per reload,
		// index_vertices is the ID space of the index serving *now* —
		// together they let an operator confirm a reload landed.
		"index_epoch":    stSrv.epoch,
		"index_vertices": stSrv.idx.NumVertices(),
		"entries":        st.Entries,
		// bytes is the paper's Table VI accounting (IndexStats.Bytes),
		// resident_bytes what this replica's label layout holds
		// (IndexStats.Resident).
		"bytes":          st.Bytes,
		"resident_bytes": st.Resident,
		"max_label_size": st.MaxLabelSize,
		"avg_label_size": st.AvgLabelSize,
		// Memory-bounded builds only (Options.LabelBudget): the cap and
		// how many vertices hit it per direction. All zero for full
		// indexes, whose misses never need a fallback.
		"label_budget":   st.LabelBudget,
		"overflowed_in":  st.OverflowedIn,
		"overflowed_out": st.OverflowedOut,
		// The cache's table is capacity slots of 4 bytes: bytes is
		// what it holds beside the index's resident_bytes.
		"cache": map[string]any{
			"capacity": stSrv.cache.Capacity(),
			"bytes":    4 * stSrv.cache.Capacity(),
			"hits":     hits,
			"misses":   misses,
		},
		// Construction cost and fault-handling activity. All zero for
		// an index loaded from disk (ReadIndex carries no build record).
		"build": map[string]any{
			"method":               string(bs.Method),
			"workers":              bs.Workers,
			"supersteps":           bs.Supersteps,
			"retries":              bs.Retries,
			"recoveries":           bs.Recoveries,
			"checkpoints":          bs.Checkpoints,
			"last_checkpoint_step": bs.LastCheckpointStep,
		},
	}
	// Mutation-path counters, present only when this replica accepts
	// POST /edges (server_update.go).
	if h.updater != nil {
		doc["updates"] = h.updater.Stats()
	}
	httpapi.WriteJSON(w, doc)
}
