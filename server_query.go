package reachlab

import (
	"fmt"
	"net/http"
	"slices"

	"repro/internal/httpapi"
)

// Rich-query handlers: GET /reach/path, GET /reach/count,
// POST /reach/from, POST /reach/join. Cacheability differs per
// endpoint (DESIGN.md §8): path and from are pair queries, so they
// consult the hot-pair cache and count into reachlab_query_pairs_total
// — the hits+misses == pairs reconciliation covers them. A path answer
// caches only its reachable bit (the path itself is cheap to
// rediscover and large to store). count is a per-source aggregate, not
// a pair, and join is analytics traffic whose cross product would
// evict the interactive working set — neither touches the cache or the
// pair counters.

func (h *QueryHandler) reachPath(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	s, t, ok := pairParams(api, w, st, r)
	if !ok {
		return
	}
	if !st.idx.HasGraph() {
		// Refused before any pair accounting: a replica serving a bare
		// index file answers booleans but cannot walk edges.
		api.Fail(w, "witness paths unavailable: no graph attached to this index", http.StatusNotImplemented)
		return
	}
	resp := httpapi.PathResponse{S: s, T: t, Reachable: h.resolveOne(st, s, t)}
	// An unreachable pair has no path: only a reachable one walks edges.
	if resp.Reachable {
		var err error
		if resp.Path, err = st.idx.walkPath(r.Context(), s, t); err != nil {
			if r.Context().Err() != nil {
				api.Canceled()
			} else {
				api.Fail(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
	}
	setEpoch(w, st)
	httpapi.WriteJSON(w, resp)
}

func (h *QueryHandler) reachCount(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	s, ok := vertexParam(api, w, st, r, "s")
	if !ok {
		return
	}
	count, err := st.idx.q.ReachableSetSize(r.Context(), s)
	if err != nil { // the sweep fails only cancelled
		api.Canceled()
		return
	}
	setEpoch(w, st)
	httpapi.WriteJSON(w, httpapi.CountResponse{S: s, Count: count})
}

func (h *QueryHandler) reachFrom(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	var req httpapi.FromRequest
	if !api.Decode(w, r, &req) {
		return
	}
	n := int64(st.idx.NumVertices())
	if req.S < 0 || req.S >= n {
		api.Fail(w, fmt.Sprintf("source %d out of range [0, %d)", req.S, n), http.StatusBadRequest)
		return
	}
	s := VertexID(req.S)
	pairs := make([]Pair, len(req.Targets))
	for i, t := range req.Targets {
		if t < 0 || t >= n {
			api.Fail(w, fmt.Sprintf("target %d: vertex out of range [0, %d): %d", i, n, t),
				http.StatusBadRequest)
			return
		}
		pairs[i] = Pair{S: s, T: VertexID(t)}
	}
	// Misses are swept in one ReachableFrom: the single out-label load
	// survives the cache.
	var err error
	results := h.resolve(st, pairs, func(miss []Pair) (swept []bool) {
		targets := make([]VertexID, len(miss))
		for i, p := range miss {
			targets[i] = p.T
		}
		swept, err = st.idx.q.ReachableFrom(r.Context(), s, targets)
		return swept
	})
	if err != nil { // the sweep fails only cancelled; resolve cached nothing of it
		api.Canceled()
		return
	}
	count := 0
	for _, ok := range results {
		if ok {
			count++
		}
	}
	setEpoch(w, st)
	httpapi.WriteJSON(w, httpapi.FromResponse{S: s, Count: count, Results: results})
}

// reachJoin streams the reachable (s, t) pairs of sources × targets as
// the contract's join stream (internal/httpapi/join.go). Both input
// lists are deduplicated and sorted before scanning; every refusal
// (bad body, list or cross-product over the cap) happens before the
// first body byte, so a non-200 is always a plain error and a 200 is
// always NDJSON. A client that goes away mid-stream — a cancelled
// context or a failed write, whichever shows first — ends the join
// there, counted as cancelled; the missing summary line marks the
// truncation.
func (h *QueryHandler) reachJoin(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	var req httpapi.JoinRequest
	if !api.Decode(w, r, &req) {
		return
	}
	n := int64(st.idx.NumVertices())
	srcs, err := joinVertices(req.Sources, n)
	if err != nil {
		api.Fail(w, "sources: "+err.Error(), http.StatusBadRequest)
		return
	}
	tgts, err := joinVertices(req.Targets, n)
	if err != nil {
		api.Fail(w, "targets: "+err.Error(), http.StatusBadRequest)
		return
	}
	scanned := len(srcs) * len(tgts)
	if scanned > httpapi.MaxJoin {
		api.Fail(w, fmt.Sprintf("join scans %d×%d=%d pairs, over limit %d",
			len(srcs), len(tgts), scanned, httpapi.MaxJoin), http.StatusRequestEntityTooLarge)
		return
	}

	w.Header().Set("Content-Type", httpapi.JoinStream)
	setEpoch(w, st)
	rc := http.NewResponseController(w)
	jw := httpapi.NewJoinWriter(w)
	for _, s := range srcs {
		// One sweep per source: the out-label loads once for the whole
		// target list, the join's entire locality win. Every sweep looks
		// at the context first, so an abandoned join stops at the next
		// source if not inside this one.
		reached, err := st.idx.q.ReachableFrom(r.Context(), s, tgts)
		if err != nil { // the sweep fails only cancelled
			api.Canceled()
			return
		}
		for i, ok := range reached {
			if !ok {
				continue
			}
			if err := jw.Pair(int64(s), int64(tgts[i])); err != nil {
				// A stream that cannot be written is a client that has
				// gone, seen here before net/http cancels the context.
				api.Canceled()
				httpapi.LogDropped(err)
				return
			}
		}
		// Each source's pairs leave as one flush. A writer that cannot
		// flush keeps them until it can; a flush that fails has a gone
		// client, whom the next write or the context reports.
		_ = rc.Flush()
	}
	if err := jw.Done(scanned); err != nil {
		httpapi.LogDropped(err)
	}
}

// joinVertices validates one join list against the ID space and
// returns it sorted with duplicates removed.
func joinVertices(raw []int64, n int64) ([]VertexID, error) {
	vs := make([]VertexID, len(raw))
	for i, v := range raw {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("entry %d: vertex out of range [0, %d): %d", i, n, v)
		}
		vs[i] = VertexID(v)
	}
	slices.Sort(vs)
	return slices.Compact(vs), nil
}
