package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// The router half of the fleet. It serves the replica's endpoints in
// the replicas' name — same requests, same answers, same refusals: the
// contract of internal/httpapi (DESIGN.md "HTTP contract"), whose last
// column is the routing rule each mount below applies — plus its own
// /stats and /healthz and the admin verbs drain and readmit. An
// upstream answer is relayed verbatim whenever it is the replica's
// verdict (httpapi.Verdict); only a replica's failure is retried.

func (f *Fleet) initMux() {
	f.mux = httpapi.NewMux(f.opts.Obs, "fleet")
	// Pass-through: every query goes whole to the least-loaded healthy
	// replica, and that replica's answer is the answer.
	for _, e := range []httpapi.Endpoint{httpapi.Reach, httpapi.Path, httpapi.Count, httpapi.From, httpapi.Batch, httpapi.Join} {
		f.mux.Mount(e, f.passThrough)
	}
	// Fanned out to every replica. A reload's answer also tells the router
	// the replica's new epoch, so /stats shows it without waiting for a probe.
	f.mux.Mount(httpapi.Reload, f.fanOut(func(rep *replica, issued time.Time, row httpapi.ReplicaOutcome) {
		rep.observeEpoch(row.Epoch, issued)
	}))
	f.mux.Mount(httpapi.Edges, f.fanOut(nil))
	// The router's own.
	f.mux.Mount(httpapi.Stats, f.handleStats)
	f.mux.HandleFunc(httpapi.Healthz.Pattern(), f.handleHealthz)
	f.mux.Mount(httpapi.Drain, f.adminVerb(f.Drain))
	f.mux.Mount(httpapi.Readmit, f.adminVerb(f.Readmit))
	obs.Mount(f.mux.ServeMux, f.opts.Obs)
}

// ServeHTTP implements http.Handler.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// errAllReplicasFailed reports an exhausted retry budget.
var errAllReplicasFailed = errors.New("fleet: no replica answered within the retry budget")

// forward sends one request to the pool in up to attemptsPerReplica
// rounds: each round tries the healthy replicas in pick's order until
// every one has been tried once, and a brief backoff separates the
// rounds — a replica marked down mid-flight gets routed around, and one
// readmitted mid-flight picks queued work back up. What comes back
// without an error is a replica's verdict, whatever its status. ctx is
// the inbound request's: once its client is gone the forward in flight
// is abandoned and no other is tried.
func (f *Fleet) forward(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	lastErr := errAllReplicasFailed
	for round := 0; round < attemptsPerReplica; round++ {
		if round > 0 {
			select {
			case <-f.stop:
				return nil, nil, errAllReplicasFailed
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(retryBackoff):
			}
		}
		tried := make(map[*replica]bool)
		for r := f.pick(tried); r != nil; r = f.pick(tried) {
			if round > 0 || len(tried) > 0 {
				f.retries.Inc()
			}
			tried[r] = true
			resp, data, err := f.try(ctx, r, method, path, body)
			if err == nil || ctx.Err() != nil {
				return resp, data, err
			}
			lastErr = err
		}
	}
	return nil, nil, lastErr
}

// try issues one attempt against one replica, counting outstanding
// work. A request that did not complete, or completed with a status
// that is not a verdict, is the replica's failure: charged to it and
// returned as an error, which forward retries elsewhere — unless it
// ended because parent, the context the attempt was made under, was
// cancelled: that is the client's doing, and is charged to nobody.
func (f *Fleet) try(parent context.Context, r *replica, method, path string, body []byte) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(parent, proxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, bytes.NewReader(body)) // nil body: http.NoBody
	if err != nil {
		return nil, nil, err
	}
	r.outstanding.Add(1)
	r.forwards.Add(1)
	resp, err := f.httpc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err == nil && !httpapi.Verdict(resp.StatusCode) {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	r.outstanding.Add(-1)
	if err != nil {
		if parent.Err() == nil {
			r.errors.Add(1)
		}
		return nil, nil, fmt.Errorf("fleet: %s: %w", r.addr, err)
	}
	return resp, data, nil
}

// passThrough relays a request whole to one replica and that replica's
// verdict whole to the caller; the replica, not the router, validates
// it. When no replica gives a verdict the answer is 503, and nothing
// when the client went away first.
func (f *Fleet) passThrough(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	path := api.Route
	var body []byte
	if api.Method == http.MethodPost {
		var ok bool
		if body, ok = api.ReadBody(w, r); !ok {
			return
		}
	} else {
		path += "?" + r.URL.RawQuery
	}
	resp, data, err := f.forward(r.Context(), api.Method, path, body)
	switch {
	case err == nil:
		api.Relay(w, resp, data)
	case r.Context().Err() != nil:
		api.Canceled()
	default:
		f.unavailable.Inc()
		api.Fail(w, err.Error(), http.StatusServiceUnavailable)
	}
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := len(f.healthy())
	if up == 0 {
		http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok (%d/%d replicas up)\n", up, len(f.replicas))
}

// handleStats reports the fleet topology and per-replica status —
// including each replica's serving epoch, so an operator can confirm
// a reload landed everywhere. The top-level "vertices" field keeps
// the response drop-in compatible with a single replica's /stats for
// clients (drload) that only need the ID space.
func (f *Fleet) handleStats(_ *httpapi.Handle, w http.ResponseWriter, _ *http.Request) {
	snap := f.Snapshot()
	healthy := 0
	for _, s := range snap {
		if s.State == "up" {
			healthy++
		}
	}
	httpapi.WriteJSON(w, map[string]any{
		"vertices": f.Vertices(),
		"healthy":  healthy,
		"replicas": snap,
	})
}

// adminVerb serves drain and readmit: do the verb to ?replica=host:port
// and answer with the pool's new state.
func (f *Fleet) adminVerb(do func(name string) error) httpapi.ServeFunc {
	return func(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
		if err := do(r.URL.Query().Get("replica")); err != nil {
			api.Fail(w, err.Error(), http.StatusNotFound)
			return
		}
		httpapi.WriteJSON(w, map[string]any{"replicas": f.Snapshot()})
	}
}

// fanOut serves the two requests that go to every replica — not just
// the healthy set: a draining or down-but-reachable replica should come
// back serving the new epoch and holding every write (each keeps its
// own write-ahead log). The first replica is asked alone: a refusal
// (malformed body, vertex out of range, 501 not configured) is
// deterministic, so its verdict speaks for the pool and is relayed
// verbatim without touching the rest. Otherwise the rest are asked
// concurrently, each 200 is read into its replica's row (and shown to
// landed, if any), and the answer is 200 when every replica did it,
// else 502 with the rows — for /edges "retry until 200": a partial
// write leaves the replicas divergent. For the same reason the asking
// is detached from the inbound request's cancellation: a client that
// hangs up must not split a write or a reload across the fleet.
func (f *Fleet) fanOut(landed func(rep *replica, issued time.Time, row httpapi.ReplicaOutcome)) httpapi.ServeFunc {
	return func(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
		body, ok := api.ReadBody(w, r)
		if !ok {
			return
		}
		ctx := context.WithoutCancel(r.Context())
		rows := make([]httpapi.ReplicaOutcome, len(f.replicas))
		// ask fills rep's row; a verdict that is not a 200 comes back to be relayed.
		ask := func(i int, rep *replica) (*http.Response, []byte) {
			rows[i].Addr = rep.addr
			issued := time.Now()
			resp, data, err := f.try(ctx, rep, api.Method, api.Route, body)
			switch {
			case err != nil:
				rows[i].Error = err.Error()
			case resp.StatusCode != http.StatusOK:
				rows[i].Error = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
				return resp, data
			case json.Unmarshal(data, &rows[i]) != nil:
				rows[i].Error = fmt.Sprintf("unreadable answer: %s", bytes.TrimSpace(data))
			case landed != nil:
				landed(rep, issued, rows[i])
			}
			return nil, nil
		}
		if resp, data := ask(0, f.replicas[0]); resp != nil {
			api.Relay(w, resp, data)
			return
		}
		var wg sync.WaitGroup
		for i, rep := range f.replicas[1:] {
			wg.Add(1)
			go func(i int, rep *replica) {
				defer wg.Done()
				ask(i, rep)
			}(i+1, rep)
		}
		wg.Wait()
		for _, row := range rows {
			if row.Error != "" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadGateway)
				break
			}
		}
		httpapi.WriteJSON(w, httpapi.FanoutResponse{Replicas: rows})
	}
}
