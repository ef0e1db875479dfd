package reachlab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/httpapi"
)

// buildTestServer builds an index over a seeded cyclic graph and
// serves it with the hot-pair cache enabled, returning the pieces the
// load tests need.
func buildTestServer(t *testing.T, cachePairs int) (*Graph, *Index, *QueryHandler, *MetricsRegistry, *httptest.Server) {
	t.Helper()
	g := randomCyclicGraph(60, 200, 3)
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	h := NewQueryHandlerOpts(idx, ServeOptions{Obs: reg, CachePairs: cachePairs})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return g, idx, h, reg, srv
}

// TestQueryHandlerConcurrent hammers the single and batch endpoints
// with the cache enabled from many goroutines (run under -race by
// make check and CI). Every answer must match the BFS oracle, and
// afterwards the cache counters must reconcile exactly:
// hits + misses == pairs asked.
func TestQueryHandlerConcurrent(t *testing.T) {
	g, _, h, reg, srv := buildTestServer(t, 4096)
	n := g.NumVertices()

	const workers = 8
	const perWorker = 60 // alternating single / batch requests
	const batchLen = 16
	var wg sync.WaitGroup
	var pairsSent atomic.Int64
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := srv.Client()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					s, d := rng.Intn(n), rng.Intn(n)
					resp, err := client.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", srv.URL, s, d))
					if err != nil {
						errs <- err
						return
					}
					var body struct {
						Reachable bool `json:"reachable"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					pairsSent.Add(1)
					if want := g.ReachableBFS(VertexID(s), VertexID(d)); body.Reachable != want {
						errs <- fmt.Errorf("reach(%d,%d) = %v, oracle says %v", s, d, body.Reachable, want)
						return
					}
					continue
				}
				req := struct {
					Pairs [][2]int64 `json:"pairs"`
				}{}
				for k := 0; k < batchLen; k++ {
					req.Pairs = append(req.Pairs, [2]int64{int64(rng.Intn(n)), int64(rng.Intn(n))})
				}
				raw, _ := json.Marshal(req)
				resp, err := client.Post(srv.URL+"/reach/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var body struct {
					Count   int    `json:"count"`
					Results []bool `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				pairsSent.Add(int64(len(req.Pairs)))
				if body.Count != batchLen || len(body.Results) != batchLen {
					errs <- fmt.Errorf("batch answered %d/%d results", body.Count, len(body.Results))
					return
				}
				for k, p := range req.Pairs {
					if want := g.ReachableBFS(VertexID(p[0]), VertexID(p[1])); body.Results[k] != want {
						errs <- fmt.Errorf("batch reach(%d,%d) = %v, oracle says %v", p[0], p[1], body.Results[k], want)
						return
					}
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Counter reconciliation: every answered pair consulted the cache
	// exactly once, so hits + misses must equal the pairs counter and
	// our own count of what was sent.
	hits := reg.CounterValue("reachlab_cache_hits_total")
	misses := reg.CounterValue("reachlab_cache_misses_total")
	pairs := reg.CounterValue("reachlab_query_pairs_total")
	if pairs != pairsSent.Load() {
		t.Errorf("server counted %d pairs, clients sent %d", pairs, pairsSent.Load())
	}
	if hits+misses != pairs {
		t.Errorf("cache counters do not reconcile: hits %d + misses %d != pairs %d", hits, misses, pairs)
	}
	if hits == 0 {
		t.Error("expected cache hits over repeated 60-vertex traffic")
	}
	if ch, cm := h.CacheStats(); ch != hits || cm != misses {
		t.Errorf("CacheStats() = (%d,%d), obs counters say (%d,%d)", ch, cm, hits, misses)
	}
}

// TestLoadgenSoakHTTP proves the loadgen harness end to end: the
// bench.RunLoadgen clients drive the real handler over HTTP in soak
// mode with answer verification, and must come back with zero errors
// and sane accounting.
func TestLoadgenSoakHTTP(t *testing.T) {
	g, _, _, reg, srv := buildTestServer(t, 2048)
	n := g.NumVertices()

	const batchLen = 8
	client := func(pairs []graph.Edge) error {
		req := struct {
			Pairs [][2]int64 `json:"pairs"`
		}{Pairs: make([][2]int64, len(pairs))}
		for i, p := range pairs {
			req.Pairs[i] = [2]int64{int64(p.U), int64(p.V)}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := srv.Client().Post(srv.URL+"/reach/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var body struct {
			Results []bool `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		if len(body.Results) != len(pairs) {
			return fmt.Errorf("%d answers for %d pairs", len(body.Results), len(pairs))
		}
		for i, p := range pairs {
			if body.Results[i] != g.ReachableBFS(p.U, p.V) {
				return fmt.Errorf("reach(%d,%d): server says %v", p.U, p.V, body.Results[i])
			}
		}
		return nil
	}

	res := bench.RunLoadgen(bench.LoadgenOptions{
		Clients:   6,
		Duration:  300 * time.Millisecond,
		BatchSize: batchLen,
		Vertices:  n,
		ZipfS:     1.2,
		Seed:      9,
	}, client)

	if res.Errors != 0 {
		t.Fatalf("soak run reported %d errors over %d requests", res.Errors, res.Requests)
	}
	if res.Requests == 0 || res.Pairs != res.Requests*batchLen {
		t.Fatalf("accounting off: %d requests, %d pairs", res.Requests, res.Pairs)
	}
	if res.QPS <= 0 || res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 {
		t.Fatalf("implausible measurements: %+v", res)
	}
	hits := reg.CounterValue("reachlab_cache_hits_total")
	misses := reg.CounterValue("reachlab_cache_misses_total")
	if hits+misses != res.Pairs {
		t.Errorf("cache counters %d+%d do not reconcile with %d pairs", hits, misses, res.Pairs)
	}
}

// TestBatchEndpointErrors covers the batch endpoint's refusal paths:
// malformed JSON, vertices outside the index's ID space, batches over
// the pair limit, and bodies over the byte limit — plus the mid-stream
// writer failure discipline writeJSON inherits from the single-query
// path (no status forced after bytes are on the wire).
func TestBatchEndpointErrors(t *testing.T) {
	g := randomCyclicGraph(20, 50, 11)
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = DefaultMaxBatch
	h := NewQueryHandlerOpts(idx, ServeOptions{Obs: NewMetricsRegistry(), CachePairs: 64})

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/reach/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	t.Run("malformed-json", func(t *testing.T) {
		if rec := post(`{"pairs": [[0, 1], [2`); rec.Code != http.StatusBadRequest {
			t.Errorf("truncated JSON: status %d, want 400", rec.Code)
		}
		if rec := post(`not json at all`); rec.Code != http.StatusBadRequest {
			t.Errorf("garbage body: status %d, want 400", rec.Code)
		}
	})

	t.Run("wrong-method", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/reach/batch", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /reach/batch: status %d, want 405", rec.Code)
		}
	})

	t.Run("out-of-range-vertex", func(t *testing.T) {
		for _, body := range []string{
			`{"pairs": [[0, 99]]}`,      // target past the ID space
			`{"pairs": [[-1, 0]]}`,      // negative source
			`{"pairs": [[0,1],[20,0]]}`, // n itself is out of range
		} {
			rec := post(body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", body, rec.Code)
			}
		}
	})

	t.Run("too-many-pairs", func(t *testing.T) {
		body := `{"pairs": [` + strings.TrimSuffix(strings.Repeat("[0,1],", maxBatch+1), ",") + `]}`
		if rec := post(body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%d pairs over limit %d: status %d, want 413", maxBatch+1, maxBatch, rec.Code)
		}
	})

	t.Run("oversized-body", func(t *testing.T) {
		// Valid JSON padded with whitespace past the byte cap: the
		// MaxBytesReader must trip while the decoder is still scanning.
		pad := strings.Repeat(" ", int(httpapi.Batch.BodyLimit())+64)
		if rec := post(`{"pairs": [[0, 1]]` + pad + `}`); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body: status %d, want 413", rec.Code)
		}
	})

	t.Run("valid-still-works", func(t *testing.T) {
		rec := post(`{"pairs": [[0, 1], [1, 1]]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("valid batch: status %d, body %s", rec.Code, rec.Body.String())
		}
		var body struct {
			Count   int    `json:"count"`
			Results []bool `json:"results"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Count != 2 || len(body.Results) != 2 || !body.Results[1] {
			t.Fatalf("valid batch: %+v (reach(1,1) must be true)", body)
		}
	})

	t.Run("mid-stream-writer-failure", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/reach/batch",
			strings.NewReader(`{"pairs": [[0, 0]]}`))
		w := &failingWriter{header: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.code != 0 {
			t.Errorf("handler forced status %d after a mid-stream write failure", w.code)
		}
	})
}

// TestLoadgenRequestBudget: without a duration the harness fires the
// request budget split across clients, deterministically per seed.
func TestLoadgenRequestBudget(t *testing.T) {
	var calls atomic.Int64
	res := bench.RunLoadgen(bench.LoadgenOptions{
		Clients:  4,
		Requests: 100,
		Vertices: 50,
		ZipfS:    1.1,
		Seed:     3,
	}, func(pairs []graph.Edge) error {
		calls.Add(1)
		return nil
	})
	if res.Requests != 100 || calls.Load() != 100 {
		t.Fatalf("requests = %d (callbacks %d), want 100", res.Requests, calls.Load())
	}
	if res.Pairs != 100 {
		t.Fatalf("pairs = %d, want 100 at batch size 1", res.Pairs)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}
