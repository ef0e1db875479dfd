package reachlab

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/httpapi"
)

// HTTP-level suite for the rich-query endpoints: answers vs the BFS
// oracle, epoch headers, cacheability split, error paths, a fuzz
// target on the join decoder, and a -race hammer mixing all six
// endpoints across a mid-burst epoch swap.

// oracleRow computes g's reachability row from s by BFS.
func oracleRow(g *Graph, s VertexID, targets []int64) []bool {
	out := make([]bool, len(targets))
	for i, t := range targets {
		out[i] = g.ReachableBFS(s, VertexID(t))
	}
	return out
}

func oracleSetSize(g *Graph, s VertexID) int {
	count := 0
	for t := 0; t < g.NumVertices(); t++ {
		if g.ReachableBFS(s, VertexID(t)) {
			count++
		}
	}
	return count
}

// decodeNDJoin parses a /reach/join NDJSON body. done reports whether
// the terminal summary arrived — a complete stream always has it.
func decodeNDJoin(t *testing.T, body *bufio.Scanner) (pairs [][2]int64, count, scanned int, done bool) {
	t.Helper()
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		if done {
			t.Fatalf("join line after the done summary: %s", line)
		}
		var rec struct {
			S, T    *int64
			Done    bool
			Count   int
			Scanned int
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad join line %q: %v", line, err)
		}
		if rec.Done {
			done, count, scanned = true, rec.Count, rec.Scanned
			continue
		}
		if rec.S == nil || rec.T == nil {
			t.Fatalf("join line with neither pair nor summary: %s", line)
		}
		pairs = append(pairs, [2]int64{*rec.S, *rec.T})
	}
	if err := body.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs, count, scanned, done
}

// patchedTestServer serves what an Updater publishes between folds —
// the maintainer's flat base under the label and neighbor lists a
// seeded run of inserts and deletes has changed — beside the graph
// those updates leave, for the oracle.
func patchedTestServer(t *testing.T, cachePairs int) (*Graph, *MetricsRegistry, *httptest.Server) {
	t.Helper()
	const n = 60
	d, err := newDynamic(randomDAG(n, 70, 3).d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var added [][2]VertexID
	for k := 0; k < 30; k++ {
		// Forward and backward edges alike: cycles among them.
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		if err := d.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		added = append(added, [2]VertexID{u, v})
		if k%3 == 2 {
			if err := d.DeleteEdge(added[k-2][0], added[k-2][1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx := newIndex(d.Snapshot(), nil)
	idx.g, idx.adj = d.SnapshotGraph()
	if s := d.UpdateStats(); s.Repairs == 0 || idx.idx.Fold() == idx.idx || idx.adj.Len() == 0 {
		t.Fatalf("the updates left no overlay to serve through: %+v", s)
	}
	reg := NewMetricsRegistry()
	srv := httptest.NewServer(NewQueryHandlerOpts(idx, ServeOptions{Obs: reg, CachePairs: cachePairs}))
	t.Cleanup(srv.Close)
	return &Graph{d: d.Graph()}, reg, srv
}

// TestRichEndpointsMatchOracle runs every rich endpoint against the
// BFS oracle twice: over a built, flat index, and over a patched epoch
// as the update path publishes them.
func TestRichEndpointsMatchOracle(t *testing.T) {
	t.Run("built", func(t *testing.T) {
		g, _, _, reg, srv := buildTestServer(t, 1024)
		checkRichEndpoints(t, g, reg, srv)
	})
	t.Run("patched epoch", func(t *testing.T) {
		g, reg, srv := patchedTestServer(t, 1024)
		checkRichEndpoints(t, g, reg, srv)
	})
}

func checkRichEndpoints(t *testing.T, g *Graph, reg *MetricsRegistry, srv *httptest.Server) {
	n := g.NumVertices()
	client := srv.Client()

	// Witness paths: reachable iff the oracle says so; every returned
	// path walks real edges between the right endpoints.
	for k := 0; k < 60; k++ {
		s, d := (k*7)%n, (k*13+5)%n
		resp, err := client.Get(fmt.Sprintf("%s/reach/path?s=%d&t=%d", srv.URL, s, d))
		if err != nil {
			t.Fatal(err)
		}
		if e := resp.Header.Get(EpochHeader); e != "1" {
			t.Fatalf("path epoch header %q, want \"1\"", e)
		}
		var pr struct {
			S         int64   `json:"s"`
			T         int64   `json:"t"`
			Reachable bool    `json:"reachable"`
			Path      []int64 `json:"path"`
		}
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := g.ReachableBFS(VertexID(s), VertexID(d))
		if pr.Reachable != want {
			t.Fatalf("path(%d,%d).reachable = %v, oracle says %v", s, d, pr.Reachable, want)
		}
		if !want {
			if pr.Path != nil {
				t.Fatalf("path(%d,%d) carried a path for an unreachable pair: %v", s, d, pr.Path)
			}
			continue
		}
		if len(pr.Path) == 0 || pr.Path[0] != int64(s) || pr.Path[len(pr.Path)-1] != int64(d) {
			t.Fatalf("path(%d,%d) endpoints wrong: %v", s, d, pr.Path)
		}
		for i := 0; i+1 < len(pr.Path); i++ {
			hop := false
			for _, w := range g.OutNeighbors(VertexID(pr.Path[i])) {
				if int64(w) == pr.Path[i+1] {
					hop = true
					break
				}
			}
			if !hop {
				t.Fatalf("path(%d,%d) hop %d→%d is not an edge", s, d, pr.Path[i], pr.Path[i+1])
			}
		}
	}

	// Set-size counts.
	for s := 0; s < n; s += 9 {
		resp, err := client.Get(fmt.Sprintf("%s/reach/count?s=%d", srv.URL, s))
		if err != nil {
			t.Fatal(err)
		}
		var cr struct {
			Count int `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSetSize(g, VertexID(s)); cr.Count != want {
			t.Fatalf("count(%d) = %d, oracle says %d", s, cr.Count, want)
		}
	}

	// One-source sweeps, duplicates included.
	targets := []int64{0, 5, 5, 17, 42, 59, 1}
	for s := 0; s < n; s += 11 {
		raw, _ := json.Marshal(map[string]any{"s": s, "targets": targets})
		resp, err := client.Post(srv.URL+"/reach/from", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var fr struct {
			Count   int    `json:"count"`
			Results []bool `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRow(g, VertexID(s), targets)
		wantCount := 0
		for _, ok := range want {
			if ok {
				wantCount++
			}
		}
		if fr.Count != wantCount || len(fr.Results) != len(targets) {
			t.Fatalf("from(%d) count=%d len=%d, want %d/%d", s, fr.Count, len(fr.Results), wantCount, len(targets))
		}
		for i := range want {
			if fr.Results[i] != want[i] {
				t.Fatalf("from(%d) results[%d]=%v, oracle says %v", s, i, fr.Results[i], want[i])
			}
		}
	}

	// Join: pairs == per-pair oracle over the deduplicated sorted
	// lists, metamorphic with /reach point answers.
	sources := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	tgts := []int64{8, 2, 8, 18, 28, 45}
	raw, _ := json.Marshal(map[string]any{"sources": sources, "targets": tgts})
	resp, err := client.Post(srv.URL+"/reach/join", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("join status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if e := resp.Header.Get(EpochHeader); e != "1" {
		t.Fatalf("join epoch header %q, want \"1\"", e)
	}
	pairs, count, scanned, done := decodeNDJoin(t, bufio.NewScanner(resp.Body))
	if !done {
		t.Fatal("join stream ended without its done summary")
	}
	wantPairs := [][2]int64{}
	us, ut := dedupInt64(sources), dedupInt64(tgts)
	for _, s := range us {
		for _, d := range ut {
			if g.ReachableBFS(VertexID(s), VertexID(d)) {
				wantPairs = append(wantPairs, [2]int64{s, d})
			}
		}
	}
	if len(pairs) != len(wantPairs) || count != len(wantPairs) || scanned != len(us)*len(ut) {
		t.Fatalf("join = %d pairs (count %d, scanned %d), want %d pairs scanned %d",
			len(pairs), count, scanned, len(wantPairs), len(us)*len(ut))
	}
	for i := range pairs {
		if pairs[i] != wantPairs[i] {
			t.Fatalf("join pairs[%d] = %v, want %v (order must be ascending (s,t))", i, pairs[i], wantPairs[i])
		}
	}

	// One batch, duplicates and shared sources included.
	var batch httpapi.BatchRequest
	for k := 0; k < 32; k++ {
		batch.Pairs = append(batch.Pairs, [2]int64{int64(k * 5 % 8 * 7 % n), int64((k*17 + 3) % n)})
	}
	batch.Pairs = append(batch.Pairs, batch.Pairs[4], batch.Pairs[9])
	raw, _ = json.Marshal(batch)
	bresp, err := client.Post(srv.URL+"/reach/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var br httpapi.BatchResponse
	err = json.NewDecoder(bresp.Body).Decode(&br)
	bresp.Body.Close()
	if err != nil || len(br.Results) != len(batch.Pairs) {
		t.Fatalf("batch: %v, %d results for %d pairs", err, len(br.Results), len(batch.Pairs))
	}
	for i, p := range batch.Pairs {
		if want := g.ReachableBFS(VertexID(p[0]), VertexID(p[1])); br.Results[i] != want {
			t.Fatalf("batch pair %d (%d,%d) = %v, oracle says %v", i, p[0], p[1], br.Results[i], want)
		}
	}

	// Cacheability split: path, from and batch consulted the cache (pairs
	// accounted, hits+misses reconcile); count and join did not count
	// pairs. 60 path + Σ from targets + the batch is everything
	// pair-counted.
	pairsSeen := reg.CounterValue("reachlab_query_pairs_total")
	wantSeen := int64(60 + len(targets)*((n+10)/11) + len(batch.Pairs))
	if pairsSeen != wantSeen {
		t.Fatalf("pairs counter %d, want %d (count/join must not count pairs)", pairsSeen, wantSeen)
	}
	hits := reg.CounterValue("reachlab_cache_hits_total")
	misses := reg.CounterValue("reachlab_cache_misses_total")
	if hits+misses != pairsSeen {
		t.Fatalf("cache counters do not reconcile: %d + %d != %d", hits, misses, pairsSeen)
	}
}

func dedupInt64(vs []int64) []int64 {
	seen := map[int64]bool{}
	out := []int64{}
	for _, v := range vs {
		seen[v] = true
	}
	for v := int64(0); v < 1<<16; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestPathCacheHit: asking the same pair twice serves the second
// reachable bit from the hot-pair cache while still rebuilding the
// path, and the answers agree.
func TestPathCacheHit(t *testing.T) {
	_, _, _, reg, srv := buildTestServer(t, 256)
	var first, second struct {
		Reachable bool    `json:"reachable"`
		Path      []int64 `json:"path"`
	}
	for i, out := range []*struct {
		Reachable bool    `json:"reachable"`
		Path      []int64 `json:"path"`
	}{&first, &second} {
		resp, err := http.Get(srv.URL + "/reach/path?s=2&t=40")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		_ = i
	}
	if first.Reachable != second.Reachable || len(first.Path) != len(second.Path) {
		t.Fatalf("repeated path query disagrees: %+v vs %+v", first, second)
	}
	if hits := reg.CounterValue("reachlab_cache_hits_total"); hits != 1 {
		t.Fatalf("second identical path query hit the cache %d times, want 1", hits)
	}
}

// TestPathEndpointNoGraph: an index loaded from disk has no graph, so
// /reach/path refuses with 501 — before any pair accounting — while
// the sweeps (/reach/count, /reach/from, /reach/join) keep working.
func TestPathEndpointNoGraph(t *testing.T) {
	g := randomCyclicGraph(30, 90, 7)
	built, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	h := NewQueryHandlerOpts(loaded, ServeOptions{Obs: reg, CachePairs: 64})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/reach/path?s=0&t=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("path on a graphless index: status %d, want 501", resp.StatusCode)
	}
	if pairs := reg.CounterValue("reachlab_query_pairs_total"); pairs != 0 {
		t.Fatalf("refused path query still counted %d pairs", pairs)
	}
	resp, err = http.Get(srv.URL + "/reach/count?s=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count on a graphless index: status %d, want 200", resp.StatusCode)
	}
}

// TestRichEndpointErrors walks the refusal grid of all four endpoints,
// mirroring TestBatchEndpointErrors: 400 for malformed input and
// out-of-range vertices, 405 for the wrong method, 413 for oversized
// lists, bodies, and cross products — and a mid-stream write failure
// must be dropped without forcing a status.
func TestRichEndpointErrors(t *testing.T) {
	g := randomCyclicGraph(20, 50, 11)
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewQueryHandlerOpts(idx, ServeOptions{Obs: NewMetricsRegistry(), CachePairs: 64})
	serve := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		r := httptest.NewRecorder()
		h.ServeHTTP(r, req)
		return r
	}
	do := func(method, target, body string) *httptest.ResponseRecorder {
		return serve(h, method, target, body)
	}
	// list is a JSON list of count entries: from, from+step, …
	list := func(count, from, step int) string {
		parts := make([]string, count)
		for i := range parts {
			parts[i] = strconv.Itoa(from + i*step)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}

	t.Run("path-bad-params", func(t *testing.T) {
		for _, q := range []string{"", "?s=1", "?s=abc&t=2", "?s=99&t=2", "?s=-1&t=2", "?s=1&t=20"} {
			if rec := do(http.MethodGet, "/reach/path"+q, ""); rec.Code != http.StatusBadRequest {
				t.Errorf("path%s: status %d, want 400", q, rec.Code)
			}
		}
		if rec := do(http.MethodPost, "/reach/path?s=1&t=2", ""); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST path: status %d, want 405", rec.Code)
		}
	})

	t.Run("count-bad-params", func(t *testing.T) {
		for _, q := range []string{"", "?s=x", "?s=20", "?s=-3"} {
			if rec := do(http.MethodGet, "/reach/count"+q, ""); rec.Code != http.StatusBadRequest {
				t.Errorf("count%s: status %d, want 400", q, rec.Code)
			}
		}
		if rec := do(http.MethodPost, "/reach/count?s=1", ""); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST count: status %d, want 405", rec.Code)
		}
	})

	t.Run("from-errors", func(t *testing.T) {
		cases := []struct {
			body string
			want int
		}{
			{`{"s": 0, "targets": [1, 2`, http.StatusBadRequest},
			{`garbage`, http.StatusBadRequest},
			{`{"s": -1, "targets": [1]}`, http.StatusBadRequest},
			{`{"s": 20, "targets": [1]}`, http.StatusBadRequest},
			{`{"s": 0, "targets": [1, 99]}`, http.StatusBadRequest},
			{`{"s": 0, "targets": ` + list(DefaultMaxBatch+1, 1, 0) + `}`, http.StatusRequestEntityTooLarge},
			{`{"s": 0, "targets": [1]` + strings.Repeat(" ", int(httpapi.From.BodyLimit())+64) + `}`,
				http.StatusRequestEntityTooLarge},
		}
		for _, c := range cases {
			if rec := do(http.MethodPost, "/reach/from", c.body); rec.Code != c.want {
				t.Errorf("from %.40q: status %d, want %d", c.body, rec.Code, c.want)
			}
		}
		if rec := do(http.MethodGet, "/reach/from", ""); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET from: status %d, want 405", rec.Code)
		}
	})

	t.Run("join-errors", func(t *testing.T) {
		cases := []struct {
			body string
			want int
		}{
			{`{"sources": [0], "targets": [1`, http.StatusBadRequest},
			{`{"sources": [0, -1], "targets": [1]}`, http.StatusBadRequest},
			{`{"sources": [0], "targets": [20]}`, http.StatusBadRequest},
			{`{"sources": ` + list(DefaultMaxBatch+1, 0, 0) + `, "targets": [1]}`, http.StatusRequestEntityTooLarge},
			{`{"sources": [0], "targets": ` + list(DefaultMaxBatch+1, 1, 0) + `}`, http.StatusRequestEntityTooLarge},
			{`{"sources": [0], "targets": [1]` + strings.Repeat(" ", int(httpapi.Join.BodyLimit())+64) + `}`,
				http.StatusRequestEntityTooLarge},
		}
		for _, c := range cases {
			rec := do(http.MethodPost, "/reach/join", c.body)
			if rec.Code != c.want {
				t.Errorf("join %.40q: status %d, want %d", c.body, rec.Code, c.want)
			}
			if rec.Code != http.StatusOK && rec.Header().Get("Content-Type") == "application/x-ndjson" {
				t.Errorf("join refusal %.40q started an NDJSON stream", c.body)
			}
		}
		if rec := do(http.MethodGet, "/reach/join", ""); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET join: status %d, want 405", rec.Code)
		}

		// The product cap needs an ID space past 1,024 vertices; with no
		// edges, only s = t is reachable, so a join at the cap streams
		// little.
		wide, err := Build(context.Background(), NewGraph(1100, nil), Options{})
		if err != nil {
			t.Fatal(err)
		}
		hw := NewQueryHandlerOpts(wide, ServeOptions{})
		// Each list under the per-list cap, product over DefaultMaxJoin.
		rec := serve(hw, http.MethodPost, "/reach/join", `{"sources": `+list(1025, 0, 1)+`, "targets": `+list(1024, 0, 1)+`}`)
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != "join scans 1025×1024=1049600 pairs, over limit 1048576\n" {
			t.Errorf("join over the product cap: %d %q, want 413", rec.Code, rec.Body.String())
		}
		// Duplicates dedup down to the cap: 2,048 sources, 1,024 unique.
		sources := list(1024, 0, 1)
		rec = serve(hw, http.MethodPost, "/reach/join", `{"sources": `+sources[:len(sources)-1]+","+sources[1:]+`, "targets": `+list(1024, 0, 1)+`}`)
		sum, err := httpapi.ReadJoin(rec.Body, func(s, t int64) error { return nil })
		if rec.Code != http.StatusOK || err != nil || sum.Scanned != DefaultMaxJoin || sum.Count != 1024 {
			t.Errorf("deduplicated join at the cap: status %d, summary %+v, %v; want 200 scanning %d", rec.Code, sum, err, DefaultMaxJoin)
		}
	})

	t.Run("writer-failure-drops", func(t *testing.T) {
		for _, c := range []struct{ method, target, body string }{
			{http.MethodGet, "/reach/path?s=0&t=0", ""},
			{http.MethodGet, "/reach/count?s=0", ""},
			{http.MethodPost, "/reach/from", `{"s": 0, "targets": [0]}`},
			{http.MethodPost, "/reach/join", `{"sources": [0], "targets": [0]}`},
		} {
			req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
			w := &failingWriter{header: make(http.Header)}
			h.ServeHTTP(w, req)
			if w.code != 0 {
				t.Errorf("%s %s forced status %d after a write failure", c.method, c.target, w.code)
			}
		}
	})
}

// FuzzJoinRequest throws arbitrary bodies at the join decoder: the
// handler must never panic, refuse with 400/413, or answer 200 with a
// complete NDJSON stream whose summary line is present and consistent.
func FuzzJoinRequest(f *testing.F) {
	g := randomCyclicGraph(20, 50, 11)
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		f.Fatal(err)
	}
	h := NewQueryHandlerOpts(idx, ServeOptions{Obs: NewMetricsRegistry()})
	f.Add(`{"sources": [0, 1], "targets": [2, 3]}`)
	f.Add(`{"sources": [], "targets": []}`)
	f.Add(`{"sources": [19], "targets": [0]}`)
	f.Add(`{"sources": [-1], "targets": [1]}`)
	f.Add(`{"sources": [0, 0, 0], "targets": [99999999]}`)
	f.Add(`{"sources": null, "targets": null}`)
	f.Add(`[[0, 1]]`)
	f.Add(`{"sources": [0.5], "targets": [1]}`)
	f.Add("\x00\xff not json")
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/reach/join", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			pairs, count, _, done := decodeNDJoin(t, bufio.NewScanner(rec.Body))
			if !done {
				t.Fatalf("200 join stream without a done line (body %q)", body)
			}
			if count != len(pairs) {
				t.Fatalf("summary count %d, stream carried %d pairs (body %q)", count, len(pairs), body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("join answered status %d for body %q", rec.Code, body)
		}
	})
}

// TestQueryHandlerConcurrentRich mixes all six endpoints from many
// goroutines across a mid-burst epoch swap (run under -race by make
// check and CI). Every answer must match the BFS oracle regardless of
// the epoch that served it — both epochs serve an equivalent index —
// and afterwards the pair-cache counters must reconcile exactly.
func TestQueryHandlerConcurrentRich(t *testing.T) {
	g, _, h, reg, srv := buildTestServer(t, 2048)
	n := g.NumVertices()
	// The swapped-in index is built from the same graph, so oracle
	// answers stay valid across the swap; its budget makes it answer
	// through the other plan.
	idx2, err := Build(context.Background(), g, Options{LabelBudget: 2})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 48
	var wg sync.WaitGroup
	var pairsSent atomic.Int64
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := srv.Client()
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			for i := 0; i < perWorker; i++ {
				s, d := rng.Intn(n), rng.Intn(n)
				switch i % 6 {
				case 0: // point query
					var body struct {
						Reachable bool `json:"reachable"`
					}
					resp, err := client.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", srv.URL, s, d))
					if err != nil {
						fail(err)
						return
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						fail(err)
						return
					}
					pairsSent.Add(1)
					if want := g.ReachableBFS(VertexID(s), VertexID(d)); body.Reachable != want {
						fail(fmt.Errorf("reach(%d,%d) = %v, want %v", s, d, body.Reachable, want))
						return
					}
				case 1: // batch
					raw, _ := json.Marshal(map[string]any{"pairs": [][2]int64{{int64(s), int64(d)}, {int64(d), int64(s)}}})
					resp, err := client.Post(srv.URL+"/reach/batch", "application/json", bytes.NewReader(raw))
					if err != nil {
						fail(err)
						return
					}
					var body struct {
						Results []bool `json:"results"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						fail(err)
						return
					}
					pairsSent.Add(2)
					if len(body.Results) != 2 ||
						body.Results[0] != g.ReachableBFS(VertexID(s), VertexID(d)) ||
						body.Results[1] != g.ReachableBFS(VertexID(d), VertexID(s)) {
						fail(fmt.Errorf("batch(%d,%d) = %v", s, d, body.Results))
						return
					}
				case 2: // witness path
					resp, err := client.Get(fmt.Sprintf("%s/reach/path?s=%d&t=%d", srv.URL, s, d))
					if err != nil {
						fail(err)
						return
					}
					var body struct {
						Reachable bool    `json:"reachable"`
						Path      []int64 `json:"path"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						fail(err)
						return
					}
					pairsSent.Add(1)
					want := g.ReachableBFS(VertexID(s), VertexID(d))
					if body.Reachable != want || (want && len(body.Path) == 0) {
						fail(fmt.Errorf("path(%d,%d) = %+v, want reachable=%v", s, d, body, want))
						return
					}
				case 3: // set size
					resp, err := client.Get(fmt.Sprintf("%s/reach/count?s=%d", srv.URL, s))
					if err != nil {
						fail(err)
						return
					}
					var body struct {
						Count int `json:"count"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						fail(err)
						return
					}
					if want := oracleSetSize(g, VertexID(s)); body.Count != want {
						fail(fmt.Errorf("count(%d) = %d, want %d", s, body.Count, want))
						return
					}
				case 4: // one-source sweep
					targets := []int64{int64(d), int64((d + 1) % n), int64(s)}
					raw, _ := json.Marshal(map[string]any{"s": s, "targets": targets})
					resp, err := client.Post(srv.URL+"/reach/from", "application/json", bytes.NewReader(raw))
					if err != nil {
						fail(err)
						return
					}
					var body struct {
						Results []bool `json:"results"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil {
						fail(err)
						return
					}
					pairsSent.Add(int64(len(targets)))
					want := oracleRow(g, VertexID(s), targets)
					for k := range want {
						if body.Results[k] != want[k] {
							fail(fmt.Errorf("from(%d)[%d] = %v, want %v", s, k, body.Results[k], want[k]))
							return
						}
					}
				case 5: // join
					srcs := []int64{int64(s), int64((s + 3) % n)}
					tgts := []int64{int64(d), int64((d + 7) % n)}
					raw, _ := json.Marshal(map[string]any{"sources": srcs, "targets": tgts})
					resp, err := client.Post(srv.URL+"/reach/join", "application/json", bytes.NewReader(raw))
					if err != nil {
						fail(err)
						return
					}
					pairs, count, _, done := decodeNDJoin(t, bufio.NewScanner(resp.Body))
					resp.Body.Close()
					if !done || count != len(pairs) {
						fail(fmt.Errorf("join stream incomplete: done=%v count=%d pairs=%d", done, count, len(pairs)))
						return
					}
					for _, p := range pairs {
						if !g.ReachableBFS(VertexID(p[0]), VertexID(p[1])) {
							fail(fmt.Errorf("join streamed unreachable pair %v", p))
							return
						}
					}
				}
				if seed == 100 && i == perWorker/2 {
					// Mid-burst swap under full traffic from one worker.
					h.Swap(idx2)
				}
			}
		}(int64(wk) + 100)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hits := reg.CounterValue("reachlab_cache_hits_total")
	misses := reg.CounterValue("reachlab_cache_misses_total")
	pairs := reg.CounterValue("reachlab_query_pairs_total")
	if pairs != pairsSent.Load() {
		t.Errorf("server counted %d pairs, clients sent %d", pairs, pairsSent.Load())
	}
	if hits+misses != pairs {
		t.Errorf("cache counters do not reconcile across the swap: %d + %d != %d", hits, misses, pairs)
	}
}

// cancelOnWrite is a client that hangs up once the first bytes of an
// answer reach it.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	hangUp context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.hangUp()
	return w.ResponseRecorder.Write(p)
}

// TestRichEndpointsCanceled: a request whose client has gone is
// dropped, not answered — nothing written, one count in
// reachlab_http_canceled_total for its endpoint, none in the error
// counter — over a full index, whose sweeps read labels, and over a
// budget-1 index, whose sweeps and fallbacks traverse the graph. A join
// abandoned mid-stream stops at the next source, or at the write that
// fails, and never writes its done line.
func TestRichEndpointsCanceled(t *testing.T) {
	// A 3,000-vertex chain: every traversal from its head outlasts the
	// kernel's first look at the context.
	const n = 3000
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{From: VertexID(i), To: VertexID(i + 1)}
	}
	g := NewGraph(n, edges)
	requests := []struct{ label, method, target, body string }{
		{"path", http.MethodGet, "/reach/path?s=0&t=2999", ""},
		{"count", http.MethodGet, "/reach/count?s=0", ""},
		{"from", http.MethodPost, "/reach/from", `{"s": 0, "targets": [2999, 17]}`},
		{"join", http.MethodPost, "/reach/join", `{"sources": [0, 1, 2], "targets": [2999, 17]}`},
	}
	for _, opts := range []Options{{Method: MethodDRLShared}, {LabelBudget: 1}} {
		idx, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewMetricsRegistry()
		h := NewQueryHandlerOpts(idx, ServeOptions{Obs: reg})
		canceled := func(label string) int64 {
			return reg.CounterValue(`reachlab_http_canceled_total{handler="` + label + `"}`)
		}
		for _, c := range requests {
			ctx, hangUp := context.WithCancel(context.Background())
			hangUp()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)).WithContext(ctx))
			if rec.Body.Len() != 0 || canceled(c.label) != 1 {
				t.Errorf("budget %d: abandoned %s wrote %q and counted %d cancels, want nothing and 1",
					opts.LabelBudget, c.label, rec.Body.String(), canceled(c.label))
			}
			if errs := reg.CounterValue(`reachlab_http_errors_total{handler="` + c.label + `"}`); errs != 0 {
				t.Errorf("budget %d: abandoned %s counted %d errors", opts.LabelBudget, c.label, errs)
			}
		}

		ctx, hangUp := context.WithCancel(context.Background())
		w := &cancelOnWrite{httptest.NewRecorder(), hangUp}
		join := requests[3]
		h.ServeHTTP(w, httptest.NewRequest(join.method, join.target, strings.NewReader(join.body)).WithContext(ctx))
		if body := w.Body.String(); !strings.HasPrefix(body, `{"s":0,"t":17}`) || strings.Contains(body, `"s":1`) || strings.Contains(body, "done") {
			t.Errorf("budget %d: join abandoned after its first line went on to write %q", opts.LabelBudget, body)
		}
		if canceled("join") != 2 {
			t.Errorf("budget %d: mid-stream hang-up left the join cancel count at %d, want 2", opts.LabelBudget, canceled("join"))
		}
		// The hang-up can show as a failed write before the context says so.
		h.ServeHTTP(&failingWriter{header: make(http.Header)}, httptest.NewRequest(join.method, join.target, strings.NewReader(join.body)))
		if canceled("join") != 3 {
			t.Errorf("budget %d: a join whose stream cannot be written left the cancel count at %d, want 3", opts.LabelBudget, canceled("join"))
		}
	}
}
