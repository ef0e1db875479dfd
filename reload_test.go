package reachlab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Hot-reload correctness: the epoch-tagged atomic swap means every
// response is answered entirely by one serveState, and the
// X-Reachlab-Epoch header says which. These tests swap the handler to
// an index for a *different graph* mid-burst and check every recorded
// answer against the BFS oracle of whichever graph that epoch served
// — the strongest statement of "no torn reads, no stale cache": a
// wrong-epoch cache entry or a half-swapped index would answer from
// the wrong graph and the oracle would catch it.

// reloadFixture serves alternating graphs: odd epochs serve graph A,
// even epochs serve graph B. The loader rebuilds an index from
// scratch each time (exercising the full load path, not pointer
// reuse) and records the refs it was handed.
type reloadFixture struct {
	graphA, graphB *Graph

	mu   sync.Mutex
	refs []string
	next *Graph // graph the next reload installs
}

func newReloadFixture(t *testing.T) *reloadFixture {
	t.Helper()
	// Same vertex count, different edges: every query is in-range in
	// both epochs, but the two graphs disagree on many pairs, so an
	// answer from the wrong epoch's graph is detectable.
	fx := &reloadFixture{
		graphA: randomCyclicGraph(60, 220, 5),
		graphB: randomCyclicGraph(60, 140, 99),
	}
	fx.next = fx.graphB // epoch 1 serves A, so the first swap installs B
	return fx
}

func (fx *reloadFixture) loader(ref string) (*Index, error) {
	fx.mu.Lock()
	g := fx.next
	if g == fx.graphA {
		fx.next = fx.graphB
	} else {
		fx.next = fx.graphA
	}
	fx.refs = append(fx.refs, ref)
	fx.mu.Unlock()
	return Build(context.Background(), g, Options{})
}

// graphForEpoch maps a serving epoch to the graph it answered for.
func (fx *reloadFixture) graphForEpoch(epoch uint64) *Graph {
	if epoch%2 == 1 {
		return fx.graphA
	}
	return fx.graphB
}

// observation is one answered pair tagged with the epoch that served it.
type observation struct {
	s, t  VertexID
	ans   bool
	epoch uint64
}

func TestHotReloadDifferentGraphMidBurst(t *testing.T) {
	cases := []struct {
		name       string
		cachePairs int
		batch      bool
	}{
		{"single-nocache", 0, false},
		{"single-cache", 512, false},
		{"batch-nocache", 0, true},
		{"batch-cache", 512, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newReloadFixture(t)
			idxA, err := Build(context.Background(), fx.graphA, Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := NewQueryHandlerOpts(idxA, ServeOptions{
				Obs:        NewMetricsRegistry(),
				CachePairs: tc.cachePairs,
				Loader:     fx.loader,
			})
			srv := httptest.NewServer(h)
			defer srv.Close()
			httpc := srv.Client()
			n := fx.graphA.NumVertices()

			// Workers hammer the handler and record (pair, answer,
			// epoch) triples; the main goroutine swaps graphs under
			// them. Verification happens after the burst, once the
			// epoch → graph mapping is complete.
			const workers = 4
			var (
				wg   sync.WaitGroup
				stop = make(chan struct{})
				obsM sync.Mutex
				seen []observation
				errs []error
			)
			record := func(o []observation, err error) {
				obsM.Lock()
				seen = append(seen, o...)
				if err != nil {
					errs = append(errs, err)
				}
				obsM.Unlock()
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						s := VertexID((w*17 + i*7) % n)
						u := VertexID((w*5 + i*13 + 1) % n)
						if tc.batch {
							// Batch with a duplicate: one state load
							// answers the whole batch, so all pairs
							// share the response's epoch.
							o, err := askBatch(httpc, srv.URL, [][2]VertexID{{s, u}, {u, s}, {s, u}})
							record(o, err)
						} else {
							o, err := askSingle(httpc, srv.URL, s, u)
							record(o, err)
						}
					}
				}(w)
			}

			// ≥3 swaps mid-burst, spaced so each epoch serves traffic.
			const swaps = 4
			for k := 0; k < swaps; k++ {
				time.Sleep(30 * time.Millisecond)
				resp, err := httpc.Post(srv.URL+"/admin/reload", "application/json", bytes.NewReader(nil))
				if err != nil {
					t.Fatal(err)
				}
				var rr struct {
					Epoch    uint64 `json:"epoch"`
					Vertices int    `json:"vertices"`
				}
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if rr.Epoch != uint64(k+2) {
					t.Fatalf("swap %d returned epoch %d, want %d", k, rr.Epoch, k+2)
				}
				if rr.Vertices != n {
					t.Fatalf("swap %d reports %d vertices, want %d", k, rr.Vertices, n)
				}
			}
			time.Sleep(30 * time.Millisecond)
			close(stop)
			wg.Wait()

			if len(errs) > 0 {
				t.Fatalf("%d failed requests during reload burst; first: %v", len(errs), errs[0])
			}
			if len(seen) == 0 {
				t.Fatal("burst recorded no answers")
			}
			// Every answer must match the oracle of the graph its
			// epoch served.
			perEpoch := map[uint64]int{}
			for _, o := range seen {
				perEpoch[o.epoch]++
				g := fx.graphForEpoch(o.epoch)
				if g == nil {
					t.Fatalf("answer tagged with unknown epoch %d", o.epoch)
				}
				if want := g.ReachableBFS(o.s, o.t); o.ans != want {
					t.Fatalf("epoch %d: reach(%d,%d) = %v, that epoch's graph says %v",
						o.epoch, o.s, o.t, o.ans, want)
				}
			}
			if len(perEpoch) < 2 {
				t.Fatalf("burst only observed epochs %v; swaps did not interleave with traffic", perEpoch)
			}
			if h.Epoch() != swaps+1 {
				t.Fatalf("final epoch %d, want %d", h.Epoch(), swaps+1)
			}
		})
	}
}

func askSingle(httpc *http.Client, base string, s, u VertexID) ([]observation, error) {
	resp, err := httpc.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", base, s, u))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad %s header: %v", EpochHeader, err)
	}
	var body struct {
		Reachable bool `json:"reachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return []observation{{s: s, t: u, ans: body.Reachable, epoch: epoch}}, nil
}

func askBatch(httpc *http.Client, base string, pairs [][2]VertexID) ([]observation, error) {
	req := struct {
		Pairs [][2]int64 `json:"pairs"`
	}{Pairs: make([][2]int64, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = [2]int64{int64(p[0]), int64(p[1])}
	}
	raw, _ := json.Marshal(req)
	resp, err := httpc.Post(base+"/reach/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad %s header: %v", EpochHeader, err)
	}
	var body struct {
		Results []bool `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Results) != len(pairs) {
		return nil, fmt.Errorf("%d answers for %d pairs", len(body.Results), len(pairs))
	}
	out := make([]observation, len(pairs))
	for i, p := range pairs {
		out[i] = observation{s: p[0], t: p[1], ans: body.Results[i], epoch: epoch}
	}
	return out, nil
}

// TestReloadStatsAndErrors covers the reload endpoint's bookkeeping
// and failure modes: /stats epoch fields, ref passthrough, loader
// errors, and the 501 for replicas without a loader.
func TestReloadStatsAndErrors(t *testing.T) {
	t.Run("stats-track-epochs", func(t *testing.T) {
		fx := newReloadFixture(t)
		idxA, err := Build(context.Background(), fx.graphA, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := NewQueryHandlerOpts(idxA, ServeOptions{Obs: NewMetricsRegistry(), Loader: fx.loader})
		srv := httptest.NewServer(h)
		defer srv.Close()

		readStats := func() (epoch uint64, vertices int) {
			t.Helper()
			resp, err := srv.Client().Get(srv.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				IndexEpoch    uint64 `json:"index_epoch"`
				IndexVertices int    `json:"index_vertices"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			return body.IndexEpoch, body.IndexVertices
		}
		epoch, vertices := readStats()
		if epoch != 1 || vertices != fx.graphA.NumVertices() {
			t.Fatalf("fresh handler: epoch %d vertices %d", epoch, vertices)
		}
		resp, err := srv.Client().Post(srv.URL+"/admin/reload", "application/json",
			bytes.NewReader([]byte(`{"ref":"rebuilt.idx"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload status %d", resp.StatusCode)
		}
		epoch, vertices = readStats()
		if epoch != 2 || vertices != fx.graphB.NumVertices() {
			t.Fatalf("after reload: epoch %d vertices %d", epoch, vertices)
		}
		fx.mu.Lock()
		refs := append([]string(nil), fx.refs...)
		fx.mu.Unlock()
		if len(refs) != 1 || refs[0] != "rebuilt.idx" {
			t.Fatalf("loader saw refs %q, want [rebuilt.idx]", refs)
		}
	})

	// The loader is drserve's — OpenIndex with the graph it holds — and
	// the reload names the index of another graph of as many vertices;
	// then a loader that returns no index and no error.
	t.Run("loader-error-keeps-serving", func(t *testing.T) {
		g := randomCyclicGraph(30, 90, 3)
		idx, err := Build(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		other, err := Build(context.Background(), randomCyclicGraph(30, 90, 4), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if _, err := other.WriteTo(&file); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "other.idx")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		h := NewQueryHandlerOpts(idx, ServeOptions{
			Obs: NewMetricsRegistry(),
			Loader: func(ref string) (*Index, error) {
				if ref == "nothing" {
					return nil, nil
				}
				return OpenIndex(ref, g)
			},
		})
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := srv.Client().Post(srv.URL+"/admin/reload", "application/json",
			strings.NewReader(fmt.Sprintf(`{"ref":%q}`, path)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "wrong graph") {
			t.Fatalf("reload to another graph's index returned %d %s, want 500 naming the wrong graph", resp.StatusCode, body)
		}
		resp, err = srv.Client().Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(`{"ref":"nothing"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload to a nil index returned %d, want 500", resp.StatusCode)
		}
		// The old epoch keeps serving untouched.
		if h.Epoch() != 1 {
			t.Fatalf("failed reload advanced epoch to %d", h.Epoch())
		}
		resp, err = srv.Client().Get(srv.URL + "/reach?s=0&t=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query after failed reload: status %d", resp.StatusCode)
		}
	})

	t.Run("no-loader-501", func(t *testing.T) {
		g := randomCyclicGraph(30, 90, 3)
		idx, err := Build(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := NewQueryHandlerOpts(idx, ServeOptions{})
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := srv.Client().Post(srv.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("loaderless reload returned %d, want 501", resp.StatusCode)
		}
		if _, _, err := h.Reload(""); err == nil || h.Epoch() != 1 {
			t.Fatalf("Reload without a loader: %v, epoch %d; want an error and epoch 1", err, h.Epoch())
		}
	})

	t.Run("cache-counters-survive-swap", func(t *testing.T) {
		// The hits+misses == pairs reconciliation (PR 5's invariant)
		// must hold across epochs: retired-epoch counters fold into
		// the handler totals at swap time.
		g := randomCyclicGraph(40, 120, 7)
		idx, err := Build(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := NewQueryHandlerOpts(idx, ServeOptions{Obs: NewMetricsRegistry(), CachePairs: 256})
		srv := httptest.NewServer(h)
		defer srv.Close()
		ask := func(times int) {
			for i := 0; i < times; i++ {
				resp, err := srv.Client().Get(fmt.Sprintf("%s/reach?s=%d&t=%d", srv.URL, i%5, (i+1)%5))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}
		ask(20)
		h1, m1 := h.CacheStats()
		if h1+m1 != 20 {
			t.Fatalf("before swap: hits %d + misses %d != 20 pairs", h1, m1)
		}
		idx2, err := Build(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e := h.Swap(idx2); e != 2 {
			t.Fatalf("swap returned epoch %d, want 2", e)
		}
		ask(15)
		h2, m2 := h.CacheStats()
		if h2+m2 != 35 {
			t.Fatalf("after swap: hits %d + misses %d != 35 pairs (retired counters lost?)", h2, m2)
		}
		// The new epoch's cache starts cold: the first post-swap ask
		// of each distinct pair must have missed.
		if m2 <= m1 {
			t.Fatalf("misses did not grow across the swap (%d → %d); stale cache survived", m1, m2)
		}
	})
}

// richObservation is one rich-query answer tagged with the epoch that
// served it: a witness path, a set-size count, or one one-source
// sweep result.
type richObservation struct {
	kind  string // "path" | "count" | "from"
	s, t  VertexID
	ans   bool
	count int
	path  []VertexID
	epoch uint64
}

// TestHotReloadRichQueriesMidBurst is the reload-correctness statement
// for the rich endpoints: workers hammer /reach/path, /reach/count and
// /reach/from while /admin/reload swaps the handler between two
// different graphs, and every recorded answer must match the oracle of
// the graph its epoch served — including every hop of every witness
// path, which only exists in one of the two graphs' edge sets. The
// update loop attaches the epoch's own graph at swap time, so a path
// walked against the wrong epoch's index would produce phantom edges
// and fail here.
func TestHotReloadRichQueriesMidBurst(t *testing.T) {
	fx := newReloadFixture(t)
	idxA, err := Build(context.Background(), fx.graphA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewQueryHandlerOpts(idxA, ServeOptions{
		Obs:        NewMetricsRegistry(),
		CachePairs: 512,
		Loader:     fx.loader,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	httpc := srv.Client()
	n := fx.graphA.NumVertices()

	const workers = 4
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		obsM sync.Mutex
		seen []richObservation
		errs []error
	)
	record := func(o richObservation, err error) {
		obsM.Lock()
		if err != nil {
			errs = append(errs, err)
		} else {
			seen = append(seen, o)
		}
		obsM.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := VertexID((w*17 + i*7) % n)
				u := VertexID((w*5 + i*13 + 1) % n)
				switch i % 3 {
				case 0:
					record(askPath(httpc, srv.URL, s, u))
				case 1:
					record(askCount(httpc, srv.URL, s))
				default:
					record(askFrom(httpc, srv.URL, s, u))
				}
			}
		}(w)
	}

	const swaps = 4
	for k := 0; k < swaps; k++ {
		time.Sleep(30 * time.Millisecond)
		resp, err := httpc.Post(srv.URL+"/admin/reload", "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d", k, resp.StatusCode)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d failed rich requests during reload burst; first: %v", len(errs), errs[0])
	}
	if len(seen) == 0 {
		t.Fatal("burst recorded no answers")
	}

	// Memoized per-graph oracles.
	setSizes := map[*Graph]map[VertexID]int{}
	edgeSets := map[*Graph]map[[2]VertexID]bool{}
	oracleFor := func(g *Graph) (map[VertexID]int, map[[2]VertexID]bool) {
		if _, ok := setSizes[g]; !ok {
			sizes := map[VertexID]int{}
			for s := 0; s < g.NumVertices(); s++ {
				sizes[VertexID(s)] = oracleSetSize(g, VertexID(s))
			}
			setSizes[g] = sizes
			edgeSets[g] = edgeSet(g)
		}
		return setSizes[g], edgeSets[g]
	}

	perEpoch := map[uint64]int{}
	for _, o := range seen {
		perEpoch[o.epoch]++
		g := fx.graphForEpoch(o.epoch)
		sizes, edges := oracleFor(g)
		switch o.kind {
		case "path":
			want := g.ReachableBFS(o.s, o.t)
			if o.ans != want {
				t.Fatalf("epoch %d: path(%d,%d).reachable = %v, that epoch's graph says %v",
					o.epoch, o.s, o.t, o.ans, want)
			}
			if !want {
				continue
			}
			if len(o.path) == 0 || o.path[0] != o.s || o.path[len(o.path)-1] != o.t {
				t.Fatalf("epoch %d: path(%d,%d) endpoints wrong: %v", o.epoch, o.s, o.t, o.path)
			}
			for i := 0; i+1 < len(o.path); i++ {
				if !edges[[2]VertexID{o.path[i], o.path[i+1]}] {
					t.Fatalf("epoch %d: path(%d,%d) hop %d→%d is not an edge of that epoch's graph: %v",
						o.epoch, o.s, o.t, o.path[i], o.path[i+1], o.path)
				}
			}
		case "count":
			if o.count != sizes[o.s] {
				t.Fatalf("epoch %d: count(%d) = %d, that epoch's graph says %d",
					o.epoch, o.s, o.count, sizes[o.s])
			}
		case "from":
			if want := g.ReachableBFS(o.s, o.t); o.ans != want {
				t.Fatalf("epoch %d: from(%d)[%d] = %v, that epoch's graph says %v",
					o.epoch, o.s, o.t, o.ans, want)
			}
		}
	}
	if len(perEpoch) < 2 {
		t.Fatalf("burst only observed epochs %v; swaps did not interleave with traffic", perEpoch)
	}
}

func askPath(httpc *http.Client, base string, s, u VertexID) (richObservation, error) {
	resp, err := httpc.Get(fmt.Sprintf("%s/reach/path?s=%d&t=%d", base, s, u))
	if err != nil {
		return richObservation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return richObservation{}, fmt.Errorf("path status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return richObservation{}, fmt.Errorf("bad %s header: %v", EpochHeader, err)
	}
	var body struct {
		Reachable bool       `json:"reachable"`
		Path      []VertexID `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return richObservation{}, err
	}
	return richObservation{kind: "path", s: s, t: u, ans: body.Reachable, path: body.Path, epoch: epoch}, nil
}

func askCount(httpc *http.Client, base string, s VertexID) (richObservation, error) {
	resp, err := httpc.Get(fmt.Sprintf("%s/reach/count?s=%d", base, s))
	if err != nil {
		return richObservation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return richObservation{}, fmt.Errorf("count status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return richObservation{}, fmt.Errorf("bad %s header: %v", EpochHeader, err)
	}
	var body struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return richObservation{}, err
	}
	return richObservation{kind: "count", s: s, count: body.Count, epoch: epoch}, nil
}

// askFrom issues a one-target /reach/from so the observation stays a
// single verifiable (s, t, ans, epoch) tuple.
func askFrom(httpc *http.Client, base string, s, u VertexID) (richObservation, error) {
	raw, _ := json.Marshal(map[string]any{"s": s, "targets": []VertexID{u}})
	resp, err := httpc.Post(base+"/reach/from", "application/json", bytes.NewReader(raw))
	if err != nil {
		return richObservation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return richObservation{}, fmt.Errorf("from status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return richObservation{}, fmt.Errorf("bad %s header: %v", EpochHeader, err)
	}
	var body struct {
		Results []bool `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return richObservation{}, err
	}
	if len(body.Results) != 1 {
		return richObservation{}, fmt.Errorf("from answered %d results for 1 target", len(body.Results))
	}
	return richObservation{kind: "from", s: s, t: u, ans: body.Results[0], epoch: epoch}, nil
}
