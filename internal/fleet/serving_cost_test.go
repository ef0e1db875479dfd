package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	reachlab "repro"
	"repro/internal/clock"
	"repro/internal/obs"
)

// The serving-cost golden: what one fixed request stream costs at each
// layer of the serving path, so that an edit to the replica, the
// contract or the router moves a number here and says where, as
// TestWireVolumeGolden does for the build's wire. The router's hop is a
// RoundTripper that hands each request to a replica's handler in
// process: no sockets, so every row but the allocation ones is exact on
// any host.

// costAllocsVersion is the toolchain the allocation rows are pinned
// for; the standard library's own allocations move between versions.
const costAllocsVersion = "go1.24.0"

// costRow is one layer's cost over the whole stream. Allocations and
// bytes are per request, rounded down (testing.AllocsPerRun's rounding);
// the rest are totals.
type costRow struct {
	allocs, bytes       uint64 // heap allocations and bytes per request
	reqBytes, respBytes int    // request and response body bytes, client side
	hopBytes            int64  // sub-request plus sub-response body bytes between router and replicas
	subRequests         int64  // requests the replicas served
	hits, misses        int64  // the replicas' cache outcomes
	retries             int64  // the router's forwards beyond each request's first
}

// costStream is the fixed input: 4,096 batch-16 requests of zipf pairs,
// then a few rich queries and a batch that repeats a pair.
func costStream(g *reachlab.Graph, idx *reachlab.Index) []costRequest {
	const batch = 16
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	var reqs []costRequest
	var far [2]uint64 // the first reachable pair of distinct vertices: the path query's
	for range costBatches {
		body := []byte(`{"pairs":[`)
		for k := range batch {
			s, t := z.Uint64(), z.Uint64()
			if far == [2]uint64{} && s != t && idx.Reachable(reachlab.VertexID(s), reachlab.VertexID(t)) {
				far = [2]uint64{s, t}
			}
			if k > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, "[%d,%d]", s, t)
		}
		reqs = append(reqs, costRequest{http.MethodPost, "/reach/batch", string(append(body, "]}"...))})
	}
	return append(reqs,
		costRequest{http.MethodGet, fmt.Sprintf("/reach/path?s=%d&t=%d", far[0], far[1]), ""},
		costRequest{http.MethodGet, "/reach/count?s=1", ""},
		costRequest{http.MethodPost, "/reach/from", `{"s":1,"targets":[0,1,2,3,5,8,13,21,34,55,89,144]}`},
		costRequest{http.MethodPost, "/reach/join", `{"sources":[0,1,2,3,5,8],"targets":[0,1,2,3,5,8,13,21,34,55]}`},
		costRequest{http.MethodPost, "/reach/batch", `{"pairs":[[0,1],[2,3],[4,5],[2,3]]}`},
	)
}

// costBatches is the stream's length before its rich queries.
const costBatches = 4096

type costRequest struct{ method, path, body string }

// costSink is the client's end of a request: a ResponseWriter that
// keeps the body's length and nothing else, so that the layer's
// allocations are all that is counted.
type costSink struct {
	header http.Header
	status int
	bytes  int
}

func (c *costSink) Header() http.Header         { return c.header }
func (c *costSink) WriteHeader(status int)      { c.status = status }
func (c *costSink) Write(p []byte) (int, error) { c.bytes += len(p); return len(p), nil }

// replayBody is a request body that can be rewound between layers.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// inProcess is the router's transport in the golden: each request goes
// to the handler its host names, and the body bytes each way are
// tallied.
type inProcess struct {
	replicas map[string]http.Handler
	bytes    atomic.Int64 // forwards and probes go concurrently
}

func (p *inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := p.replicas[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no replica at %s", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	r := *req // the handler may replace the body; the client's request stays as it was
	h.ServeHTTP(rec, &r)
	resp := rec.Result()
	p.bytes.Add(req.ContentLength + int64(rec.Body.Len()))
	return resp, nil
}

// costLayer is one serving layer under test: the handler the client
// calls, the replicas' registries, the router (nil for a lone replica)
// and its transport.
type costLayer struct {
	h     http.Handler
	regs  []*obs.Registry
	fleet *Fleet
	hop   *inProcess
}

func newReplica(idx *reachlab.Index, cachePairs int) (http.Handler, *obs.Registry) {
	reg := obs.New()
	return reachlab.NewQueryHandlerOpts(idx, reachlab.ServeOptions{Obs: reg, CachePairs: cachePairs}), reg
}

// costCachePairs sizes each cached replica's table: 2^16 slots for the
// stream's 65,536 pairs, so some of them evict others.
const costCachePairs = 1 << 16

var costLayers = []struct {
	name string
	make func(t *testing.T, idx *reachlab.Index) costLayer
}{
	{"replica-cached", func(t *testing.T, idx *reachlab.Index) costLayer {
		h, reg := newReplica(idx, costCachePairs)
		return costLayer{h: h, regs: []*obs.Registry{reg}}
	}},
	{"replica-uncached", func(t *testing.T, idx *reachlab.Index) costLayer {
		h, reg := newReplica(idx, 0)
		return costLayer{h: h, regs: []*obs.Registry{reg}}
	}},
	{"router-2", func(t *testing.T, idx *reachlab.Index) costLayer {
		hop := &inProcess{replicas: map[string]http.Handler{}}
		var regs []*obs.Registry
		addrs := []string{"replica0", "replica1"}
		for _, a := range addrs {
			h, reg := newReplica(idx, costCachePairs)
			hop.replicas[a] = h
			regs = append(regs, reg)
		}
		f, err := New(addrs, Options{Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		f.httpc.Transport = hop
		f.Start()
		t.Cleanup(f.Close)
		return costLayer{h: f, regs: regs, fleet: f, hop: hop}
	}},
}

// allocsReason says why this run cannot hold the allocation rows, or
// "" when it can: they are pinned for one toolchain, and the race
// detector and coverage instrument allocations of their own.
func allocsReason() string {
	if v := runtime.Version(); v != costAllocsVersion {
		return fmt.Sprintf("allocation rows are pinned for %s, this is %s", costAllocsVersion, v)
	}
	if testing.CoverMode() != "" {
		return "allocation rows do not hold under -cover"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return "allocation rows do not hold under -race"
			}
		}
	}
	return ""
}

// TestServingCostGolden pushes one fixed stream through a replica with
// its cache, one without, and a two-replica router, and pins per layer
// the allocations and bytes per request (on one toolchain), the body
// bytes each way, the requests the replicas served, their cache
// outcomes and the router's retries. The stream is sequential, so the
// router never has two forwards out and its tie rule sends every
// request to its first replica: its cache outcomes are the cached
// replica's, hit for hit.
func TestServingCostGolden(t *testing.T) {
	clock.Fake(t) // nobody advances it: no probe after Start's joins the counts
	g, err := reachlab.GenerateGraph("citation", 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := reachlab.Build(context.Background(), g, reachlab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream := costStream(g, idx)
	want := map[string]costRow{
		"replica-cached":   {allocs: 26, bytes: 2441, reqBytes: 597958, respBytes: 489702, subRequests: 4101, hits: 24457, misses: 41096},
		"replica-uncached": {allocs: 23, bytes: 2171, reqBytes: 597958, respBytes: 489702, subRequests: 4101},
		"router-2":         {allocs: 60, bytes: 6223, reqBytes: 597958, respBytes: 489702, hopBytes: 1087666, subRequests: 4101, hits: 24457, misses: 41096},
	}
	skipAllocs := allocsReason()
	got := map[string]costRow{}
	for _, layer := range costLayers {
		// A throwaway pass over every kind of request first fills the
		// standard library's pools and type caches, so the measured pass
		// starts as every later one would.
		warm := layer.make(t, idx)
		measure(t, warm.h, append(stream[:256:256], stream[costBatches:]...))
		l := layer.make(t, idx)
		row := measure(t, l.h, stream)
		for _, reg := range l.regs {
			for _, handler := range []string{"batch", "path", "count", "from", "join"} {
				row.subRequests += reg.CounterValue(obs.Label("reachlab_http_requests_total", "handler", handler))
			}
			row.hits += reg.CounterValue("reachlab_cache_hits_total")
			row.misses += reg.CounterValue("reachlab_cache_misses_total")
		}
		if l.fleet != nil {
			row.hopBytes = l.hop.bytes.Load()
			row.retries = l.fleet.retries.Value()
		}
		if skipAllocs != "" {
			row.allocs, row.bytes = 0, 0
		}
		got[layer.name] = row
	}
	if skipAllocs != "" {
		t.Logf("allocation rows not checked: %s", skipAllocs)
		for name, w := range want {
			w.allocs, w.bytes = 0, 0
			want[name] = w
		}
	}
	for _, layer := range costLayers {
		if g, w := got[layer.name], want[layer.name]; g != w {
			t.Errorf("%s: %+v, want %+v", layer.name, g, w)
		}
	}
	if r, c := got["router-2"], got["replica-cached"]; r.hits != c.hits || r.misses != c.misses {
		t.Errorf("router-2's cache outcomes %d/%d differ from replica-cached's %d/%d: the sequential stream left its first replica",
			r.hits, r.misses, c.hits, c.misses)
	}
	if t.Failed() {
		var b strings.Builder
		for _, layer := range costLayers {
			r := got[layer.name]
			fmt.Fprintf(&b, "\t%q: {allocs: %d, bytes: %d, reqBytes: %d, respBytes: %d, hopBytes: %d, subRequests: %d, hits: %d, misses: %d, retries: %d},\n",
				layer.name, r.allocs, r.bytes, r.reqBytes, r.respBytes, r.hopBytes, r.subRequests, r.hits, r.misses, r.retries)
		}
		t.Logf("the rows measured:\n%s", b.String())
	}
}

// measure sends every request of stream to h, one at a time, and returns the body bytes and, per request, the heap
// allocations and bytes. Every answer must be a 200.
func measure(t *testing.T, h http.Handler, stream []costRequest) costRow {
	t.Helper()
	reqs := make([]*http.Request, len(stream))
	bodies := make([]*replayBody, len(stream))
	for i, c := range stream {
		bodies[i] = &replayBody{}
		bodies[i].Reset([]byte(c.body))
		r, err := http.NewRequest(c.method, "http://layer"+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = r
	}
	sinks := make([]costSink, len(stream))
	for i := range sinks {
		sinks[i] = costSink{header: http.Header{}, status: http.StatusOK}
	}
	// One processor and no collection while measuring: a collection
	// empties the standard library's pools, and when it lands would
	// move the bytes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var row costRow
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, r := range reqs {
		if stream[i].method == http.MethodPost {
			r.Body, r.ContentLength = bodies[i], int64(len(stream[i].body))
		}
		h.ServeHTTP(&sinks[i], r)
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(stream))
	row.allocs = (after.Mallocs - before.Mallocs) / n
	row.bytes = (after.TotalAlloc - before.TotalAlloc) / n
	for i, c := range stream {
		if sinks[i].status != http.StatusOK {
			t.Fatalf("%s %s answered %d", c.method, c.path, sinks[i].status)
		}
		row.reqBytes += len(c.body)
		row.respBytes += sinks[i].bytes
	}
	return row
}
