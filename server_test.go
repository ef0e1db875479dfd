package reachlab

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/pregel"
)

func testIndex(t *testing.T) *Index {
	t.Helper()
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestQueryHandlerReach(t *testing.T) {
	srv := httptest.NewServer(NewQueryHandlerOpts(testIndex(t), ServeOptions{}))
	defer srv.Close()

	cases := []struct {
		s, t int
		want bool
	}{
		{1, 6, true},
		{9, 0, false},
		{7, 8, true},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + "/reach?s=" + itoa(c.s) + "&t=" + itoa(c.t))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Reachable bool `json:"reachable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body.Reachable != c.want {
			t.Errorf("reach(%d,%d) = %v, want %v", c.s, c.t, body.Reachable, c.want)
		}
	}
}

func TestQueryHandlerErrors(t *testing.T) {
	srv := httptest.NewServer(NewQueryHandlerOpts(testIndex(t), ServeOptions{}))
	defer srv.Close()
	for _, url := range []string{
		"/reach",           // missing params
		"/reach?s=1",       // missing t
		"/reach?s=abc&t=2", // non-numeric
		"/reach?s=99&t=2",  // out of range
		"/reach?s=-1&t=2",  // negative
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestQueryHandlerStatsAndHealth(t *testing.T) {
	srv := httptest.NewServer(NewQueryHandlerOpts(testIndex(t), ServeOptions{CachePairs: 1000}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Vertices      int              `json:"vertices"`
		Entries       int64            `json:"entries"`
		Bytes         int64            `json:"bytes"`
		ResidentBytes int64            `json:"resident_bytes"`
		Cache         map[string]int64 `json:"cache"`
		Build         struct {
			Method     string `json:"method"`
			Workers    int    `json:"workers"`
			Supersteps int    `json:"supersteps"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Vertices != 11 || stats.Entries == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// bytes is the paper's Table VI accounting, 4 bytes an entry and 16
	// a vertex (one more for the end offsets); resident_bytes is what the
	// replica's layout holds: 2 bytes a rank, all below 2¹⁶ here, and a
	// 4-byte word a vertex and direction (one more for the end).
	const entries, resident = 31, 158
	if stats.Entries != entries || stats.Bytes != 4*entries+16*(11+1) || stats.ResidentBytes != resident {
		t.Errorf("%d entries in %d bytes, %d resident; want %d in %d, %d resident", stats.Entries, stats.Bytes, stats.ResidentBytes, entries, 4*entries+16*(11+1), resident)
	}
	if stats.Build.Method != string(MethodDRLBatch) || stats.Build.Supersteps == 0 {
		t.Errorf("build section = %+v", stats.Build)
	}
	// The cache block: 1,000 pairs round up to 2¹⁰ slots of 4 bytes.
	wantCache := map[string]int64{"capacity": 1024, "bytes": 4096, "hits": 0, "misses": 0}
	if !maps.Equal(stats.Cache, wantCache) {
		t.Errorf("cache = %v, want %v", stats.Cache, wantCache)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestStatsExposeFaultCounters builds over a real RPC cluster through
// a lossy transport and checks the retry/checkpoint counters surface
// on /stats.
func TestStatsExposeFaultCounters(t *testing.T) {
	clock.Fake(t) // the master's backoffs in virtual time
	g := NewGraph(11, testEdges())
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, g.d, true); err != nil {
		t.Fatal(err)
	}
	addrs := startTestWorkers(t, 2)
	seed := int64(0)
	copt := ClusterOptions{
		CheckpointEvery: 2,
		Dial: func(addr string) (pregel.Transport, error) {
			inner, err := pregel.DialRPC(addr)
			if err != nil {
				return nil, err
			}
			seed++
			return pregel.NewFaultTransport(inner, pregel.FaultPlan{Seed: seed, DropProb: 0.25}), nil
		},
	}
	idx, err := BuildOverCluster(context.Background(), addrs, path, Options{}, copt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewQueryHandlerOpts(idx, ServeOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Build struct {
			Retries            int64 `json:"retries"`
			Recoveries         int64 `json:"recoveries"`
			Checkpoints        int64 `json:"checkpoints"`
			LastCheckpointStep int   `json:"last_checkpoint_step"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Build.Retries == 0 {
		t.Error("expected retried calls on a lossy transport")
	}
	if stats.Build.Checkpoints == 0 || stats.Build.LastCheckpointStep == 0 {
		t.Errorf("expected checkpoint activity in /stats: %+v", stats.Build)
	}
}

// TestMetricsEndpoint drives a build and queries through one registry
// and checks the /metrics document: the build counters must equal the
// BuildStats numbers exactly, and the HTTP counters must reflect the
// requests just made.
func TestMetricsEndpoint(t *testing.T) {
	reg := NewMetricsRegistry()
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewQueryHandlerOpts(idx, ServeOptions{Obs: reg}))
	defer srv.Close()

	// One good query, one rejected query, one stats call.
	for _, url := range []string{"/reach?s=1&t=6", "/reach?s=99&t=2", "/stats"} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	bs := idx.BuildStats()
	for _, line := range []string{
		fmt.Sprintf("pregel_messages_total %d", bs.Messages),
		fmt.Sprintf("pregel_supersteps_total %d", bs.Supersteps),
		`reachlab_http_requests_total{handler="reach"} 2`,
		`reachlab_http_errors_total{handler="reach"} 1`,
		`reachlab_http_requests_total{handler="stats"} 1`,
		`reachlab_http_request_seconds_count{handler="reach"} 2`,
	} {
		if !strings.Contains(doc, line) {
			t.Errorf("/metrics missing %q\n--- document:\n%s", line, doc)
		}
	}
}

// TestEveryRequestTimedOnce: the mux times every mounted request once,
// whatever its outcome — answers, a 400, a 413, a 501 and a join whose
// client went away — so per handler the latency histogram's count is
// the request counter's value.
func TestEveryRequestTimedOnce(t *testing.T) {
	idx := testIndex(t)
	reg := NewMetricsRegistry()
	h := NewQueryHandlerOpts(idx, ServeOptions{Obs: reg, CachePairs: 64,
		Loader: func(string) (*Index, error) { return idx, nil }})
	gone, hangUp := context.WithCancel(context.Background())
	hangUp()
	for _, c := range []struct {
		method, target, body string
		ctx                  context.Context
	}{
		{http.MethodGet, "/reach?s=1&t=6", "", nil},
		{http.MethodGet, "/reach?s=99&t=2", "", nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[[1,6],[6,1]]}`, nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[` + strings.TrimSuffix(strings.Repeat("[0,1],", DefaultMaxBatch+1), ",") + `]}`, nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[[1,`, nil},
		{http.MethodGet, "/reach/path?s=1&t=6", "", nil},
		{http.MethodGet, "/reach/count?s=1", "", nil},
		{http.MethodGet, "/reach/count?s=-1", "", nil},
		{http.MethodPost, "/reach/from", `{"s":1,"targets":[6,0]}`, nil},
		{http.MethodPost, "/reach/join", `{"sources":[1,2],"targets":[6]}`, nil},
		{http.MethodPost, "/reach/join", `{"sources":[1,2],"targets":[6]}`, gone},
		{http.MethodPost, "/admin/reload", ``, nil},
		{http.MethodPost, "/edges", `{"op":"insert","u":1,"v":2}`, nil},
		{http.MethodGet, "/stats", "", nil},
	} {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		if c.ctx != nil {
			req = req.WithContext(c.ctx)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	for _, e := range []string{"reach", "batch", "path", "count", "from", "join", "reload", "edges", "stats"} {
		requests := reg.CounterValue(`reachlab_http_requests_total{handler="` + e + `"}`)
		timed := reg.Histogram(`reachlab_http_request_seconds{handler="`+e+`"}`, nil).Count()
		if requests == 0 || timed != requests {
			t.Errorf("%s: %d requests, %d timed; want every request timed once", e, requests, timed)
		}
	}
	for _, want := range []struct {
		name string
		n    int64
	}{
		{`reachlab_http_errors_total{handler="batch"}`, 2},
		{`reachlab_http_canceled_total{handler="join"}`, 1},
		{`reachlab_http_errors_total{handler="edges"}`, 1},
	} {
		if got := reg.CounterValue(want.name); got != want.n {
			t.Errorf("%s = %d, want %d: the traffic is not the mix it means to be", want.name, got, want.n)
		}
	}
}

// TestTraceEndpoint: the superstep trace collected during the build is
// served as JSON and covers every superstep.
func TestTraceEndpoint(t *testing.T) {
	reg := NewMetricsRegistry()
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewQueryHandlerOpts(idx, ServeOptions{Obs: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var traces map[string][]struct {
		Step     int   `json:"step"`
		Messages int64 `json:"messages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	steps := traces["pregel"]
	if len(steps) != idx.BuildStats().Supersteps {
		t.Fatalf("trace has %d rows, build ran %d supersteps", len(steps), idx.BuildStats().Supersteps)
	}
	var msgs int64
	for _, s := range steps {
		msgs += s.Messages
	}
	if msgs != idx.BuildStats().Messages {
		t.Errorf("trace messages sum to %d, BuildStats says %d", msgs, idx.BuildStats().Messages)
	}
}

// TestStatsDiskLoadedIndex: an index loaded from disk carries no build
// record; /stats must serve zeros rather than stale or garbage values.
func TestStatsDiskLoadedIndex(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewQueryHandlerOpts(loaded, ServeOptions{Obs: NewMetricsRegistry()}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Vertices int `json:"vertices"`
		Build    struct {
			Method     string `json:"method"`
			Workers    int    `json:"workers"`
			Supersteps int    `json:"supersteps"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Vertices != 11 {
		t.Errorf("vertices = %d, want 11", stats.Vertices)
	}
	if stats.Build.Method != "" || stats.Build.Workers != 0 || stats.Build.Supersteps != 0 {
		t.Errorf("disk-loaded index should report a zero build record, got %+v", stats.Build)
	}
	// Queries still work without a build record.
	resp, err = http.Get(srv.URL + "/reach?s=1&t=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("reach on disk-loaded index: status %d", resp.StatusCode)
	}
}

// failingWriter reports a write error on the first body write, the way
// a closed client connection does.
type failingWriter struct {
	header http.Header
	code   int
}

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(code int) { w.code = code }

func (w *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset")
}

// TestWriteJSONFailure: when the encoder fails mid-stream the handler
// must not splice an http.Error page into the half-written response —
// it logs and drops. No status may be forced after the fact.
func TestWriteJSONFailure(t *testing.T) {
	w := &failingWriter{header: make(http.Header)}
	httpapi.WriteJSON(w, map[string]any{"k": "v"})
	if w.code != 0 {
		t.Errorf("writeJSON forced status %d after a mid-stream failure", w.code)
	}

	// An unencodable value likewise produces no error page: the
	// recorder's body stays empty and the implicit 200 stands.
	rec := httptest.NewRecorder()
	httpapi.WriteJSON(rec, map[string]any{"fn": func() {}})
	if rec.Body.Len() != 0 {
		t.Errorf("writeJSON wrote %q after an encode failure", rec.Body.String())
	}
	if rec.Code != http.StatusOK {
		t.Errorf("writeJSON set status %d, want untouched 200", rec.Code)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
