package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// fakeReplica is a deterministic stand-in for a drserve replica: it
// answers /reach and /reach/batch from a pure function of the pair,
// serves /healthz with the epoch/vertices headers, and records every
// pair it answered — so router tests can assert both the answers and
// the routing without building a real index.
type fakeReplica struct {
	id       int
	vertices int

	mu         sync.Mutex
	served     [][2]int64 // every pair answered, in arrival order
	batchCalls int
	joinCalls  int

	edgeOps []string // "insert(3,17)" per accepted mutation
	edgeSeq uint64

	epoch      atomic.Uint64
	failHealth atomic.Bool // healthz → 503
	failReach  atomic.Bool // reach endpoints → 500
	failEdges  atomic.Bool // edges → 500
}

// ans is the ground truth every fake replica agrees on.
func fakeAnswer(s, t int64) bool { return (s*31+t)%3 == 0 }

func newFakeReplica(id, vertices int) *fakeReplica {
	f := &fakeReplica{id: id, vertices: vertices}
	f.epoch.Store(1)
	return f
}

func (f *fakeReplica) servedPairs() [][2]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][2]int64(nil), f.served...)
}

// fakeCount is the deterministic reachable-set size every fake
// replica agrees on: the row count of fakeAnswer over the ID space.
func (f *fakeReplica) fakeCount(s int64) int {
	c := 0
	for t := int64(0); t < int64(f.vertices); t++ {
		if fakeAnswer(s, t) {
			c++
		}
	}
	return c
}

func (f *fakeReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		if f.failHealth.Load() {
			http.Error(w, "injected unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("X-Reachlab-Vertices", strconv.Itoa(f.vertices))
		fmt.Fprintln(w, "ok")
	case r.Method == http.MethodGet && r.URL.Path == "/reach":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		s, err1 := strconv.ParseInt(r.URL.Query().Get("s"), 10, 64)
		t, err2 := strconv.ParseInt(r.URL.Query().Get("t"), 10, 64)
		if err1 != nil || err2 != nil || s < 0 || t < 0 || s >= int64(f.vertices) || t >= int64(f.vertices) {
			http.Error(w, "bad pair", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.served = append(f.served, [2]int64{s, t})
		f.mu.Unlock()
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"s":%d,"t":%d,"reachable":%v}`+"\n", s, t, fakeAnswer(s, t))
	case r.Method == http.MethodPost && r.URL.Path == "/reach/batch":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req struct {
			Pairs [][2]int64 `json:"pairs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(req.Pairs) > httpapi.MaxBatch {
			http.Error(w, "too many pairs", http.StatusRequestEntityTooLarge)
			return
		}
		for _, p := range req.Pairs {
			if p[0] < 0 || p[1] < 0 || p[0] >= int64(f.vertices) || p[1] >= int64(f.vertices) {
				http.Error(w, "bad pair", http.StatusBadRequest)
				return
			}
		}
		results := make([]bool, len(req.Pairs))
		f.mu.Lock()
		f.batchCalls++
		for i, p := range req.Pairs {
			f.served = append(f.served, p)
			results[i] = fakeAnswer(p[0], p[1])
		}
		f.mu.Unlock()
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/json")
		// The client may have hung up mid-test; a short write here is
		// its problem, not the fake replica's.
		_ = json.NewEncoder(w).Encode(map[string]any{"count": len(results), "results": results})
	case r.Method == http.MethodGet && r.URL.Path == "/reach/path":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		s, err1 := strconv.ParseInt(r.URL.Query().Get("s"), 10, 64)
		t, err2 := strconv.ParseInt(r.URL.Query().Get("t"), 10, 64)
		if err1 != nil || err2 != nil || s < 0 || t < 0 || s >= int64(f.vertices) || t >= int64(f.vertices) {
			http.Error(w, "bad pair", http.StatusBadRequest)
			return
		}
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/json")
		if fakeAnswer(s, t) {
			fmt.Fprintf(w, `{"s":%d,"t":%d,"reachable":true,"path":[%d,%d]}`+"\n", s, t, s, t)
		} else {
			fmt.Fprintf(w, `{"s":%d,"t":%d,"reachable":false}`+"\n", s, t)
		}
	case r.Method == http.MethodGet && r.URL.Path == "/reach/count":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		s, err := strconv.ParseInt(r.URL.Query().Get("s"), 10, 64)
		if err != nil || s < 0 || s >= int64(f.vertices) {
			http.Error(w, "bad source", http.StatusBadRequest)
			return
		}
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"s":%d,"count":%d}`+"\n", s, f.fakeCount(s))
	case r.Method == http.MethodPost && r.URL.Path == "/reach/from":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req struct {
			S       int64   `json:"s"`
			Targets []int64 `json:"targets"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.S < 0 || req.S >= int64(f.vertices) {
			http.Error(w, "bad source", http.StatusBadRequest)
			return
		}
		results := make([]bool, len(req.Targets))
		count := 0
		for i, t := range req.Targets {
			results[i] = fakeAnswer(req.S, t)
			if results[i] {
				count++
			}
		}
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"s": req.S, "count": count, "results": results})
	case r.Method == http.MethodPost && r.URL.Path == "/reach/join":
		if f.failReach.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req struct {
			Sources []int64 `json:"sources"`
			Targets []int64 `json:"targets"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, v := range append(append([]int64(nil), req.Sources...), req.Targets...) {
			if v < 0 || v >= int64(f.vertices) {
				http.Error(w, "bad vertex", http.StatusBadRequest)
				return
			}
		}
		// Mirror the real replica: dedup + sort both lists, stream the
		// reachable pairs in (s, t) order, end with the summary line.
		srcs := dedupSorted(req.Sources)
		tgts := dedupSorted(req.Targets)
		f.mu.Lock()
		f.joinCalls++
		f.mu.Unlock()
		w.Header().Set("X-Reachlab-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.Header().Set("Content-Type", "application/x-ndjson")
		count := 0
		for _, s := range srcs {
			for _, t := range tgts {
				if fakeAnswer(s, t) {
					count++
					fmt.Fprintf(w, `{"s":%d,"t":%d}`+"\n", s, t)
				}
			}
		}
		fmt.Fprintf(w, `{"done":true,"count":%d,"scanned":%d}`+"\n", count, len(srcs)*len(tgts))
	case r.Method == http.MethodPost && r.URL.Path == "/edges":
		if f.failEdges.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req struct {
			Op string `json:"op"`
			U  int64  `json:"u"`
			V  int64  `json:"v"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Op != "insert" && req.Op != "delete" {
			http.Error(w, "bad op", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.edgeSeq++
		seq := f.edgeSeq
		f.edgeOps = append(f.edgeOps, fmt.Sprintf("%s(%d,%d)", req.Op, req.U, req.V))
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"op":%q,"seq":%d,"epoch":%d}`+"\n", req.Op, seq, f.epoch.Load()+1)
	case r.Method == http.MethodPost && r.URL.Path == "/admin/reload":
		e := f.epoch.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"epoch":%d,"vertices":%d}`+"\n", e, f.vertices)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// testFleet spins up n fake replicas (optionally wrapped) and a
// started Fleet over them, probing at the pace of the test's clock.
func testFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, opt func(*Options)) ([]*fakeReplica, []*httptest.Server, *Fleet) {
	t.Helper()
	clk := clock.Fake(t)
	fakes, servers, f := startFleet(t, n, wrap, opt)
	pace(t, clk)
	return fakes, servers, f
}

// pace advances clk by checkInterval every 20 ms of real time until the
// test ends, so the health loop probes at a test's pace.
func pace(t *testing.T, clk *clock.Manual) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				clk.Advance(checkInterval)
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
}

// startFleet is testFleet on whatever clock the test has installed.
func startFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, opt func(*Options)) ([]*fakeReplica, []*httptest.Server, *Fleet) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	servers := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range fakes {
		fakes[i] = newFakeReplica(i, 100)
		var h http.Handler = fakes[i]
		if wrap != nil {
			h = wrap(i, h)
		}
		servers[i] = httptest.NewServer(h)
		t.Cleanup(servers[i].Close)
		addrs[i] = strings.TrimPrefix(servers[i].URL, "http://")
	}
	var opts Options
	if opt != nil {
		opt(&opts)
	}
	f, err := New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Close)
	return fakes, servers, f
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func stateOf(f *Fleet, addr string) string {
	for _, s := range f.Snapshot() {
		if s.Addr == addr {
			return s.State
		}
	}
	return "missing"
}

// --- batch over real HTTP: whole, to one replica -----------------

// TestBatchPassesThroughWhole: the router sends a batch whole —
// duplicates, caller order and all — to one replica, and relays that
// replica's answer verbatim. During a rolling reload the answer
// therefore carries the epoch it was served from: the answering
// replica's, never a mix and never none.
func TestBatchPassesThroughWhole(t *testing.T) {
	fakes, _, f := testFleet(t, 3, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	// A batch with duplicates and many sources.
	pairs := [][2]int64{
		{0, 7}, {1, 7}, {2, 7}, {0, 7}, {4, 1}, {5, 2}, {3, 9}, {1, 7}, {8, 8}, {0, 7},
	}
	raw, _ := json.Marshal(map[string]any{"pairs": pairs})
	// The rolling reload: replica k moves to epoch 2 before batch k, so
	// the first two batches meet a fleet at epochs 1 and 2.
	for k, fr := range fakes {
		fr.epoch.Store(2)
		before := make([]int, len(fakes))
		for i, fr := range fakes {
			before[i] = len(fr.servedPairs())
		}
		resp, err := http.Post(router.URL+"/reach/batch", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Count   int    `json:"count"`
			Results []bool `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("batch %d: status %d, %v", k, resp.StatusCode, err)
		}
		if body.Count != len(pairs) || len(body.Results) != len(pairs) {
			t.Fatalf("batch %d: answered %d/%d results for %d pairs", k, body.Count, len(body.Results), len(pairs))
		}
		for i, p := range pairs {
			if want := fakeAnswer(p[0], p[1]); body.Results[i] != want {
				t.Errorf("batch %d, pair %d %v: got %v, want %v", k, i, p, body.Results[i], want)
			}
		}
		answered := -1
		for i, fr := range fakes {
			served := fr.servedPairs()[before[i]:]
			if len(served) == 0 {
				continue
			}
			if answered >= 0 || !slices.Equal(served, pairs) {
				t.Fatalf("batch %d: replica %d served %v; want the whole batch at one replica", k, i, served)
			}
			answered = i
		}
		if answered < 0 {
			t.Fatalf("batch %d: no replica served it", k)
		}
		want := strconv.FormatUint(fakes[answered].epoch.Load(), 10)
		if e := resp.Header.Get("X-Reachlab-Epoch"); e != want {
			t.Errorf("batch %d over a rolling reload: epoch header %q, want replica %d's %q", k, e, answered, want)
		}
	}
}

// --- health flap: down, routed around, readmitted ------------------

// TestHealthFlapReadmission marks a replica down mid-traffic and
// brings it back: no query may fail at any point, traffic routes
// around the outage, and the replica serves again after readmission.
func TestHealthFlapReadmission(t *testing.T) {
	reg := obs.New()
	fakes, servers, f := testFleet(t, 2, nil, func(o *Options) { o.Obs = reg })
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 2 })
	router := httptest.NewServer(f)
	defer router.Close()
	flappyAddr := strings.TrimPrefix(servers[1].URL, "http://")

	// A replica that fails queries while it probes healthy: the one query
	// tried there first (ties go to list position) is retried at the
	// other, counted once in fleet_retries_total and charged to the
	// failing replica's errors column alone.
	fakes[0].failReach.Store(true)
	resp, err := http.Get(router.URL + "/reach?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fakes[0].failReach.Store(false)
	snap := f.Snapshot()
	if resp.StatusCode != http.StatusOK || reg.CounterValue("fleet_retries_total") != 1 || snap[0].Errors != 1 || snap[1].Errors != 0 {
		t.Fatalf("a query failed once: status %d, %d retries, errors %d and %d; want 200, 1, 1 and 0",
			resp.StatusCode, reg.CounterValue("fleet_retries_total"), snap[0].Errors, snap[1].Errors)
	}

	// Background query pressure for the whole flap cycle; every
	// response must be a correct 200.
	stop := make(chan struct{})
	var queryErrs atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, u := int64((w*13+i)%100), int64((w*7+i*3)%100)
				resp, err := http.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", router.URL, s, u))
				if err != nil {
					queryErrs.Add(1)
					continue
				}
				var body struct {
					Reachable bool `json:"reachable"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				sent.Add(1)
				if err != nil || resp.StatusCode != http.StatusOK || body.Reachable != fakeAnswer(s, u) {
					queryErrs.Add(1)
				}
			}
		}(w)
	}

	// Flap: replica 1 starts failing health checks (still answering
	// queries it already accepted — the probe is the signal).
	fakes[1].failHealth.Store(true)
	fakes[1].failReach.Store(true)
	waitFor(t, "replica marked down", func() bool { return stateOf(f, flappyAddr) == "down" })

	// Sustained traffic during the outage.
	base := sent.Load()
	waitFor(t, "traffic during outage", func() bool { return sent.Load() > base+50 })

	// Recovery and readmission.
	fakes[1].failHealth.Store(false)
	fakes[1].failReach.Store(false)
	waitFor(t, "replica readmitted", func() bool { return stateOf(f, flappyAddr) == "up" })

	// Traffic lands on the readmitted replica again.
	served := len(fakes[1].servedPairs())
	waitFor(t, "readmitted replica serving", func() bool { return len(fakes[1].servedPairs()) > served })

	close(stop)
	wg.Wait()
	if queryErrs.Load() != 0 {
		t.Fatalf("%d of %d queries failed across the flap", queryErrs.Load(), sent.Load())
	}
}

// TestFirstAdmissionAndReadmission: Start's synchronous probe admits
// every live replica, so the router serves before the first tick; a
// replica that was not live then is admitted by its first successful
// probe; a replica that has been up and failed needs upAfter of them;
// a dead address is never admitted. The health loop's clock is a fake
// nobody advances, so every round after Start's is one the test runs
// itself.
func TestFirstAdmissionAndReadmission(t *testing.T) {
	clock.Fake(t)
	live, late := newFakeReplica(0, 100), newFakeReplica(1, 100)
	late.failHealth.Store(true)
	var addrs []string
	for _, h := range []http.Handler{live, late, http.NotFoundHandler()} {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	f, err := New(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Close)
	states := func() string {
		return stateOf(f, addrs[0]) + " " + stateOf(f, addrs[1]) + " " + stateOf(f, addrs[2])
	}
	expect := func(when, want string) {
		t.Helper()
		if got := states(); got != want {
			t.Fatalf("%s: replicas are %s, want %s", when, got, want)
		}
	}
	expect("after Start", "up down down")
	router := httptest.NewServer(f)
	defer router.Close()
	resp, err := http.Get(router.URL + "/reach?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query right after Start: status %d", resp.StatusCode)
	}

	late.failHealth.Store(false)
	f.probeAll()
	expect("late replica's first successful probe", "up up down")

	live.failHealth.Store(true)
	f.probeAll()
	expect("one failed probe", "up up down")
	f.probeAll()
	expect("downAfter failed probes", "down up down")
	live.failHealth.Store(false)
	f.probeAll()
	expect("one success after a failure", "down up down")
	f.probeAll()
	expect("upAfter successes after a failure", "up up down")

	// A draining replica with work outstanding stays draining while it
	// answers and is drained once idle; one that fails downAfter probes
	// is down, drained or not.
	busy := f.replicas[1]
	busy.outstanding.Add(1)
	if err := f.Drain(addrs[1]); err != nil {
		t.Fatal(err)
	}
	f.probeAll()
	expect("draining with a request outstanding", "up draining down")
	busy.outstanding.Add(-1)
	f.probeAll()
	expect("draining and idle", "up drained down")
	if err := f.Readmit(addrs[1]); err != nil {
		t.Fatal(err)
	}
	f.probeAll()
	f.probeAll()
	expect("readmitted after upAfter probes", "up up down")
	busy.outstanding.Add(1)
	if err := f.Drain(addrs[1]); err != nil {
		t.Fatal(err)
	}
	late.failHealth.Store(true)
	f.probeAll()
	expect("draining, one failed probe", "up draining down")
	f.probeAll()
	expect("draining, downAfter failed probes", "up down down")
	busy.outstanding.Add(-1)
	if err := f.Drain(addrs[0]); err != nil {
		t.Fatal(err)
	}
	expect("an idle replica drained", "drained down down")
	if n := f.Snapshot()[2].Forwards; n != 0 {
		t.Errorf("the never-healthy address was sent %d requests", n)
	}
}

// TestNewRefusalsAndDefaults: a blank entry is skipped, and Mode is
// taken and ignored; a duplicate replica (in any spelling) and an
// empty list are refused.
func TestNewRefusalsAndDefaults(t *testing.T) {
	clk := clock.Fake(t) // no probe after Start's but this test's own
	for _, c := range []struct {
		addrs    []string
		mode     Mode
		replicas int
		err      string
	}{
		{[]string{"a:1", " ", "", "b:2"}, "", 2, ""},
		{[]string{"a:1", "b:2"}, Sharded, 2, ""},
		{[]string{"a:1", "http://a:1"}, "", 0, "duplicate replica a:1"},
		{[]string{" ", ""}, "", 0, "no replicas"},
		{nil, "", 0, "no replicas"},
	} {
		f, err := New(c.addrs, Options{Mode: c.mode})
		switch {
		case c.err == "" && err != nil:
			t.Errorf("New(%q, %q): %v", c.addrs, c.mode, err)
		case c.err == "" && f.NumReplicas() != c.replicas:
			t.Errorf("New(%q, %q) has %d replicas, want %d", c.addrs, c.mode, f.NumReplicas(), c.replicas)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("New(%q, %q) = %v, want an error naming %q", c.addrs, c.mode, err, c.err)
		}
	}
	// An address no URL can be made of is taken, never admitted, and
	// fails its row of a fan-out, which goes to every replica. Close
	// stops the health loop: two ticks after it probe nobody (a live
	// loop would have finished the first tick's probe by the time it
	// takes the second).
	reg := obs.New()
	f, err := New([]string{"bad%zz:1"}, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Close()
	clk.Advance(checkInterval)
	clk.Advance(checkInterval)
	if n := reg.CounterValue("fleet_probe_failures_total"); n != 1 {
		t.Errorf("%d failed probes after Start and Close, want Start's 1", n)
	}
	if s := f.Snapshot()[0].State; s != "down" {
		t.Errorf("replica bad%%zz:1 is %s after its probe, want down", s)
	}
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", strings.NewReader("{}")))
	if rec.Code != http.StatusBadGateway {
		t.Errorf("a reload over replica bad%%zz:1 answered %d, want 502", rec.Code)
	}
}

// --- drain: graceful removal, then mid-drain kill ------------------

func TestDrainAndMidDrainKill(t *testing.T) {
	fakes, servers, f := testFleet(t, 3, nil, nil)
	_ = fakes
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()
	drainAddr := strings.TrimPrefix(servers[2].URL, "http://")
	if resp, err := http.Get(router.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz with every replica up: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Every replica failing queries while it probes healthy: a query
	// spends its whole budget, attemptsPerReplica = 4 rounds of three
	// forwards with a backoff between rounds, and is answered 503.
	for _, fr := range fakes {
		fr.failReach.Store(true)
	}
	asked := time.Now()
	resp, err := http.Get(router.URL + "/reach?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(asked); took < (attemptsPerReplica-1)*retryBackoff {
		t.Errorf("a query every replica fails was answered after %v, under its %d backoffs of %v", took, attemptsPerReplica-1, retryBackoff)
	}
	for _, fr := range fakes {
		fr.failReach.Store(false)
	}
	spent := int64(0)
	for _, s := range f.Snapshot() {
		spent += s.Forwards
	}
	if resp.StatusCode != http.StatusServiceUnavailable || spent != 12 {
		t.Fatalf("a query every replica fails: status %d after %d forwards, want 503 after 12", resp.StatusCode, spent)
	}

	// Drain replica 2 via the admin endpoint.
	resp, err = http.Post(router.URL+"/admin/drain?replica="+drainAddr, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	waitFor(t, "replica drained", func() bool { return stateOf(f, drainAddr) == "drained" })

	// Queries keep flowing with the replica out, and none land on it.
	// One at a time, every replica is idle, and the tie goes to the
	// first in the list.
	before := len(fakes[2].servedPairs())
	for i := 0; i < 30; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", router.URL, i%100, (i*3)%100))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d with a drained replica", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if after := len(fakes[2].servedPairs()); after != before {
		t.Fatalf("drained replica served %d new queries", after-before)
	}
	if n0, n1 := len(fakes[0].servedPairs()), len(fakes[1].servedPairs()); n1 != 0 {
		t.Fatalf("idle replicas 0 and 1 served %d and %d queries; the first in the list should take them all", n0, n1)
	}

	// Naming a replica the pool does not have is a 404; readmitting one
	// that is up leaves it up.
	for _, verb := range []string{"drain", "readmit"} {
		resp, err := http.Post(router.URL+"/admin/"+verb+"?replica=127.0.0.1:1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s of an unknown replica: status %d, want 404", verb, resp.StatusCode)
		}
	}
	upAddr := strings.TrimPrefix(servers[0].URL, "http://")
	if err := f.Readmit(upAddr); err != nil || stateOf(f, upAddr) != "up" {
		t.Fatalf("readmitting an up replica: %v, state %s", err, stateOf(f, upAddr))
	}

	// Mid-drain kill: the drained replica dies outright; the fleet
	// marks it down instead of readmitting a corpse.
	servers[2].Close()
	if err := f.Readmit(drainAddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "killed replica stays down", func() bool { return stateOf(f, drainAddr) == "down" })
	for i := 0; i < 10; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/reach?s=%d&t=1", router.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d after mid-drain kill", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// With no replica up the router says so: 503 on /healthz and on a
	// query, once the query's retry rounds run out.
	for _, s := range servers[:2] {
		if err := f.Drain(strings.TrimPrefix(s.URL, "http://")); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/healthz", "/reach?s=1&t=2"} {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s with no replica up: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// --- chaos wrapper -------------------------------------------------

// TestChaosDeterministicSchedule: the same seed yields the same fault
// schedule over a sequential request stream.
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []int {
		inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		c := NewChaos(inner, ChaosOptions{Seed: seed, DropRate: 0.2, ErrorRate: 0.2, BurstLen: 2})
		srv := httptest.NewServer(c)
		defer srv.Close()
		var outcomes []int
		for i := 0; i < 60; i++ {
			resp, err := http.Get(srv.URL + "/x")
			switch {
			case err != nil:
				outcomes = append(outcomes, -1) // dropped
			case resp.StatusCode == http.StatusOK:
				resp.Body.Close()
				outcomes = append(outcomes, 0)
			default:
				resp.Body.Close()
				outcomes = append(outcomes, resp.StatusCode)
			}
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at request %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Each injected error opens a burst of BurstLen = 2 503s, so 503s
	// come in runs of even length (the schedule's last run may be cut).
	bursts := 0
	for i := 0; i < len(a); {
		j := i
		for j < len(a) && a[j] == http.StatusServiceUnavailable {
			j++
		}
		if j > i {
			bursts++
			if (j-i)%2 != 0 && j < len(a) {
				t.Fatalf("a run of %d 503s at request %d: %v", j-i, i, a)
			}
		}
		i = max(j, i+1)
	}
	if bursts == 0 {
		t.Fatalf("no 503 in %v", a)
	}
	// ExemptHealth spares the probe: at ErrorRate 1 a query fails and
	// /healthz still answers.
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	exempt := NewChaos(inner, ChaosOptions{ErrorRate: 1, ExemptHealth: true})
	for path, want := range map[string]int{"/healthz": http.StatusOK, "/x": http.StatusServiceUnavailable} {
		rec := httptest.NewRecorder()
		exempt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("GET %s under ExemptHealth at ErrorRate 1: %d, want %d", path, rec.Code, want)
		}
	}
	diff := run(8)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRouterAbsorbsChaos: with drops, delays, and 5xx bursts injected
// on every replica (health exempted so the replicas stay in
// rotation), the router's retries must still answer every query
// correctly — zero failures reach the client.
func TestRouterAbsorbsChaos(t *testing.T) {
	chaos := make([]*Chaos, 3)
	_, _, f := testFleet(t, 3, func(i int, h http.Handler) http.Handler {
		chaos[i] = NewChaos(h, ChaosOptions{
			Seed:         int64(100 + i),
			DropRate:     0.08,
			DelayRate:    0.10,
			Delay:        2 * time.Millisecond,
			ErrorRate:    0.05,
			BurstLen:     2,
			ExemptHealth: true,
		})
		return chaos[i]
	}, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	client := router.Client()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s, u := int64((w*17+i)%100), int64((w+i*5)%100)
				if i%2 == 0 {
					resp, err := client.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", router.URL, s, u))
					if err != nil {
						failures.Add(1)
						continue
					}
					var body struct {
						Reachable bool `json:"reachable"`
					}
					err = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || body.Reachable != fakeAnswer(s, u) {
						failures.Add(1)
					}
					continue
				}
				pairs := [][2]int64{{s, u}, {u, s}, {s, s}}
				raw, _ := json.Marshal(map[string]any{"pairs": pairs})
				resp, err := client.Post(router.URL+"/reach/batch", "application/json", strings.NewReader(string(raw)))
				if err != nil {
					failures.Add(1)
					continue
				}
				var body struct {
					Results []bool `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(body.Results) != len(pairs) {
					failures.Add(1)
					continue
				}
				for k, p := range pairs {
					if body.Results[k] != fakeAnswer(p[0], p[1]) {
						failures.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failures leaked through the router's retries", failures.Load())
	}
	var drops, fails int64
	for _, c := range chaos {
		d, _, e := c.Counts()
		drops += d
		fails += e
	}
	if drops+fails == 0 {
		t.Fatal("chaos injected nothing; the test proved nothing")
	}
}

// TestFleetStatsAndReloadFanout: /stats reports per-replica epochs;
// /admin/reload advances every replica and the outcome says so.
func TestFleetStatsAndReloadFanout(t *testing.T) {
	fakes, _, f := testFleet(t, 3, nil, nil)
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
	router := httptest.NewServer(f)
	defer router.Close()

	resp, err := http.Post(router.URL+"/admin/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var rr struct {
		Replicas []struct {
			Addr  string `json:"addr"`
			Epoch uint64 `json:"epoch"`
			Error string `json:"error"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Replicas) != 3 {
		t.Fatalf("reload reported %d replicas", len(rr.Replicas))
	}
	for _, r := range rr.Replicas {
		if r.Error != "" || r.Epoch != 2 {
			t.Errorf("replica %s: epoch %d, error %q", r.Addr, r.Epoch, r.Error)
		}
	}
	for i, fr := range fakes {
		if e := fr.epoch.Load(); e != 2 {
			t.Errorf("replica %d epoch %d after fleet reload, want 2", i, e)
		}
	}

	// /stats shows the new epochs once a probe lands (the reload
	// fan-out records them immediately).
	sresp, err := http.Get(router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Vertices int64 `json:"vertices"`
		Healthy  int   `json:"healthy"`
		Replicas []struct {
			Addr  string `json:"addr"`
			State string `json:"state"`
			Epoch uint64 `json:"epoch"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Vertices != 100 || stats.Healthy != 3 {
		t.Errorf("stats = %+v", stats)
	}
	for _, r := range stats.Replicas {
		if r.Epoch != 2 {
			t.Errorf("replica %s epoch %d in /stats, want 2", r.Addr, r.Epoch)
		}
	}
}

// --- /edges mutation fan-out ---------------------------------------

func postEdges(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

// TestFleetEdgesFanout: a mutation through the router lands on every
// replica (the replicated-WAL discipline), partial failure reports
// 502 with per-replica detail, and a validation error short-circuits
// as the replica's 4xx without spraying the pool.
func TestFleetEdgesFanout(t *testing.T) {
	// lastSays, when set, is the last replica's own answer to /edges.
	var lastSays atomic.Value
	fakes, _, f := testFleet(t, 3, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if say, _ := lastSays.Load().(func(http.ResponseWriter)); i == 2 && r.URL.Path == "/edges" && say != nil {
				say(w)
				return
			}
			h.ServeHTTP(w, r)
		})
	}, nil)
	router := httptest.NewServer(f)
	defer router.Close()

	resp, doc := postEdges(t, router.URL, `{"op":"insert","u":3,"v":17}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-out status %d: %v", resp.StatusCode, doc)
	}
	outcomes, _ := doc["replicas"].([]any)
	if len(outcomes) != 3 {
		t.Fatalf("outcomes for %d replicas, want 3: %v", len(outcomes), doc)
	}
	for _, fr := range fakes {
		fr.mu.Lock()
		got := append([]string(nil), fr.edgeOps...)
		fr.mu.Unlock()
		if len(got) != 1 || got[0] != "insert(3,17)" {
			t.Fatalf("replica %d saw %v, want [insert(3,17)]", fr.id, got)
		}
	}

	// One replica failing → 502, the healthy ones still got the write.
	fakes[2].failEdges.Store(true)
	resp, doc = postEdges(t, router.URL, `{"op":"delete","u":3,"v":17}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial failure status %d, want 502", resp.StatusCode)
	}
	failed := 0
	for _, o := range doc["replicas"].([]any) {
		if m, _ := o.(map[string]any); m["error"] != nil && m["error"] != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d replicas reported errors, want 1: %v", failed, doc)
	}
	for _, fr := range fakes[:2] {
		fr.mu.Lock()
		n := len(fr.edgeOps)
		fr.mu.Unlock()
		if n != 2 {
			t.Fatalf("healthy replica %d saw %d mutations, want 2", fr.id, n)
		}
	}
	fakes[2].failEdges.Store(false)

	// The last replica alone refuses the write, or answers 200 with a
	// body that is no outcome: 502, and its own row says which.
	for _, c := range []struct {
		say  func(http.ResponseWriter)
		want string
	}{
		{func(w http.ResponseWriter) { http.Error(w, "updates not enabled", http.StatusNotImplemented) }, "status 501: updates not enabled"},
		{func(w http.ResponseWriter) { fmt.Fprintln(w, "ok") }, "unreadable answer: ok"},
	} {
		lastSays.Store(c.say)
		resp, doc = postEdges(t, router.URL, `{"op":"insert","u":4,"v":9}`)
		rows, _ := doc["replicas"].([]any)
		if resp.StatusCode != http.StatusBadGateway || len(rows) != 3 {
			t.Fatalf("the last replica answering %q: status %d, %v; want 502 with 3 rows", c.want, resp.StatusCode, doc)
		}
		for i, o := range rows {
			want := ""
			if i == 2 {
				want = c.want
			}
			m, _ := o.(map[string]any)
			if got, _ := m["error"].(string); got != want {
				t.Errorf("the last replica answering %q: row %d is %v, want error %q", c.want, i, o, want)
			}
		}
	}
	lastSays.Store((func(http.ResponseWriter))(nil))

	// A malformed op is rejected deterministically: 400 straight back,
	// and no replica records it.
	before := make([]int, len(fakes))
	for i, fr := range fakes {
		fr.mu.Lock()
		before[i] = len(fr.edgeOps)
		fr.mu.Unlock()
	}
	resp, _ = postEdges(t, router.URL, `{"op":"upsert","u":1,"v":2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op status %d, want 400", resp.StatusCode)
	}
	for i, fr := range fakes {
		fr.mu.Lock()
		n := len(fr.edgeOps)
		fr.mu.Unlock()
		if n != before[i] {
			t.Fatalf("replica %d recorded the rejected mutation (%d → %d ops)", fr.id, before[i], n)
		}
	}
}

// --- verdict vs failure -------------------------------------------

// TestBatchRefusalRelayedVerbatim: a replica's 400 for an out-of-range
// pair is its verdict on the batch — it comes back through the router
// with the replica's own words, after one forward whichever Mode is
// set (it is ignored), and is charged to nobody: no retry, no replica
// error, no unavailable.
func TestBatchRefusalRelayedVerbatim(t *testing.T) {
	for _, mode := range []Mode{Replicated, Sharded} {
		t.Run(string(mode), func(t *testing.T) {
			reg := obs.New()
			_, _, f := testFleet(t, 3, nil, func(o *Options) { o.Mode, o.Obs = mode, reg })
			waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 3 })
			router := httptest.NewServer(f)
			defer router.Close()

			// Pair (1,2) is in range; (500,3) is not.
			resp, err := http.Post(router.URL+"/reach/batch", "application/json", strings.NewReader(`{"pairs":[[1,2],[500,3]]}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || string(body) != "bad pair\n" {
				t.Errorf("%s: refusal came back as %d %q, want the replica's 400 %q", mode, resp.StatusCode, body, "bad pair\n")
			}
			var forwards, errs int64
			for _, s := range f.Snapshot() {
				forwards += s.Forwards
				errs += s.Errors
			}
			if forwards != 1 || errs != 0 {
				t.Errorf("%s: %d forwards and %d replica errors, want 1 and 0", mode, forwards, errs)
			}
			if n := reg.CounterValue("fleet_unavailable_total") + reg.CounterValue("fleet_retries_total"); n != 0 {
				t.Errorf("%s: a refusal counted %d unavailable+retries", mode, n)
			}
			if n := reg.CounterValue(`fleet_http_errors_total{handler="batch"}`); n != 1 {
				t.Errorf("%s: fleet_http_errors_total{handler=\"batch\"} = %d, want 1", mode, n)
			}
		})
	}
}

// TestRouterTimesEveryRequest: the router's mux times every mounted
// request once, whatever its outcome — answers, relayed 400s and 413, a
// 404 from an admin verb and a join whose client went away — so per
// handler the latency histogram's count is the request counter's value.
func TestRouterTimesEveryRequest(t *testing.T) {
	reg := obs.New()
	_, servers, f := testFleet(t, 2, nil, func(o *Options) { o.Obs = reg })
	waitFor(t, "all replicas up", func() bool { return len(f.healthy()) == 2 })
	replica := strings.TrimPrefix(servers[0].URL, "http://")
	gone, hangUp := context.WithCancel(context.Background())
	hangUp()
	for _, c := range []struct {
		method, target, body string
		ctx                  context.Context
	}{
		{http.MethodGet, "/reach?s=1&t=6", "", nil},
		{http.MethodGet, "/reach?s=999&t=2", "", nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[[1,6],[2,1]]}`, nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[` + strings.TrimSuffix(strings.Repeat("[0,1],", httpapi.MaxBatch+1), ",") + `]}`, nil},
		{http.MethodPost, "/reach/batch", `{"pairs":[[1,`, nil},
		{http.MethodGet, "/reach/path?s=1&t=6", "", nil},
		{http.MethodGet, "/reach/count?s=1", "", nil},
		{http.MethodPost, "/reach/from", `{"s":1,"targets":[6,0]}`, nil},
		{http.MethodPost, "/reach/join", `{"sources":[1,2],"targets":[6]}`, nil},
		{http.MethodPost, "/reach/join", `{"sources":[1,2],"targets":[6]}`, gone},
		{http.MethodPost, "/admin/reload", ``, nil},
		{http.MethodPost, "/edges", `{"op":"insert","u":1,"v":2}`, nil},
		{http.MethodGet, "/stats", "", nil},
		{http.MethodPost, "/admin/drain?replica=" + replica, "", nil},
		{http.MethodPost, "/admin/readmit?replica=" + replica, "", nil},
		{http.MethodPost, "/admin/readmit?replica=nowhere:1", "", nil},
	} {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		if c.ctx != nil {
			req = req.WithContext(c.ctx)
		}
		f.ServeHTTP(httptest.NewRecorder(), req)
	}
	for _, e := range []string{"reach", "batch", "path", "count", "from", "join", "reload", "edges", "stats", "drain", "readmit"} {
		requests := reg.CounterValue(obs.Label("fleet_http_requests_total", "handler", e))
		timed := reg.Histogram(obs.Label("fleet_http_request_seconds", "handler", e), nil).Count()
		if requests == 0 || timed != requests {
			t.Errorf("%s: %d requests, %d timed; want every request timed once", e, requests, timed)
		}
	}
	for _, want := range []struct {
		name string
		n    int64
	}{
		{obs.Label("fleet_http_errors_total", "handler", "reach"), 1},
		{obs.Label("fleet_http_errors_total", "handler", "batch"), 2},
		{obs.Label("fleet_http_canceled_total", "handler", "join"), 1},
		{obs.Label("fleet_http_errors_total", "handler", "readmit"), 1},
	} {
		if got := reg.CounterValue(want.name); got != want.n {
			t.Errorf("%s = %d, want %d: the traffic is not the mix it means to be", want.name, got, want.n)
		}
	}
}

// --- replica epoch bookkeeping --------------------------------------

// TestStaleProbeDoesNotOverwriteReloadEpoch: a /healthz answered just
// before a reload's swap can land after the reload's answer. Epochs of
// a live process only rise, so the late, lower epoch is a stale answer
// and must not replace the reload's; a lower epoch from a probe issued
// after the stored observation is a restarted replica and is believed.
func TestStaleProbeDoesNotOverwriteReloadEpoch(t *testing.T) {
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	clock.Fake(t) // nobody advances it: every probe after Start's is the test's own
	fakes, _, f := startFleet(t, 1, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" || !hold.CompareAndSwap(true, false) {
				h.ServeHTTP(w, r)
				return
			}
			// Answer with the epoch as of now, deliver it after the reload.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			close(entered)
			<-release
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes()) // the prober hung up? its problem
		})
	}, nil)
	router := httptest.NewServer(f)
	defer router.Close()
	epoch := func() uint64 { return f.Snapshot()[0].Epoch }
	if epoch() != 1 {
		t.Fatalf("start-up probe recorded epoch %d, want 1", epoch())
	}

	hold.Store(true)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		f.probeAll()
	}()
	<-entered
	resp, err := http.Post(router.URL+"/admin/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || epoch() != 2 {
		t.Fatalf("reload: status %d, router sees epoch %d, want 200 and 2", resp.StatusCode, epoch())
	}
	close(release)
	<-probed
	if epoch() != 2 {
		t.Errorf("the probe answered before the reload overwrote its epoch: router sees %d, want 2", epoch())
	}

	// A live replica reaches epoch 7, then restarts and serves epoch 1.
	fakes[0].epoch.Store(7)
	f.probeAll()
	if epoch() != 7 {
		t.Fatalf("router sees epoch %d, want 7", epoch())
	}
	fakes[0].epoch.Store(1)
	f.probeAll()
	if epoch() != 1 {
		t.Errorf("restarted replica: router still sees epoch %d, want 1", epoch())
	}

	// An answer repeating the epoch believed completes a newer
	// observation of it, however old its request: a lower epoch is then
	// stale unless its request was issued after that answer landed.
	r := f.replicas[0]
	r.observeEpoch(5, time.Now())
	time.Sleep(time.Millisecond)
	mid := time.Now()
	time.Sleep(time.Millisecond)
	r.observeEpoch(5, time.Time{})
	r.observeEpoch(3, mid)
	if epoch() != 5 {
		t.Errorf("an epoch asked for before the last answer of the one believed replaced it: router sees %d, want 5", epoch())
	}
}

// --- a client that hangs up ----------------------------------------

// TestClientHangUpChargedToNobody: when the client of a read goes away,
// the forwards made for it are abandoned — each replica asked sees its
// own request cancelled instead of working on for proxyTimeout — and
// the abandonment is the client's doing: one forward to the one replica
// asked, no error charged to any, no retry, no 503/502 counted; the
// request counts once in fleet_http_canceled_total.
func TestClientHangUpChargedToNobody(t *testing.T) {
	for _, c := range []struct {
		name, label, method, path, body string
	}{
		{"pass-through", "reach", http.MethodGet, "/reach?s=4&t=7", ""},
		{"batch", "batch", http.MethodPost, "/reach/batch", `{"pairs":[[4,7],[5,9]]}`},
		{"join", "join", http.MethodPost, "/reach/join", `{"sources":[4,5],"targets":[7,9]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			started, released := make(chan struct{}, 1), make(chan struct{}, 1)
			// A replica that never answers: it works until its request is cancelled.
			stuck := func(_ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/healthz" {
						h.ServeHTTP(w, r)
						return
					}
					// Body first, as a replica decodes it: net/http watches for
					// the peer's hang-up only once the body has been read.
					io.Copy(io.Discard, r.Body) //nolint:errcheck
					started <- struct{}{}
					<-r.Context().Done()
					released <- struct{}{}
				})
			}
			reg := obs.New()
			_, _, f := testFleet(t, 2, stuck, func(o *Options) { o.Obs = reg })
			router := httptest.NewServer(f)
			defer router.Close()

			ctx, hangUp := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, c.method, router.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			failed := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				failed <- err
			}()
			<-started
			hangUp()
			if err := <-failed; err == nil {
				t.Fatal("the abandoned request was answered")
			}
			select {
			case <-released:
			case <-time.After(5 * time.Second):
				t.Fatal("a replica is still working for a client that hung up")
			}
			canceled := obs.Label("fleet_http_canceled_total", "handler", c.label)
			waitFor(t, "the router to drop the request", func() bool { return reg.CounterValue(canceled) == 1 })
			forwards := int64(0)
			for _, s := range f.Snapshot() {
				forwards += s.Forwards
				if s.Errors != 0 || s.Forwards > 1 {
					t.Errorf("replica %s: %d forwards, %d errors charged; want at most 1 and 0", s.Addr, s.Forwards, s.Errors)
				}
			}
			if forwards != 1 {
				t.Errorf("%d forwards in all, want 1", forwards)
			}
			for _, name := range []string{"fleet_retries_total", "fleet_unavailable_total",
				obs.Label("fleet_http_errors_total", "handler", c.label)} {
				if v := reg.CounterValue(name); v != 0 {
					t.Errorf("%s = %d after a hang-up, want 0", name, v)
				}
			}
		})
	}
}

// TestFanOutSurvivesClientHangUp: a write is asked of every replica
// even when its client goes away after the first was asked — fan-out is
// detached from the inbound request, so a hang-up cannot leave the
// replicas holding different logs.
func TestFanOutSurvivesClientHangUp(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	slowFirst := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 && r.URL.Path == "/edges" {
				close(started)
				<-release
			}
			h.ServeHTTP(w, r)
		})
	}
	fakes, _, f := testFleet(t, 3, slowFirst, nil)
	router := httptest.NewServer(f)
	defer router.Close()

	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, router.URL+"/edges", strings.NewReader(`{"op":"insert","u":3,"v":17}`))
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		failed <- err
	}()
	<-started
	hangUp()
	if err := <-failed; err == nil {
		t.Fatal("the abandoned write was answered")
	}
	close(release)
	waitFor(t, "the write to land on every replica", func() bool {
		for _, fr := range fakes {
			fr.mu.Lock()
			n := len(fr.edgeOps)
			fr.mu.Unlock()
			if n != 1 {
				return false
			}
		}
		return true
	})
	for _, s := range f.Snapshot() {
		if s.Errors != 0 {
			t.Errorf("replica %s charged %d errors for a client's hang-up", s.Addr, s.Errors)
		}
	}
}
