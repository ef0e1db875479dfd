package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	reachlab "repro"
	"repro/internal/drl"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/qcache"
	"repro/internal/tol"
	"repro/internal/wal"
)

// The traced run. Spans inside the program are a later change, so the
// ledger times the calls into each layer's public functions from
// outside, one goroutine, and builds nesting differentially: the same
// requests go through every depth of the serving stack —
//
//	label.Index → reachlab.Index → QueryHandler → loopback HTTP → Fleet
//
// — one span per request per depth, the request's index as their
// shared identifier, and a layer's self time is its depth's time minus
// the next depth's. Build-side layers are timed call by call. Every
// figure is a median over repeats; counts are exact.

// span is one timed call. Spans of one request share Req (its index in
// the request set, from 1); Parent is the enclosing pass or section.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Switched off it
// records nothing, which is how trace.overhead_pct is measured.
type tracer struct {
	epoch time.Time
	spans []span
	off   bool
}

func (t *tracer) open(name string, parent, req int64) int64 {
	if t.off {
		return 0
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return int64(len(t.spans))
}

func (t *tracer) close(id int64) {
	if id > 0 {
		t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
	}
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger is one traced run in progress.
type ledger struct {
	cfg     *config
	tr      *tracer
	section int64 // the open section span
	repeats int
	metrics map[string]metric
	// updateWindow is the update-mix window updateSide ran.
	updateWindow window
	tally
}

func (l *ledger) set(name string, value float64, unit string) {
	l.metrics[name] = metric{value, unit}
}

// timed runs f once under a span and returns its seconds.
func (l *ledger) timed(name string, f func() error) (float64, error) {
	id := l.tr.open(name, l.section, 0)
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	l.tr.close(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// medianOf is the median seconds of reps runs of f.
func (l *ledger) medianOf(name string, reps int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := l.timed(name, f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// pass sends requests 0..n-1 through call once, a span around each,
// and returns the seconds the whole pass took.
func (l *ledger) pass(name string, n int, call func(i int)) float64 {
	root := l.tr.open("pass:"+name, l.section, 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		id := l.tr.open(name, root, int64(i+1))
		call(i)
		l.tr.close(id)
	}
	d := time.Since(start).Seconds()
	l.tr.close(root)
	return d
}

// depth is one way of sending a request set through the stack.
type depth struct {
	name string
	call func(i int)
}

// interleave passes n requests through every depth in turn, l.repeats
// rounds after one unrecorded warming round, and returns each depth's
// pass times by round. Depths are compared round by round (medianDiff),
// so drift in the host's speed, which on this machine moves a
// memory-bound loop by ±15% over tens of seconds, cancels instead of
// landing on whichever depth ran during the slow stretch.
func (l *ledger) interleave(n int, depths []depth) [][]float64 {
	for _, d := range depths {
		for i := 0; i < n; i++ {
			d.call(i)
		}
	}
	times := make([][]float64, len(depths))
	for r := 0; r < l.repeats; r++ {
		// Re-warm for the first depth what the last one pushed out of
		// the processor's caches, or it alone would pay for that.
		for i := 0; i < n; i++ {
			depths[0].call(i)
		}
		for k, d := range depths {
			times[k] = append(times[k], l.pass(d.name, n, d.call))
		}
	}
	return times
}

// medianDiff is the median of a[r] − b[r] over the rounds, or 0 when
// that is negative: a deeper pass cannot take less than the shallower
// one it contains, so a negative difference says only that the layer's
// self time is below what the rounds can resolve.
func medianDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for r := range a {
		d[r] = a[r] - b[r]
	}
	return max(0, median(d))
}

// allocs is the mallocs and bytes per call of one more pass, tracing
// aside: the whole process's, which on this one goroutine (plus the
// servers it is waiting for) is the cost of the calls.
func allocs(n int, call func(i int)) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func (l *ledger) begin(name string) { l.section = l.tr.open("section:"+name, 0, 0) }
func (l *ledger) end()              { l.tr.close(l.section); l.section = 0 }

// runTraced is one --trace 1 process: every layer's metrics for each
// of workloads. The build side and the update side do not depend on
// the workload and are measured once; the serving side runs on each
// workload's own request stream. All spans go to one file.
func runTraced(cfg *config, workloads []string, spanPath string) ([]*report, error) {
	l := &ledger{cfg: cfg, tr: &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}, repeats: 7, metrics: map[string]metric{}}
	if cfg.smoke {
		l.repeats = 1
	}
	if err := l.buildSide(); err != nil {
		return nil, err
	}
	if err := l.updateSide(); err != nil {
		return nil, err
	}
	shared := l.tally
	var reps []*report
	for _, workload := range workloads {
		l.tally = shared
		if err := l.servingSide(workload); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		if err := l.windowSide(workload); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		rep := &report{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
		for _, m := range perLayer {
			v, ok := l.metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("the ledger did not measure %s", m.name)
			}
			rep.Metrics[m.name] = v
		}
		printMetrics(cfg.out, workload, "per-layer", rep.Metrics)
		fmt.Fprintf(cfg.out, "%s: %d operations attempted, %d failed\n", workload, l.attempted, l.failed)
		for _, n := range l.notes {
			fmt.Fprintf(cfg.out, "%s: FAILED: %s\n", workload, n)
		}
		reps = append(reps, rep)
	}
	if spanPath == "" {
		spanPath = filepath.Join(cfg.tmp, "spans.jsonl")
	}
	if err := l.tr.writeFile(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "%d spans written to %s\n", len(l.tr.spans), spanPath)
	return reps, nil
}

// buildSide times generate → CSR → save → load → order → label (serial,
// budgeted, shared-memory, distributed) → freeze → write → read, each
// through the layer's own package.
func (l *ledger) buildSide() error {
	cfg := l.cfg
	l.begin("build")
	defer l.end()
	params := gen.Params{Family: "citation", N: cfg.vertices, AvgDegree: 4, Seed: graphSeed}
	const reps = 3

	var g *graph.Digraph
	s, err := l.medianOf("gen.Generate", reps, func() (err error) { g, err = gen.Generate(params); return err })
	if err != nil {
		return err
	}
	l.set("gen.seconds", s, "s")

	edges, err := gen.Edges(params)
	if err != nil {
		return err
	}
	s, _ = l.medianOf("graph.FromEdges", reps, func() error { graph.FromEdges(cfg.vertices, edges); return nil })
	l.set("graph.csr_seconds", s, "s")

	path := filepath.Join(cfg.tmp, "ledger.graph")
	defer os.Remove(path)
	if s, err = l.medianOf("graph.SaveFile", reps, func() error { return graph.SaveFile(path, g, true) }); err != nil {
		return err
	}
	l.set("graph.save_seconds", s, "s")
	if s, err = l.medianOf("graph.LoadFile", reps, func() error { _, err := graph.LoadFile(path); return err }); err != nil {
		return err
	}
	l.set("graph.load_seconds", s, "s")

	var ord *order.Ordering
	s, _ = l.medianOf("order.Compute", reps, func() error { ord = order.Compute(g); return nil })
	l.set("order.seconds", s, "s")

	// The serial and the distributed builder run on a quarter-size
	// graph: at full size they take 3 s and 17 s, which a traced run
	// cannot afford, and nothing gated depends on them.
	small := params
	small.N = cfg.vertices / 4
	gs, err := gen.Generate(small)
	if err != nil {
		return err
	}
	s, _ = l.timed("tol.Build", func() error { tol.Build(gs, order.Compute(gs)); return nil })
	l.set("tol.build_seconds", s, "s")

	var bud *label.Budgeted
	if s, err = l.timed("tol.BuildBudgeted", func() (err error) {
		bud, err = tol.BuildBudgeted(g, ord, labelBudget, nil)
		return err
	}); err != nil {
		return err
	}
	l.set("tol.budgeted_seconds", s, "s")
	_, overflowedOut := bud.Overflowed()
	l.set("tol.overflowed_out", float64(overflowedOut), "count")

	var idx *label.Index
	if s, err = l.medianOf("drl.BuildBatch", 2, func() (err error) {
		idx, err = drl.BuildBatch(g, ord, drl.DefaultBatchParams(), drl.Options{Workers: 2})
		return err
	}); err != nil {
		return err
	}
	l.set("drl.shared_seconds", s, "s")

	rgs, err := reachlab.GenerateGraph("citation", small.N, 4, graphSeed)
	if err != nil {
		return err
	}
	var dist *reachlab.Index
	if _, err = l.timed("reachlab.Build(dist)", func() (err error) {
		dist, err = reachlab.Build(context.Background(), rgs, reachlab.Options{})
		return err
	}); err != nil {
		return err
	}
	st := dist.BuildStats()
	l.set("drl.dist_compute_seconds", st.Compute.Seconds(), "s")
	l.set("pregel.comm_seconds", st.Communication.Seconds(), "s")
	l.set("pregel.supersteps", float64(st.Supersteps), "count")
	l.set("pregel.messages", float64(st.Messages), "count")
	l.set("pregel.bytes_remote", float64(st.BytesRemote), "bytes")

	lists := idx.Thaw()
	s, _ = l.medianOf("label.Freeze", reps, func() error { lists.Freeze(); return nil })
	l.set("label.freeze_seconds", s, "s")
	ipath := filepath.Join(cfg.tmp, "ledger.idx")
	defer os.Remove(ipath)
	var writes []float64
	for r := 0; r < reps; r++ {
		// A new file each time, as drlabel writes one: overwriting in
		// place took several times longer on the reference host.
		if err := os.Remove(ipath); err != nil && !os.IsNotExist(err) {
			return err
		}
		if s, err = l.timed("label.WriteTo", func() error {
			f, err := os.Create(ipath)
			if err != nil {
				return err
			}
			if _, err := idx.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}); err != nil {
			return err
		}
		writes = append(writes, s)
	}
	s = median(writes)
	l.set("label.write_seconds", s, "s")
	if s, err = l.medianOf("label.Read", reps, func() error {
		f, err := os.Open(ipath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = label.Read(f)
		return err
	}); err != nil {
		return err
	}
	l.set("label.read_seconds", s, "s")
	l.set("label.entries", float64(idx.Entries()), "count")

	// The merge kernel alone, on the paper's two kinds of pair.
	rng := subSeed(cfg.seed, streamLedger)
	rg, err := reachlab.GenerateGraph("citation", cfg.vertices, 4, graphSeed)
	if err != nil {
		return err
	}
	count := cfg.pool
	uni, walk := uniformPairs(rng, cfg.vertices, count), walkPairs(rng, rg, count)
	perPair := func(name string, pairs []reachlab.Pair, reach func(s, t reachlab.VertexID) bool) float64 {
		chunks := len(pairs) / batchSize
		s := l.interleave(chunks, []depth{{name, func(i int) {
			for _, p := range pairs[i*batchSize : (i+1)*batchSize] {
				reach(p.S, p.T)
			}
		}}})
		return median(s[0]) * 1e9 / float64(chunks*batchSize)
	}
	l.set("label.ns_per_pair", perPair("label.Reachable", uni, idx.Reachable), "ns")
	l.set("label.ns_per_pair_reachable", perPair("label.Reachable", walk, idx.Reachable), "ns")
	l.set("label.budgeted_ns_per_pair", perPair("label.Budgeted.Reachable", uni, bud.Reachable), "ns")
	var scanned int
	for _, p := range uni {
		scanned += len(idx.OutLabels(p.S)) + len(idx.InLabels(p.T))
	}
	l.set("label.entries_per_pair", float64(scanned)/float64(len(uni)), "count")

	for _, p := range slices.Concat(uni[:min(200, count)], walk[:min(200, count)]) {
		l.attempted++
		if got, want := idx.Reachable(p.S, p.T), graph.Reachable(g, p.S, p.T); got != want {
			l.fail("ledger index: Reachable(%d,%d) = %v, BFS says %v", p.S, p.T, got, want)
		}
		if got, want := bud.Reachable(p.S, p.T), graph.Reachable(g, p.S, p.T); got != want {
			l.fail("ledger budgeted index: Reachable(%d,%d) = %v, BFS says %v", p.S, p.T, got, want)
		}
	}

	// qcache alone: one Put and one Get per distinct pair.
	cache := qcache.New(cachePairs, cacheShards)
	qc := l.interleave(len(uni)/batchSize, []depth{
		{"qcache.Put", func(i int) {
			for _, p := range uni[i*batchSize : (i+1)*batchSize] {
				cache.Put(int32(p.S), int32(p.T), false)
			}
		}},
		{"qcache.Get", func(i int) {
			for _, p := range uni[i*batchSize : (i+1)*batchSize] {
				cache.Get(int32(p.S), int32(p.T))
			}
		}},
	})
	l.set("qcache.put_ns", median(qc[0])*1e9/float64(len(uni)/batchSize*batchSize), "ns")
	l.set("qcache.get_ns", median(qc[1])*1e9/float64(len(uni)/batchSize*batchSize), "ns")
	return nil
}

// ledgerRequests is how many of the workload's requests — the head of
// its first client's stream — go through each depth.
const ledgerRequests = 4096

// recorder is the http.ResponseWriter of the no-sockets depth.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) reset() {
	clear(r.header)
	r.body.Reset()
	r.status = 200
}

// jsonBody is the body of a pre-encoded request.
func jsonBody(raw []byte) []byte {
	return raw[bytes.Index(raw, []byte("\r\n\r\n"))+4:]
}

// replayBody is a request body that can be rewound between passes.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// servingSide pushes the workload's requests through each depth of
// the serving stack.
func (l *ledger) servingSide(workload string) error {
	cfg := l.cfg
	l.begin("serve")
	defer l.end()
	sys, err := setUp(cfg, routerZipf) // two cached replicas behind a router: every depth at once
	if err != nil {
		return err
	}
	defer sys.stop()
	q := traffic(cfg, workload, sys.g, 0, min(ledgerRequests, cfg.pool)).encode()
	q.check = nil // a static system: every bit is checked, whatever the workload
	q.expect(sys.idx.Reachable)
	n := q.len()
	pairs := float64(n * batchSize)
	lidx := sys.idx.LabelIndex()
	slice := q.batch

	// Depths 1 to 3 need no sockets. The handler depth uses uncached
	// replicas so that nesting is strict (every pair reaches the
	// index): one with the metrics registry drserve attaches, one
	// without. The cached replica, as deployed, is the depth the socket
	// depths are compared with.
	reqs := make([]*http.Request, n)
	bodies := make([]*replayBody, n)
	var reqBytes, respBytes int
	for i := range reqs {
		bodies[i] = &replayBody{}
		r, err := http.NewRequest("POST", "http://bench/reach/batch", bodies[i])
		if err != nil {
			return err
		}
		r.ContentLength = int64(len(jsonBody(q.raw[i])))
		r.Header.Set("Content-Type", "application/json")
		reqs[i] = r
		reqBytes += len(jsonBody(q.raw[i]))
	}
	rec := &recorder{header: http.Header{}}
	through := func(h http.Handler) func(i int) {
		return func(i int) {
			bodies[i].Reset(jsonBody(q.raw[i]))
			reqs[i].Body = bodies[i]
			rec.reset()
			h.ServeHTTP(rec, reqs[i])
			l.attempted++
			respBytes += rec.body.Len()
			if msg := q.mismatch(i, rec.status, rec.body.Bytes()); msg != "" {
				l.fail("handler %s", msg)
			}
		}
	}
	plain := reachlab.NewQueryHandlerOpts(sys.idx, reachlab.ServeOptions{Obs: reachlab.NewMetricsRegistry()})
	quiet := reachlab.NewQueryHandlerOpts(sys.idx, reachlab.ServeOptions{})
	cached := sys.replicas[0]

	for i := 0; i < n; i++ {
		through(cached)(i)
	}
	l.set("http.req_body_bytes", float64(reqBytes)/float64(n), "bytes")
	l.set("http.resp_body_bytes", float64(respBytes)/float64(n), "bytes")

	batchCall := func(i int) { sys.idx.ReachableBatch(slice(i)) }
	inProc := l.interleave(n, []depth{
		{"label", func(i int) {
			for _, p := range slice(i) {
				lidx.Reachable(p.S, p.T)
			}
		}},
		{"reachlab", func(i int) {
			for _, p := range slice(i) {
				sys.idx.Reachable(p.S, p.T)
			}
		}},
		{"label.batch", func(i int) { lidx.ReachableBatch(slice(i)) }},
		{"reachlab.batch", batchCall},
		{"server", through(plain)},
		{"server.noobs", through(quiet)},
	})
	labelS, reachS, labelBatchS, reachBatchS, serverS, quietS := inProc[0], inProc[1], inProc[2], inProc[3], inProc[4], inProc[5]
	l.set("label.batch_ns_per_pair", median(labelBatchS)*1e9/pairs, "ns")
	l.set("reachlab.ns_per_pair", medianDiff(reachS, labelS)*1e9/pairs, "ns")
	l.set("reachlab.batch16_ns_per_pair", medianDiff(reachBatchS, labelBatchS)*1e9/pairs, "ns")
	l.set("server.ns_per_pair", medianDiff(serverS, reachBatchS)*1e9/pairs, "ns")
	l.set("server.obs_ns_per_req", medianDiff(serverS, quietS)*1e9/float64(n), "ns")
	m, _ := allocs(n, batchCall)
	l.set("reachlab.batch16_allocs", m, "count")
	m, b := allocs(n, through(plain))
	l.set("server.allocs_per_req", m, "count")
	l.set("server.bytes_per_req", b, "bytes")

	swap := reachlab.NewQueryHandlerOpts(sys.idx, reachlab.ServeOptions{CachePairs: cachePairs, CacheShards: cacheShards})
	s, _ := l.medianOf("QueryHandler.Swap", l.repeats, func() error { swap.Swap(sys.idx); return nil })
	l.set("server.swap_us", s*1e6, "us")

	// Depths 4 and 5: the cached replica over a loopback socket, with
	// the load generator's own client, and then through the router,
	// which splits each batch by shard.
	direct, err := sys.serve(cached)
	if err != nil {
		return err
	}
	c, err := dial(direct)
	if err != nil {
		return err
	}
	defer c.close()
	rc, err := dial(sys.addr)
	if err != nil {
		return err
	}
	defer rc.close()
	var lat []float64
	over := func(c *conn, keep bool) func(i int) {
		return func(i int) {
			t0 := time.Now()
			res, err := c.do(q.raw[i])
			if keep {
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			l.attempted++
			if err != nil {
				l.fail("request %d: %v", i, err)
				return
			}
			if msg := q.mismatch(i, res.status, res.body); msg != "" {
				l.fail("%s", msg)
			}
		}
	}
	socket := l.interleave(n, []depth{
		{"server.cached", through(cached)},
		{"http", over(c, true)},
		{"fleet", over(rc, false)},
	})
	l.set("http.ns_per_pair", medianDiff(socket[1], socket[0])*1e9/pairs, "ns")
	l.set("fleet.ns_per_pair", medianDiff(socket[2], socket[1])*1e9/pairs, "ns")
	sort.Float64s(lat)
	l.set("loadgen.req_p99_us", lat[len(lat)*99/100], "us")
	stubNs, err := stubNsPerReq(q, n)
	if err != nil {
		return err
	}
	l.set("loadgen.stub_ns_per_req", stubNs, "ns")

	const batchCounter = `reachlab_http_requests_total{handler="batch"}`
	directMallocs, _ := allocs(n, over(c, false))
	sub0 := sys.reg.CounterValue(batchCounter)
	routedMallocs, _ := allocs(n, over(rc, false))
	l.set("fleet.subrequests_per_req", float64(sys.reg.CounterValue(batchCounter)-sub0)/float64(n), "count")
	l.set("fleet.allocs_per_req", routedMallocs-directMallocs, "count")
	l.set("fleet.retries", float64(sys.reg.CounterValue("fleet_retries_total")), "count")

	// Tracing overhead: the socket depth with the tracer on and off in
	// alternation, as the median of the paired differences.
	var on, off []float64
	for r := 0; r < 2*l.repeats; r++ {
		l.tr.off = r%4 == 1 || r%4 == 2 // on off off on …, so neither always goes first
		s := l.pass("http", n, over(c, false))
		if l.tr.off {
			off = append(off, s)
		} else {
			on = append(on, s)
		}
	}
	l.tr.off = false
	l.set("trace.overhead_pct", 100*medianDiff(on, off)/median(off), "%")
	return nil
}

// windowSide runs the workload's own window as an end-to-end run does,
// tracing off, for a quarter of --seconds: the timings a user sees,
// which carry no bound and are therefore reported per layer.
func (l *ledger) windowSide(workload string) error {
	win := l.updateWindow
	if workload != updateMix {
		sys, err := setUp(l.cfg, workload)
		if err != nil {
			return err
		}
		defer sys.stop()
		id := l.tr.open("window:"+workload, 0, 0)
		win, err = measureWindow(l.cfg, workload, sys, shortPlan(l.cfg))
		l.tr.close(id)
		if err != nil {
			return err
		}
		l.add(win.tally)
	}
	for name, m := range win.timings() {
		l.metrics[name] = m
	}
	// The share of pair lookups the replicas' caches answered during
	// that window, from their own counters: 0 where no cache is on the
	// path (paper-citation) or every epoch replaces it (update-mix).
	l.set("qcache.hit_rate", win.hitRate, "ratio")
	return nil
}

// updateSide times the write path piece by piece — log append,
// dynamic repair, whole-index re-freeze — then runs a short
// replica-update-mix window for what only shows under traffic.
func (l *ledger) updateSide() error {
	cfg := l.cfg
	l.begin("update")
	defer l.end()
	rg, err := reachlab.GenerateGraph("citation", cfg.vertices, 4, graphSeed)
	if err != nil {
		return err
	}
	edges := writerEdges(subSeed(cfg.seed, streamWriter), rg, writeWindow, 100)

	path := filepath.Join(cfg.tmp, "ledger.wal")
	defer os.Remove(path)
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	var appendS []float64
	for _, e := range edges {
		s, err := l.timed("wal.Append", func() error { _, err := log.Append(wal.OpInsert, e[0], e[1]); return err })
		if err != nil {
			log.Close()
			return err
		}
		appendS = append(appendS, s)
	}
	if err := log.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.set("wal.append_us", median(appendS)*1e6, "us")
	l.set("wal.bytes_per_record", float64(fi.Size())/float64(len(edges)), "bytes")

	dyn, err := reachlab.NewDynamicIndex(rg)
	if err != nil {
		return err
	}
	var insertS, deleteS []float64
	for _, e := range edges {
		s, err := l.timed("DynamicIndex.InsertEdge", func() error { return dyn.InsertEdge(e[0], e[1]) })
		if err != nil {
			return err
		}
		insertS = append(insertS, s)
		if s, err = l.timed("DynamicIndex.DeleteEdge", func() error { return dyn.DeleteEdge(e[0], e[1]) }); err != nil {
			return err
		}
		deleteS = append(deleteS, s)
	}
	l.set("dynamic.insert_us", median(insertS)*1e6, "us")
	l.set("dynamic.delete_us", median(deleteS)*1e6, "us")
	s, _ := l.medianOf("DynamicIndex.Snapshot", 3, func() error { dyn.Snapshot(); return nil })
	l.set("dynamic.snapshot_ms", s*1e3, "ms")

	sys, err := setUp(cfg, updateMix)
	if err != nil {
		return err
	}
	defer sys.stop()
	id := l.tr.open("window:"+updateMix, l.section, 0)
	win, err := measureWindow(cfg, updateMix, sys, shortPlan(cfg))
	l.tr.close(id)
	if err != nil {
		return err
	}
	l.add(win.tally)
	l.updateWindow = win
	us := sys.updater.Stats()
	l.set("updater.refreshes", float64(us.Refreshes), "count")
	l.set("updater.repairs", float64(us.Repairs), "count")
	l.set("updater.rebuilds", float64(us.Rebuilds), "count")
	l.set("updater.refresh_mean_ms", refreshMeanMs(sys.reg), "ms")
	l.set("updater.write_ack_p50_ms", win.writes.ackP50Ms, "ms")
	l.set("updater.write_visible_p50_ms", win.writes.visibleP50Ms, "ms")
	l.set("loadgen.updates_per_s", win.writes.updatesPerS, "1/s")
	l.set("loadgen.late_writes", float64(win.writes.late), "count")
	return nil
}

// refreshMeanMs reads the mean of the updater's refresh-duration
// histogram.
func refreshMeanMs(reg *reachlab.MetricsRegistry) float64 {
	h := reg.Histogram("reachlab_refresh_seconds", nil)
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count()) * 1e3
}
