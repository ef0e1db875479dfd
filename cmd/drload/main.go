// Command drload is the verifying load client of the query serving
// layer: N concurrent clients firing zipfian (s, t) pair traffic at a
// live drserve or drrouter, every answer optionally checked against a
// local copy of the index, with achieved QPS and latency percentiles
// printed for the operator. It is what the smoke scripts gate on;
// performance claims are measured with benchmark/run.sh instead.
//
//	# Hammer a live drserve over HTTP (single queries or batches):
//	drload -addr 127.0.0.1:8080 -clients 8 -duration 10s -batch 16
//	drload -addr 127.0.0.1:8080 -requests 20000 -verify-idx web.idx
//
//	# Hammer a fleet (replicas directly, or one/more drrouters) with
//	# per-endpoint error accounting, reloading the index under load:
//	drload -addrs 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 -batch 16
//	drload -addrs 127.0.0.1:8080 -reload-every 500ms -duration 10s
//
//	# Hammer the rich read endpoints (DESIGN.md §7): witness paths,
//	# set sizes, and streaming joins, each verified against the index:
//	drload -mode path  -addr 127.0.0.1:8080 -verify-idx web.idx -verify-graph web.bin
//	drload -mode count -addr 127.0.0.1:8080 -verify-idx web.idx
//	drload -mode join  -addr 127.0.0.1:8080 -batch 16 -verify-idx web.idx
//
// Requests and answers are the wire types of internal/httpapi (the
// contract table is DESIGN.md "HTTP contract"), so drload speaks to a
// replica and to a router alike; each mode drives the endpoint it is
// named for, one request per sampled pair (path, serve), source
// (count) or batch (join: the batch's sources×targets cross product,
// read through the contract's own stream check). A 501 — /reach/path
// without drserve -graph — counts as an error like any other non-200.
// -verify-graph additionally checks every witness-path hop is an edge.
//
// With -verify-idx the HTTP answers are checked against a locally
// loaded copy of the index and any mismatch counts as an error; the
// exit status is nonzero whenever errors occurred, which is what the
// smoke scripts gate on. With several -addrs the per-endpoint
// request/error tallies are printed, so a fleet run's failures point
// at the replica that produced them. -reload-every POSTs /admin/reload
// to the endpoints round-robin while the clients fire (a drrouter
// endpoint fans the reload across its replicas), so the run proves the
// zero-downtime swap: reload failures are counted separately and also
// exit nonzero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/httpapi"
)

func main() {
	var (
		mode      = flag.String("mode", "serve", "endpoint driven: serve (/reach, /reach/batch), path, count, or join")
		addr      = flag.String("addr", "127.0.0.1:8080", "host:port of a running drserve or drrouter")
		addrs     = flag.String("addrs", "", "comma-separated endpoints; overrides -addr and reports per-endpoint errors")
		reloadEv  = flag.Duration("reload-every", 0, "POST /admin/reload to the endpoints (round-robin) at this period during the run")
		writers   = flag.Int("writers", 0, "concurrent writer loops POSTing /edges mutations (update mix; target must run drserve -graph/-wal)")
		writeWin  = flag.Int("write-window", 0, "restrict writer edges to the newest N vertex IDs (citation-growth regime; 0 = whole ID space)")
		writeEv   = flag.Duration("write-every", 0, "throttle each writer to one mutation per period (0 = back-to-back)")
		verifyIdx = flag.String("verify-idx", "", "index file to check HTTP answers against")
		verifyG   = flag.String("verify-graph", "", "path mode: edge list to check witness-path hops against (needs -verify-idx)")
		clients   = flag.Int("clients", 8, "concurrent client loops")
		requests  = flag.Int("requests", 10000, "total requests (ignored with -duration)")
		duration  = flag.Duration("duration", 0, "soak: run until this deadline instead of a request count")
		batch     = flag.Int("batch", 1, "pairs per request: 1 = GET /reach, >1 = POST /reach/batch")
		zipfS     = flag.Float64("zipf", 1.1, "zipf skew of the pair distribution (<=1 = uniform)")
		seed      = flag.Int64("seed", 1, "traffic seed (client i uses seed+i)")
	)
	flag.Parse()

	if !slices.Contains([]string{"serve", "path", "count", "join"}, *mode) {
		fatal(fmt.Errorf("unknown mode %q (serve, path, count, or join)", *mode))
	}
	list := *addrs
	if list == "" {
		list = *addr
	}
	endpoints := splitAddrs(list)
	if len(endpoints) == 0 {
		fatal(fmt.Errorf("no endpoints in -addr/-addrs"))
	}
	runServe(*mode, endpoints, *verifyIdx, *verifyG, *reloadEv, *writers, *writeEv, *writeWin, *clients, *requests, *duration, *batch, *zipfS, *seed)
}

// splitAddrs parses a comma-separated endpoint list into base URLs.
func splitAddrs(list string) []string {
	var bases []string
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		bases = append(bases, strings.TrimSuffix(a, "/"))
	}
	return bases
}

// runServe drives one or more live endpoints and exits nonzero on any
// request, verification, or reload error.
func runServe(workload string, bases []string, verifyIdx, verifyGraph string, reloadEvery time.Duration, writers int, writeEvery time.Duration, writeWindow, clients, requests int, duration time.Duration, batch int, zipfS float64, seed int64) {
	vertices := serverVertices(bases[0])
	var pathGraph *reachlab.Graph
	if verifyGraph != "" {
		if workload != "path" {
			fatal(fmt.Errorf("-verify-graph only applies to -mode path"))
		}
		if verifyIdx == "" {
			fatal(fmt.Errorf("-verify-graph needs -verify-idx (the graph checks hops, the index checks the bit)"))
		}
		var err error
		if pathGraph, err = reachlab.LoadGraph(verifyGraph); err != nil {
			fatal(err)
		}
	}
	var oracle *reachlab.Index
	if verifyIdx != "" {
		if writers > 0 {
			fatal(fmt.Errorf("-verify-idx and -writers are incompatible: a static oracle cannot check a mutating graph (the soak test covers that)"))
		}
		// Opening the index with the graph refuses a -verify-graph that is
		// not the one -verify-idx was built over.
		var err error
		if oracle, err = reachlab.OpenIndex(verifyIdx, pathGraph); err != nil {
			fatal(err)
		}
		if oracle.NumVertices() != vertices {
			fatal(fmt.Errorf("-verify-idx covers %d vertices, server reports %d", oracle.NumVertices(), vertices))
		}
	}
	httpc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients * 2 * len(bases),
			MaxIdleConnsPerHost: clients * 2,
		},
	}
	// One verifying client per endpoint, of the kind the mode names.
	var algo string
	var client func(*http.Client, string, *reachlab.Index) bench.Client
	switch {
	case workload == "path":
		algo, batch = "http-path", 1
		client = func(c *http.Client, base string, o *reachlab.Index) bench.Client {
			return pathClient(c, base, o, pathGraph)
		}
	case workload == "count":
		algo, batch, client = "http-count", 1, countClient
	case workload == "join":
		batch = max(batch, 1)
		algo, client = fmt.Sprintf("http-join%d", batch), joinClient
	case batch > 1:
		algo, client = fmt.Sprintf("http-batch%d", batch), batchClient
	default:
		algo, batch, client = "http-single", 1, singleClient
	}
	endpoints := make([]bench.Client, len(bases))
	for i, base := range bases {
		endpoints[i] = client(httpc, base, oracle)
	}

	opts := bench.LoadgenOptions{
		Clients:   clients,
		Requests:  requests,
		Duration:  duration,
		BatchSize: batch,
		Vertices:  vertices,
		ZipfS:     zipfS,
		Seed:      seed,
	}
	if reloadEvery > 0 {
		opts.DisruptEvery = reloadEvery
		opts.Disrupt = func(k int) error {
			return postReload(httpc, bases[k%len(bases)])
		}
	}
	if writers > 0 {
		opts.Writers = writers
		opts.WriteEvery = writeEvery
		opts.WriteWindow = writeWindow
		opts.Write = func(w, k int, insert bool, u, v graph.VertexID) error {
			return postEdge(httpc, bases[w%len(bases)], insert, u, v)
		}
	}
	res, perEnd := bench.RunLoadgenEndpoints(opts, endpoints)

	report(algo, clients, res)
	if len(bases) > 1 {
		for i, e := range perEnd {
			fmt.Printf("  endpoint %-28s %8d requests  %d errors\n", bases[i], e.Requests, e.Errors)
		}
	}
	if res.Disruptions > 0 {
		fmt.Printf("  reloads fired: %d (%d failed)\n", res.Disruptions, res.DisruptErrors)
	}
	if res.Writes > 0 {
		fmt.Printf("  updates: %d writes (%d failed), %.0f updates/s sustained\n", res.Writes, res.WriteErrors, res.UPS)
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "drload: %d of %d requests failed\n", res.Errors, res.Requests)
		os.Exit(1)
	}
	if res.DisruptErrors > 0 {
		fmt.Fprintf(os.Stderr, "drload: %d of %d reloads failed\n", res.DisruptErrors, res.Disruptions)
		os.Exit(1)
	}
	if res.WriteErrors > 0 {
		fmt.Fprintf(os.Stderr, "drload: %d of %d writes failed\n", res.WriteErrors, res.Writes)
		os.Exit(1)
	}
}

// exchange sends one request of the contract — e's method and route
// plus query, with req (when non-nil) as its JSON body — and requires
// a 200; the caller owns the response body.
func exchange(httpc *http.Client, base string, e httpapi.Endpoint, query string, req any) (*http.Response, error) {
	var body io.Reader
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	hr, err := http.NewRequest(e.Method, base+e.Route+query, body)
	if err != nil {
		return nil, err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpc.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s status %d", e.Label, resp.StatusCode)
	}
	return resp, nil
}

// call is exchange for the endpoints that answer one JSON document,
// decoded into out.
func call(httpc *http.Client, base string, e httpapi.Endpoint, query string, req, out any) error {
	resp, err := exchange(httpc, base, e, query, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// postEdge sends one durable edge mutation to an endpoint (a drserve
// replica in update mode, or a drrouter which fans it to the fleet).
func postEdge(httpc *http.Client, base string, insert bool, u, v graph.VertexID) error {
	op := "delete"
	if insert {
		op = "insert"
	}
	var ack json.RawMessage // a replica's ack or a router's per-replica rows
	return call(httpc, base, httpapi.Edges, "", httpapi.EdgeRequest{Op: op, U: int64(u), V: int64(v)}, &ack)
}

// postReload triggers one index reload of the endpoint's default source
// (on a drserve replica, or a drrouter which fans it across the fleet).
func postReload(httpc *http.Client, base string) error {
	var ack json.RawMessage
	return call(httpc, base, httpapi.Reload, "", httpapi.ReloadRequest{}, &ack)
}

// serverVertices asks /stats for the vertex-ID space.
func serverVertices(base string) int {
	var stats struct {
		Vertices int `json:"vertices"`
	}
	if err := call(http.DefaultClient, base, httpapi.Stats, "", nil, &stats); err != nil {
		fatal(fmt.Errorf("querying %s/stats: %w", base, err))
	}
	if stats.Vertices <= 0 {
		fatal(fmt.Errorf("server reports %d vertices", stats.Vertices))
	}
	return stats.Vertices
}

// singleClient answers one pair per request via GET /reach.
func singleClient(httpc *http.Client, base string, oracle *reachlab.Index) bench.Client {
	return func(pairs []graph.Edge) error {
		p := pairs[0]
		var body httpapi.ReachResponse
		if err := call(httpc, base, httpapi.Reach, fmt.Sprintf("?s=%d&t=%d", p.U, p.V), nil, &body); err != nil {
			return err
		}
		if oracle != nil && body.Reachable != oracle.Reachable(p.U, p.V) {
			return fmt.Errorf("reach(%d,%d): server says %v, index says %v", p.U, p.V, body.Reachable, !body.Reachable)
		}
		return nil
	}
}

// batchClient answers a batch per request via POST /reach/batch.
func batchClient(httpc *http.Client, base string, oracle *reachlab.Index) bench.Client {
	return func(pairs []graph.Edge) error {
		req := httpapi.BatchRequest{Pairs: make([][2]int64, len(pairs))}
		for i, p := range pairs {
			req.Pairs[i] = [2]int64{int64(p.U), int64(p.V)}
		}
		var body httpapi.BatchResponse
		if err := call(httpc, base, httpapi.Batch, "", req, &body); err != nil {
			return err
		}
		if body.Count != len(pairs) || len(body.Results) != len(pairs) {
			return fmt.Errorf("batch of %d pairs got %d answers", len(pairs), len(body.Results))
		}
		if oracle != nil {
			for i, p := range pairs {
				if body.Results[i] != oracle.Reachable(p.U, p.V) {
					return fmt.Errorf("batch reach(%d,%d): server says %v", p.U, p.V, body.Results[i])
				}
			}
		}
		return nil
	}
}

// pathClient answers one witness-path request per pair via
// GET /reach/path. The reachable bit is checked against the oracle
// index and, when -verify-graph supplied the edge list, every hop of
// the returned path is checked to be a real edge with the right
// endpoints.
func pathClient(httpc *http.Client, base string, oracle *reachlab.Index, g *reachlab.Graph) bench.Client {
	return func(pairs []graph.Edge) error {
		p := pairs[0]
		var body httpapi.PathResponse
		if err := call(httpc, base, httpapi.Path, fmt.Sprintf("?s=%d&t=%d", p.U, p.V), nil, &body); err != nil {
			return err
		}
		if body.Reachable != (len(body.Path) > 0) {
			return fmt.Errorf("path(%d,%d): reachable=%v but %d path vertices", p.U, p.V, body.Reachable, len(body.Path))
		}
		if oracle != nil && body.Reachable != oracle.Reachable(p.U, p.V) {
			return fmt.Errorf("path(%d,%d): server says reachable=%v, index disagrees", p.U, p.V, body.Reachable)
		}
		if body.Reachable {
			if body.Path[0] != p.U || body.Path[len(body.Path)-1] != p.V {
				return fmt.Errorf("path(%d,%d): endpoints %d..%d", p.U, p.V, body.Path[0], body.Path[len(body.Path)-1])
			}
			if g != nil {
				for i := 0; i+1 < len(body.Path); i++ {
					if u, v := body.Path[i], body.Path[i+1]; !slices.Contains(g.OutNeighbors(u), v) {
						return fmt.Errorf("path(%d,%d): hop %d->%d is not an edge", p.U, p.V, u, v)
					}
				}
			}
		}
		return nil
	}
}

// countClient answers one reachable-set-size request per sampled
// source (the pair's s side) via GET /reach/count.
func countClient(httpc *http.Client, base string, oracle *reachlab.Index) bench.Client {
	return func(pairs []graph.Edge) error {
		s := pairs[0].U
		var body httpapi.CountResponse
		if err := call(httpc, base, httpapi.Count, fmt.Sprintf("?s=%d", s), nil, &body); err != nil {
			return err
		}
		if oracle != nil {
			if want := oracle.ReachableSetSize(s); body.Count != want {
				return fmt.Errorf("count(%d): server says %d, index says %d", s, body.Count, want)
			}
		}
		return nil
	}
}

// joinClient POSTs each batch's deduplicated sources×targets
// cross-product to /reach/join and consumes the stream through
// httpapi.ReadJoin, so the protocol itself is always checked —
// strictly ascending (s, t) pairs, a terminal done line whose count
// matches the pairs received — plus a scanned tally equal to the cross
// product, and with an oracle the result set is checked to be exactly
// the reachable subset.
func joinClient(httpc *http.Client, base string, oracle *reachlab.Index) bench.Client {
	return func(pairs []graph.Edge) error {
		var req httpapi.JoinRequest
		for _, p := range pairs {
			req.Sources = append(req.Sources, int64(p.U))
			req.Targets = append(req.Targets, int64(p.V))
		}
		slices.Sort(req.Sources)
		slices.Sort(req.Targets)
		req.Sources, req.Targets = slices.Compact(req.Sources), slices.Compact(req.Targets)
		resp, err := exchange(httpc, base, httpapi.Join, "", req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		sum, err := httpapi.ReadJoin(resp.Body, func(s, t int64) error {
			if oracle != nil && !oracle.Reachable(graph.VertexID(s), graph.VertexID(t)) {
				return fmt.Errorf("join: pair (%d,%d) is not reachable in the index", s, t)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if sum.Scanned != len(req.Sources)*len(req.Targets) {
			return fmt.Errorf("join: scanned %d, cross product is %d×%d", sum.Scanned, len(req.Sources), len(req.Targets))
		}
		if oracle != nil {
			tv := make([]graph.VertexID, len(req.Targets))
			for i, t := range req.Targets {
				tv[i] = graph.VertexID(t)
			}
			want := 0
			for _, s := range req.Sources {
				for _, ok := range oracle.ReachableFrom(graph.VertexID(s), tv) {
					if ok {
						want++
					}
				}
			}
			// Every streamed pair is reachable and distinct (ascending
			// order), so matching cardinality means matching sets.
			if sum.Count != want {
				return fmt.Errorf("join: %d pairs streamed, index says the join has %d", sum.Count, want)
			}
		}
		return nil
	}
}

func report(algo string, clients int, res bench.LoadgenResult) {
	fmt.Printf("serve %s: %d requests (%d pairs, %d errors) in %v, %d clients\n",
		algo, res.Requests, res.Pairs, res.Errors, res.Elapsed.Round(time.Millisecond), clients)
	fmt.Printf("  %.0f pairs/s   latency mean %v  p50 %v  p90 %v  p99 %v\n",
		res.QPS, res.Latency.Mean, res.Latency.P50, res.Latency.P90, res.Latency.P99)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drload:", err)
	os.Exit(1)
}
