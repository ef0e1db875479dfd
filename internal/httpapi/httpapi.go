// Package httpapi is the one place the serving tier's HTTP contract is
// written: the endpoint table, header names and limits, the wire types,
// the three codecs (bounded JSON in, JSON out, the /reach/join NDJSON
// stream) and the rule that tells a replica's verdict from a replica's
// failure. The replica (reachlab.QueryHandler), the router
// (internal/fleet) and the verifying client (cmd/drload) all speak
// through it, which is what makes the router transparent: a refusal is
// worded, bounded and relayed the same way wherever it is met.
// DESIGN.md "HTTP contract" is the table in prose.
package httpapi

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// Endpoint is one row of the contract: how a request for it is spelled,
// how its metrics are labelled and how its body is bounded.
type Endpoint struct {
	Method string
	Route  string
	Label  string // the "handler" label of its request/error counters

	noun    string // a malformed body is a "bad <noun> request"
	lists   int    // MaxBatch-capped lists in the body; 0 = a small fixed-shape document
	emptyOK bool   // an empty body is the zero request
}

// The endpoints a replica serves, and the router serves in its name.
var (
	Reach  = Endpoint{Method: http.MethodGet, Route: "/reach", Label: "reach"}
	Batch  = Endpoint{Method: http.MethodPost, Route: "/reach/batch", Label: "batch", noun: "batch", lists: 1}
	Path   = Endpoint{Method: http.MethodGet, Route: "/reach/path", Label: "path"}
	Count  = Endpoint{Method: http.MethodGet, Route: "/reach/count", Label: "count"}
	From   = Endpoint{Method: http.MethodPost, Route: "/reach/from", Label: "from", noun: "from", lists: 1}
	Join   = Endpoint{Method: http.MethodPost, Route: "/reach/join", Label: "join", noun: "join", lists: 2}
	Reload = Endpoint{Method: http.MethodPost, Route: "/admin/reload", Label: "reload", noun: "reload", emptyOK: true}
	Edges  = Endpoint{Method: http.MethodPost, Route: "/edges", Label: "edges", noun: "edge"}
	Stats  = Endpoint{Method: http.MethodGet, Route: "/stats", Label: "stats"}
	// Healthz is answered uncounted: it is the fleet's probe, not traffic.
	Healthz = Endpoint{Method: http.MethodGet, Route: "/healthz"}

	// Router-only admin verbs (?replica=host:port).
	Drain   = Endpoint{Method: http.MethodPost, Route: "/admin/drain", Label: "drain"}
	Readmit = Endpoint{Method: http.MethodPost, Route: "/admin/readmit", Label: "readmit"}
)

// Pattern is the endpoint's ServeMux pattern (any other method: 405).
func (e Endpoint) Pattern() string { return e.Method + " " + e.Route }

const (
	// EpochHeader carries the serving epoch on every query answer and on
	// /healthz. A fleet router records it from health probes and relays
	// it on proxied answers, so a client can tell which index version
	// produced each response.
	EpochHeader = "X-Reachlab-Epoch"
	// VerticesHeader carries the served index's vertex count on /healthz,
	// so fleet probes learn the ID space without a /stats round trip.
	VerticesHeader = "X-Reachlab-Vertices"

	// MaxBatch caps the pair count of one /reach/batch request and the
	// per-list length of /reach/from and /reach/join. It is the
	// contract's, not a server's: a router and every replica behind it
	// refuse the same requests.
	MaxBatch = 8192
	// MaxJoin caps the scanned cross product of one /reach/join: a
	// million pairs keeps one analytics request under a few hundred
	// milliseconds of label sweeps.
	MaxJoin = 1 << 20

	// smallBody bounds the fixed-shape documents (/edges, /admin/reload).
	smallBody = 1 << 16
)

// BodyLimit bounds the endpoint's request body: the densest legal
// encoding of a pair ("[1,2],") is a handful of bytes, so 32 bytes per
// allowed list entry plus slack rejects an oversized body before it is
// buffered.
func (e Endpoint) BodyLimit() int64 {
	if e.lists == 0 {
		return smallBody
	}
	return int64(e.lists) * (MaxBatch*32 + 4096)
}

// Verdict reports whether the status of an upstream exchange that
// completed is the replica's verdict on the request — an answer or a
// refusal (400, 413, 501, …) that any replica would repeat, so the
// router relays it verbatim, never retries it and never charges it to
// the replica. 500, 502, 503 and 504, like an exchange that did not
// complete, are the replica's failure: retried elsewhere and counted
// against it.
func Verdict(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return false
	}
	return true
}

// Mux is an http.ServeMux that mounts contract endpoints with their
// metrics resolved once — the counters "<prefix>_http_requests_total",
// "<prefix>_http_errors_total" and "<prefix>_http_canceled_total" and
// the latency histogram "<prefix>_http_request_seconds", each labelled
// handler="<Endpoint.Label>" — so serving a request builds no metric
// name and takes no registry lock.
type Mux struct {
	*http.ServeMux
	reg    *obs.Registry // nil disables the metrics
	prefix string
}

// NewMux returns an empty Mux.
func NewMux(reg *obs.Registry, prefix string) *Mux {
	return &Mux{ServeMux: http.NewServeMux(), reg: reg, prefix: prefix}
}

// ServeFunc serves one mounted endpoint; the Handle is how it refuses.
type ServeFunc func(*Handle, http.ResponseWriter, *http.Request)

// Mount serves e with serve, counting each request and timing it: the
// mux is the one place a request is timed, once, whatever its outcome —
// an answer, a refusal, a relayed error or a dropped client.
func (m *Mux) Mount(e Endpoint, serve ServeFunc) {
	requests := m.reg.Counter(obs.Label(m.prefix+"_http_requests_total", "handler", e.Label))
	seconds := m.reg.Histogram(obs.Label(m.prefix+"_http_request_seconds", "handler", e.Label), obs.LatencyBuckets)
	h := &Handle{
		Endpoint: e,
		errors:   m.reg.Counter(obs.Label(m.prefix+"_http_errors_total", "handler", e.Label)),
		canceled: m.reg.Counter(obs.Label(m.prefix+"_http_canceled_total", "handler", e.Label)),
	}
	m.HandleFunc(e.Pattern(), func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		serve(h, w, r)
		seconds.Observe(time.Since(start).Seconds())
	})
}
