package main

import (
	"fmt"
	"math/rand"
	"strconv"

	reachlab "repro"
)

// batchSize is the pair count of every /reach/batch request and of
// every in-process ReachableBatch call the harness issues.
const batchSize = 16

// zipfSkew is drload's default pair skew.
const zipfSkew = 1.1

// subSeed derives an independent generator for one input stream, so
// the check pairs, each client's pairs and the writer's edges never share
// random state: changing how many values one stream draws cannot
// shift another.
func subSeed(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// Stream numbers under one --seed. Clients add their index.
const (
	streamCheck  = 1
	streamWriter = 2
	streamLedger = 3
	streamClient = 16
)

// zipfPairs draws count pairs with both endpoints zipf-distributed
// over [0, n), independently, as drload does. The product is not very
// repetitive: 2.1M draws over 200k vertices hold 0.99M distinct pairs
// (README, "The request pool and the cache").
func zipfPairs(rng *rand.Rand, n, count int) []reachlab.Pair {
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(n-1))
	pairs := make([]reachlab.Pair, count)
	for i := range pairs {
		pairs[i] = reachlab.Pair{S: reachlab.VertexID(z.Uint64()), T: reachlab.VertexID(z.Uint64())}
	}
	return pairs
}

// uniformPairs draws count pairs uniformly: the paper's random
// queries, almost all unreachable, and far beyond any cache.
func uniformPairs(rng *rand.Rand, n, count int) []reachlab.Pair {
	pairs := make([]reachlab.Pair, count)
	for i := range pairs {
		pairs[i] = reachlab.Pair{S: reachlab.VertexID(rng.Intn(n)), T: reachlab.VertexID(rng.Intn(n))}
	}
	return pairs
}

// walkPairs draws count pairs (s, t) where t ends a forward random
// walk of 1–8 hops from s, so every pair is reachable: the positive
// path of the merge kernel, which uniform pairs almost never take.
func walkPairs(rng *rand.Rand, g *reachlab.Graph, count int) []reachlab.Pair {
	n := g.NumVertices()
	pairs := make([]reachlab.Pair, 0, count)
	for len(pairs) < count {
		s := reachlab.VertexID(rng.Intn(n))
		t := s
		for hops := 1 + rng.Intn(8); hops > 0; hops-- {
			out := g.OutNeighbors(t)
			if len(out) == 0 {
				break
			}
			t = out[rng.Intn(len(out))]
		}
		if t != s {
			pairs = append(pairs, reachlab.Pair{S: s, T: t})
		}
	}
	return pairs
}

// mixedPairs interleaves uniform and walk pairs one to one, so a
// stream exercises the negative and the positive path equally.
func mixedPairs(rng *rand.Rand, g *reachlab.Graph, count int) []reachlab.Pair {
	uni := uniformPairs(rng, g.NumVertices(), count/2)
	walk := walkPairs(rng, g, count-count/2)
	pairs := make([]reachlab.Pair, 0, count)
	for i := range walk {
		if i < len(uni) {
			pairs = append(pairs, uni[i])
		}
		pairs = append(pairs, walk[i])
	}
	return pairs
}

// requests is one client's traffic: the pairs, batchSize to a request,
// the complete HTTP/1.1 request bytes once encoded, and the answer bits expected
// (bit i of want[r] is the answer to pair i of request r). Only the
// bits set in check[r] are compared; a nil check compares all.
type requests struct {
	raw   [][]byte
	pairs []reachlab.Pair // batchSize per request, in request order
	want  []uint16
	check []uint16
}

func (q *requests) len() int { return len(q.want) }

// traffic is the first count requests of one client's stream in
// workload, answers not yet filled in (expect) and bytes not yet
// rendered (encode). The end-to-end window and the traced run both
// draw from here, so they send the same requests.
func traffic(cfg *config, workload string, g *reachlab.Graph, client, count int) *requests {
	rng := subSeed(cfg.seed, streamClient+client)
	var pairs []reachlab.Pair
	switch workload {
	case paperCitation:
		pairs = mixedPairs(rng, g, count*batchSize)
	case updateMix:
		pairs = uniformPairs(rng, cfg.vertices, count*batchSize)
	default: // the replica and the router workload: the same pairs from the same seed
		pairs = zipfPairs(rng, cfg.vertices, count*batchSize)
	}
	q := &requests{pairs: pairs, want: make([]uint16, count)}
	if workload == updateMix {
		q.exemptNewest(cfg.vertices, writeWindow)
	}
	return q
}

// encode renders the requests as POST /reach/batch. The bytes depend
// only on the pairs.
func (q *requests) encode() *requests {
	q.raw = make([][]byte, q.len())
	var body []byte
	for r := range q.raw {
		body = append(body[:0], `{"pairs":[`...)
		for i, p := range q.batch(r) {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			body = strconv.AppendInt(body, int64(p.S), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(p.T), 10)
			body = append(body, ']')
		}
		body = append(body, "]}"...)
		q.raw[r] = httpRequest("POST", "/reach/batch", body)
	}
	return q
}

// encodeBatches is the encoded requests over pairs (a multiple of
// batchSize), for traffic that is not a workload's.
func encodeBatches(pairs []reachlab.Pair) *requests {
	q := &requests{pairs: pairs, want: make([]uint16, len(pairs)/batchSize)}
	return q.encode()
}

// batch is the pairs of request r.
func (q *requests) batch(r int) []reachlab.Pair { return q.pairs[r*batchSize : (r+1)*batchSize] }

// mismatch says what is wrong with a response to request r, or "" when
// it is a 200 carrying batchSize answers that agree with want on every
// checked bit.
func (q *requests) mismatch(r, status int, body []byte) string {
	mask, count, ok := scanResults(body)
	check := uint16(0xffff)
	if q.check != nil {
		check = q.check[r]
	}
	switch {
	case status != 200:
		return fmt.Sprintf("request %d: status %d: %.80s", r, status, body)
	case !ok || count != batchSize:
		return fmt.Sprintf("request %d: malformed response %.80s", r, body)
	case (mask^q.want[r])&check != 0:
		return fmt.Sprintf("request %d: answers %016b, expected %016b (checked bits %016b)", r, mask, q.want[r], check)
	}
	return ""
}

// httpRequest renders one complete keep-alive HTTP/1.1 request.
func httpRequest(method, path string, body []byte) []byte {
	b := make([]byte, 0, 96+len(path)+len(body))
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// expect fills in the answer bits from answer, which the caller backs
// with an index already checked against BFS.
func (q *requests) expect(answer func(s, t reachlab.VertexID) bool) {
	for r := range q.want {
		var m uint16
		for i, p := range q.batch(r) {
			if answer(p.S, p.T) {
				m |= 1 << i
			}
		}
		q.want[r] = m
	}
}

// exemptNewest limits checking to pairs whose source lies below the
// newest window vertices. The update-mix writer only ever adds an edge
// between two of those, and citation edges point from newer to older
// vertices, so any other source reaches exactly what it reached at
// set-up and its answers can be checked while writes are in flight.
// The exempt pairs are checked after the window, on the final graph.
func (q *requests) exemptNewest(n, window int) {
	q.check = make([]uint16, q.len())
	for r := range q.check {
		for i, p := range q.batch(r) {
			if int(p.S) < n-window {
				q.check[r] |= 1 << i
			}
		}
	}
}

// edgeRequest renders one POST /edges mutation.
func edgeRequest(insert bool, u, v reachlab.VertexID) []byte {
	op := "delete"
	if insert {
		op = "insert"
	}
	body := []byte(`{"op":"` + op + `","u":` + strconv.Itoa(int(u)) + `,"v":` + strconv.Itoa(int(v)) + `}`)
	return httpRequest("POST", "/edges", body)
}

// writerEdges draws count edges among the newest window
// vertices (drload's -write-window citation-growth regime), none a
// self-loop or already in g, so every insert and every following
// delete is a real mutation and the final edge set is known exactly.
func writerEdges(rng *rand.Rand, g *reachlab.Graph, window, count int) [][2]reachlab.VertexID {
	n := g.NumVertices()
	if window > n {
		window = n
	}
	lo := n - window
	edges := make([][2]reachlab.VertexID, 0, count)
	for len(edges) < count {
		u := reachlab.VertexID(lo + rng.Intn(window))
		v := reachlab.VertexID(lo + rng.Intn(window))
		if u == v || hasEdge(g, u, v) {
			continue
		}
		edges = append(edges, [2]reachlab.VertexID{u, v})
	}
	return edges
}

func hasEdge(g *reachlab.Graph, u, v reachlab.VertexID) bool {
	for _, w := range g.OutNeighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}
