package main

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	reachlab "repro"
)

// writer is replica-update-mix's one mutation client: it posts
// alternating inserts and deletes of seeded edges, waits for each ack,
// and starts at most one write per writeEvery.
type writer struct {
	seed  int64
	edges [][2]reachlab.VertexID
	reqs  [][]byte // reqs[2k] inserts edges[k], reqs[2k+1] deletes it

	stop      chan struct{}
	measuring atomic.Bool // set when the readers' measured segments begin

	tally
	acked    int // writes acknowledged; decides which edge is left in place
	recs     []writeRec
	late     int
	maxEpoch uint64
	began    time.Time // first measured write
	ended    time.Time
}

// writeRec is one acknowledged write of the measured window.
type writeRec struct {
	ack   time.Time
	ackMs float64
	epoch uint64 // the epoch the ack promised
}

// writeStats is the writer's side of a window.
type writeStats struct {
	writes       int
	ackP50Ms     float64
	visibleP50Ms float64
	updatesPerS  float64
	late         int
}

func newWriter(rng *rand.Rand, g *reachlab.Graph, seed int64, seconds float64) *writer {
	count := int(seconds/writeEvery.Seconds())/2 + 16
	w := &writer{seed: seed, edges: writerEdges(rng, g, writeWindow, count), stop: make(chan struct{})}
	for _, e := range w.edges {
		w.reqs = append(w.reqs, edgeRequest(true, e[0], e[1]), edgeRequest(false, e[0], e[1]))
	}
	return w
}

func (w *writer) drive(addr string) {
	c, err := dial(addr)
	if err != nil {
		w.attempted++
		w.fail("writer: %v", err)
		return
	}
	defer c.close()
	for k := 0; ; k++ {
		select {
		case <-w.stop:
			return
		default:
		}
		begin := time.Now()
		measured := w.measuring.Load()
		w.attempted++
		res, err := c.do(w.reqs[k%len(w.reqs)])
		now := time.Now()
		if err != nil {
			w.fail("write %d: %v", k, err)
			return
		}
		epoch, ok := scanUint(res.body, "epoch")
		if res.status != 200 || !ok {
			w.fail("write %d: status %d: %.80s", k, res.status, res.body)
			return
		}
		w.acked++
		w.maxEpoch = max(w.maxEpoch, epoch)
		if measured {
			if w.began.IsZero() {
				w.began = begin
			}
			w.ended = now
			w.recs = append(w.recs, writeRec{ack: now, ackMs: now.Sub(begin).Seconds() * 1e3, epoch: epoch})
		}
		if wait := writeEvery - now.Sub(begin); wait > 0 {
			time.Sleep(wait)
		} else if measured {
			w.late++
		}
	}
}

// settle finishes the update-mix window: wait until the last promised
// epoch is served, turn acks and first sightings of epochs into
// ack-to-visible latencies, then check the replica's answers against
// breadth-first search over the final edge set — on sampled pairs and
// on the endpoints of every edge the writer touched.
func (w *writer) settle(sys *system, seen []epochSeen, t *tally) *writeStats {
	t.add(w.tally)
	c, err := dial(sys.addr)
	if err != nil {
		t.attempted++
		t.fail("settle: %v", err)
		return &writeStats{}
	}
	defer c.close()

	healthz := httpRequest("GET", "/healthz", nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := c.do(healthz)
		if err != nil {
			t.attempted++
			t.fail("settle: polling /healthz: %v", err)
			return &writeStats{}
		}
		if res.epoch >= w.maxEpoch {
			seen = append(seen, epochSeen{res.epoch, time.Now()})
			break
		}
		if time.Now().After(deadline) {
			t.attempted++
			t.fail("promised epoch %d never served (replica at %d)", w.maxEpoch, res.epoch)
			return &writeStats{}
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Sightings in time order are also in epoch order: an epoch never
	// goes back.
	sort.Slice(seen, func(i, j int) bool { return seen[i].at.Before(seen[j].at) })
	ws := &writeStats{writes: len(w.recs), late: w.late}
	var ackMs, visibleMs []float64
	for _, r := range w.recs {
		at := sort.Search(len(seen), func(i int) bool { return seen[i].epoch >= r.epoch })
		t.attempted++
		if at == len(seen) {
			t.fail("write promised epoch %d, which no response carried", r.epoch)
			continue
		}
		ackMs = append(ackMs, r.ackMs)
		visibleMs = append(visibleMs, max(0, seen[at].at.Sub(r.ack).Seconds()*1e3))
	}
	ws.ackP50Ms, ws.visibleP50Ms = median(ackMs), median(visibleMs)
	if d := w.ended.Sub(w.began).Seconds(); d > 0 {
		ws.updatesPerS = float64(len(w.recs)) / d
	}

	w.verifyFinal(sys, c, t)
	return ws
}

// verifyFinal asks the replica, over HTTP, about pairs whose answers
// are computed by BFS on the graph as the acknowledged writes left it.
func (w *writer) verifyFinal(sys *system, c *conn, t *tally) {
	n := sys.g.NumVertices()
	var edges []reachlab.Edge
	for v := 0; v < n; v++ {
		for _, to := range sys.g.OutNeighbors(reachlab.VertexID(v)) {
			edges = append(edges, reachlab.Edge{From: reachlab.VertexID(v), To: to})
		}
	}
	if w.acked%2 == 1 { // the last acknowledged write was an insert
		e := w.edges[(w.acked-1)/2%len(w.edges)]
		edges = append(edges, reachlab.Edge{From: e[0], To: e[1]})
	}
	final := reachlab.NewGraph(n, edges)

	rng := subSeed(w.seed, streamCheck)
	pairs := append(uniformPairs(rng, n, 1000), walkPairs(rng, final, 1000)...)
	touched := min(w.acked/2+1, len(w.edges))
	for _, e := range w.edges[:touched] {
		pairs = append(pairs, reachlab.Pair{S: e[0], T: e[1]})
	}
	for len(pairs)%batchSize != 0 {
		pairs = append(pairs, pairs[0])
	}
	q := encodeBatches(pairs)
	q.expect(final.ReachableBFS)
	for i, raw := range q.raw {
		t.attempted++
		res, err := c.do(raw)
		if err != nil {
			t.fail("final check: %v", err)
			return
		}
		if msg := q.mismatch(i, res.status, res.body); msg != "" {
			t.fail("final check against BFS on the final edge set: %s", msg)
		}
	}
}
