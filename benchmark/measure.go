package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	reachlab "repro"
)

// tally counts operations attempted and failed, and keeps the first
// few failure messages for the report.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 5 {
			t.notes = append(t.notes, n)
		}
	}
}

// window is what one measured window yields.
type window struct {
	tally
	pairsPerS    float64
	reqP50Us     float64
	cpuUsPerPair float64
	tailPct      float64 // the percentile reqTailUs is
	reqTailUs    float64
	requests     int // latency samples behind reqP50Us
	hitRate      float64
	stubNs       float64     // the generator alone, per request
	writes       *writeStats // update-mix only
	segments     []segment
}

// timings is the window's three figures under the names the traced run
// reports them by.
func (w *window) timings() map[string]metric {
	return map[string]metric{
		"pairs_per_s":     {w.pairsPerS, "pairs/s"},
		"req_p50_us":      {w.reqP50Us, "us"},
		"cpu_us_per_pair": {w.cpuUsPerPair, "us"},
	}
}

// segment is one fixed-work slice of a window, measured whole: how
// fast pairs were answered in it, what a request took at its median,
// and what the process's CPU spent per pair.
type segment struct {
	PairsPerS    float64
	ReqP50Us     float64
	CPUUsPerPair float64
}

// summarise turns a window's segments into its three figures, each
// the median over the segments: one stalled or lucky stretch — a GC
// cycle, a neighbour on the host — moves one segment, not the figure.
func (w *window) summarise() {
	var thr, lat, cpu []float64
	for _, s := range w.segments {
		thr, lat, cpu = append(thr, s.PairsPerS), append(lat, s.ReqP50Us), append(cpu, s.CPUUsPerPair)
	}
	w.pairsPerS, w.reqP50Us, w.cpuUsPerPair = median(thr), median(lat), median(cpu)
}

// plan splits a window into a discarded warm-up and fixed-work
// segments.
type plan struct {
	seconds    float64 // the whole window
	warm       time.Duration
	segments   int
	segSeconds float64
}

// fullPlan is an end-to-end run's window of --seconds. The first
// seconds after a build run 15–30% slow on this host (the collector is
// still returning the build's garbage), so a quarter of the window,
// and never less than 3 s in process or 4 s over HTTP, is thrown away.
func fullPlan(cfg *config, workload string) plan {
	warm := cfg.seconds / 4
	floor := 4.0
	if workload == paperCitation {
		floor = 3
	}
	if warm < floor && !cfg.smoke {
		warm = floor
	}
	return newPlan(cfg, cfg.seconds, warm)
}

// shortPlan is the traced run's window: a quarter of --seconds, a
// quarter of that warm-up.
func shortPlan(cfg *config) plan { return newPlan(cfg, cfg.seconds/4, cfg.seconds/16) }

func newPlan(cfg *config, seconds, warm float64) plan {
	return plan{
		seconds:    seconds,
		warm:       time.Duration(warm * float64(time.Second)),
		segments:   cfg.segments,
		segSeconds: (seconds - warm) / float64(cfg.segments),
	}
}

// epochSeen is the first moment a client saw a response from epoch.
type epochSeen struct {
	epoch uint64
	at    time.Time
}

// clientRun is one closed-loop client's share of a window.
type clientRun struct {
	tally
	perSeg int
	latUs  []float64 // perSeg samples per segment, in order
	seen   []epochSeen
	marks  []mark // the sampling client's only
}

// mark is the process's state at a segment boundary of the sampling
// client: the time, the CPU seconds spent, and the requests every
// client together has completed.
type mark struct {
	at   time.Time
	cpu  float64
	done int64
}

// drive runs one closed-loop client over q against addr: warm up for
// p.warm, meet the other clients at the barrier, then issue
// p.segments segments of equal request count, timing every request
// and every segment. A failed request still yields a latency sample.
func (cr *clientRun) drive(addr string, q *requests, p plan, warmed *sync.WaitGroup, start <-chan struct{}, done *atomic.Int64, sampler bool) {
	c, err := dial(addr)
	if err != nil {
		cr.attempted++
		cr.fail("%v", err)
		warmed.Done()
		return
	}
	defer func() { c.close() }()
	next := 0
	var lastEpoch uint64
	one := func() bool {
		i := next % q.len()
		next++
		cr.attempted++
		res, err := c.do(q.raw[i])
		if err != nil {
			cr.fail("request %d: %v", i, err)
			c.close()
			if c, err = dial(addr); err != nil {
				cr.fail("%v", err)
				return false
			}
			return true
		}
		if res.epoch != lastEpoch {
			lastEpoch = res.epoch
			cr.seen = append(cr.seen, epochSeen{res.epoch, time.Now()})
		}
		if msg := q.mismatch(i, res.status, res.body); msg != "" {
			cr.fail("%s", msg)
		}
		return true
	}

	// Warm-up; its second half sizes the segments.
	begin := time.Now()
	var halfAt time.Time
	halfCount := 0
	alive := true
	for alive && time.Since(begin) < p.warm {
		alive = one()
		if halfAt.IsZero() && time.Since(begin) >= p.warm/2 {
			halfAt, halfCount = time.Now(), next
		}
	}
	rate := 1.0
	if !halfAt.IsZero() && next > halfCount {
		rate = float64(next-halfCount) / time.Since(halfAt).Seconds()
	}
	cr.perSeg = int(rate * p.segSeconds)
	if cr.perSeg < 1 {
		cr.perSeg = 1
	}
	warmed.Done()
	<-start

	cr.latUs = make([]float64, 0, cr.perSeg*p.segments)
	stamp := func() {
		if sampler {
			cr.marks = append(cr.marks, mark{time.Now(), cpuSeconds(), done.Load()})
		}
	}
	stamp()
	for s := 0; alive && s < p.segments; s++ {
		for r := 0; alive && r < cr.perSeg; r++ {
			t0 := time.Now()
			alive = one()
			cr.latUs = append(cr.latUs, float64(time.Since(t0).Nanoseconds())/1e3)
			done.Add(1)
		}
		stamp()
	}
}

// runHTTP measures one window of closed-loop HTTP traffic: one client
// per stream, each on its own connection, plus the writer when w is
// set. The first client cuts the window into segments; a segment's
// throughput and CPU time are the whole process's — servers, router
// and every client — between two of its boundaries.
func runHTTP(sys *system, streams []*requests, p plan, w *writer) window {
	var win window
	runs := make([]*clientRun, len(streams))
	var warmed, finished sync.WaitGroup
	var done atomic.Int64
	start := make(chan struct{})
	for i, q := range streams {
		runs[i] = &clientRun{}
		warmed.Add(1)
		finished.Add(1)
		go func(cr *clientRun, q *requests, sampler bool) {
			defer finished.Done()
			cr.drive(sys.addr, q, p, &warmed, start, &done, sampler)
		}(runs[i], q, i == 0)
	}
	var writerDone chan struct{}
	if w != nil {
		writerDone = make(chan struct{})
		go func() {
			defer close(writerDone)
			w.drive(sys.addr)
		}()
	}
	warmed.Wait()
	hits0, misses0 := sys.cacheStats()
	if w != nil {
		w.measuring.Store(true)
	}
	close(start)
	finished.Wait()
	hits, misses := sys.cacheStats()
	if w != nil {
		close(w.stop)
		<-writerDone
	}

	var lat []float64
	for _, cr := range runs {
		win.add(cr.tally)
		lat = append(lat, cr.latUs...)
	}
	marks := runs[0].marks
	for s := 1; s < len(marks); s++ {
		a, b := marks[s-1], marks[s]
		pairs := float64((b.done - a.done) * batchSize)
		var p50s []float64
		for _, cr := range runs {
			if lo, hi := (s-1)*cr.perSeg, s*cr.perSeg; hi <= len(cr.latUs) {
				p50s = append(p50s, median(cr.latUs[lo:hi]))
			}
		}
		win.segments = append(win.segments, segment{
			PairsPerS:    pairs / b.at.Sub(a.at).Seconds(),
			ReqP50Us:     median(p50s),
			CPUUsPerPair: (b.cpu - a.cpu) * 1e6 / pairs,
		})
	}
	win.summarise()
	sort.Float64s(lat)
	win.requests = len(lat)
	win.tailPct, win.reqTailUs = tailPercentile(lat)
	if d := float64(hits - hits0 + misses - misses0); d > 0 {
		win.hitRate = float64(hits-hits0) / d
	}
	if w != nil {
		var seen []epochSeen
		for _, cr := range runs {
			seen = append(seen, cr.seen...)
		}
		win.writes = w.settle(sys, seen, &win.tally)
	}
	return win
}

// cacheStats sums the replicas' pair-cache counters.
func (s *system) cacheStats() (hits, misses int64) {
	for _, h := range s.replicas {
		a, b := h.CacheStats()
		hits, misses = hits+a, misses+b
	}
	return hits, misses
}

// runInProcess is paper-citation's window: one goroutine calling the
// library. Each segment first answers its pairs one at a time through
// Index.Reachable — the paper's query loop, which gives pairs_per_s —
// and then sixteen at a time through Index.ReachableBatch, the
// in-process counterpart of one /reach/batch request, each call timed,
// which gives req_p50_us. Every answer is compared with q.want.
func runInProcess(idx *reachlab.Index, q *requests, p plan) window {
	var win window
	pairs := q.pairs
	answerAll := func(ps []reachlab.Pair) (trues int) {
		for _, pr := range ps {
			if idx.Reachable(pr.S, pr.T) {
				trues++
			}
		}
		return trues
	}

	// Warm-up over the pool; its second half sizes a segment, whose
	// two parts take about half of its time each.
	begin := time.Now()
	var halfAt time.Time
	done, halfDone := 0, 0
	for time.Since(begin) < p.warm || done == halfDone {
		lo := done % len(pairs)
		hi := min(lo+4096, len(pairs))
		answerAll(pairs[lo:hi])
		done += hi - lo
		if halfAt.IsZero() && time.Since(begin) >= p.warm/2 {
			halfAt, halfDone = time.Now(), done
		}
	}
	rate := float64(done-halfDone) / time.Since(halfAt).Seconds()
	perSeg := min(len(pairs), max(batchSize, int(rate*p.segSeconds/2)/batchSize*batchSize))
	seg := pairs[:perSeg]
	calls := perSeg / batchSize
	var wantTrues int
	for r := 0; r < calls; r++ {
		for m := q.want[r]; m != 0; m &= m - 1 {
			wantTrues++
		}
	}

	lat := make([]float64, 0, calls*p.segments)
	for s := 0; s < p.segments; s++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		trues := answerAll(seg)
		single := time.Since(t0).Seconds()
		win.attempted += int64(perSeg)
		if trues != wantTrues {
			win.fail("Reachable segment %d: %d reachable pairs, expected %d", s, trues, wantTrues)
		}
		for r := 0; r < calls; r++ {
			t0 := time.Now()
			res := idx.ReachableBatch(seg[r*batchSize : (r+1)*batchSize])
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			win.attempted++
			var mask uint16
			for i, b := range res {
				if b {
					mask |= 1 << i
				}
			}
			if len(res) != batchSize || mask != q.want[r] {
				win.fail("ReachableBatch call %d: answers %016b, expected %016b", r, mask, q.want[r])
			}
		}
		win.segments = append(win.segments, segment{
			PairsPerS:    float64(perSeg) / single,
			ReqP50Us:     median(lat[s*calls:]),
			CPUUsPerPair: (cpuSeconds() - cpu0) * 1e6 / float64(2*perSeg),
		})
	}
	win.summarise()
	sort.Float64s(lat)
	win.requests = len(lat)
	win.tailPct, win.reqTailUs = tailPercentile(lat)
	return win
}

// verifyIndex compares idx with breadth-first search over g on pairs,
// the oracle every other expected answer in a run descends from.
func verifyIndex(name string, g *reachlab.Graph, idx *reachlab.Index, pairs []reachlab.Pair, t *tally) {
	for _, p := range pairs {
		t.attempted++
		if got, want := idx.Reachable(p.S, p.T), g.ReachableBFS(p.S, p.T); got != want {
			t.fail("%s index: Reachable(%d,%d) = %v, BFS says %v", name, p.S, p.T, got, want)
		}
	}
}
