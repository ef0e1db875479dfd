// Package fleet is the horizontally scaled serving tier: a router
// that fans reachability queries across N drserve replicas, each
// holding the same frozen flat index (DESIGN.md §9).
//
// The router has one placement rule: every query goes whole to the
// healthy replica with the fewest outstanding forwards, ties to the
// first in the list, and that replica's verdict, epoch header included,
// is relayed verbatim. Every replica holds the full index, so any one
// can answer any query, and when one is out the rest absorb its share.
//
// Replica health is probed periodically (GET /healthz): a replica is
// marked down after downAfter consecutive failures and readmitted
// after upAfter consecutive successes, with queries routing around it
// the whole time. The probe also records the replica's serving epoch
// and vertex count from the contract's two response headers, so /stats
// can show whether an index reload has landed on every replica. Graceful
// drain (POST /admin/drain) stops routing new queries to a replica
// and marks it drained once its outstanding count hits zero.
package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// Mode is ignored: the router has one placement rule (pick). The type
// and its constants stay while the benchmark harness sets them.
type Mode string

const (
	Replicated Mode = "replicated"
	Sharded    Mode = "sharded"
)

// ReplicaState is the router's view of one replica.
type ReplicaState int32

const (
	// StateUp: healthy, receiving traffic.
	StateUp ReplicaState = iota
	// StateDown: not yet probed successfully, or failed downAfter
	// consecutive probes; no traffic until it passes its first probe
	// or, having been up before, upAfter consecutive ones.
	StateDown
	// StateDraining: operator-initiated drain; no new traffic,
	// outstanding requests finishing.
	StateDraining
	// StateDrained: drain complete (outstanding hit zero); stays out
	// of rotation until readmitted.
	StateDrained
)

func (s ReplicaState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// replica is the router's bookkeeping for one backend. The health
// loop owns fails/oks (probed one round at a time); everything else
// is atomic because request goroutines read and update it.
type replica struct {
	addr string // host:port, the admin-facing name
	base string // http://host:port

	state       atomic.Int32
	outstanding atomic.Int64
	epoch       atomic.Uint64 // last epoch believed (0 = unknown); written by observeEpoch only
	vertices    atomic.Int64  // last vertex count seen on a probe
	forwards    atomic.Int64  // requests sent (including retries)
	errors      atomic.Int64  // requests this replica failed (httpapi.Verdict's other side)

	// epochMu orders epoch's writers (probes race reload answers);
	// epochAt is when the believed observation completed.
	epochMu sync.Mutex
	epochAt time.Time

	fails, oks int  // consecutive probe outcomes; health-loop private
	admitted   bool // has ever been up; health-loop private
}

// observeEpoch records the epoch r reported to a request issued at
// issued. A live process's epochs only rise, so a higher one always
// wins; a lower one is believed only when its request was issued after
// the stored observation completed — a restarted replica — and is
// otherwise a stale answer overtaken on the wire (a /healthz answered
// just before a reload's swap, landing after the reload's) and dropped.
func (r *replica) observeEpoch(e uint64, issued time.Time) {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	if e >= r.epoch.Load() || issued.After(r.epochAt) {
		r.epoch.Store(e)
		r.epochAt = time.Now()
	}
}

func (r *replica) getState() ReplicaState { return ReplicaState(r.state.Load()) }
func (r *replica) setState(s ReplicaState) {
	r.state.Store(int32(s))
}

// ReplicaStatus is one replica's externally visible state.
type ReplicaStatus struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Outstanding int64  `json:"outstanding"`
	Epoch       uint64 `json:"epoch"`
	Vertices    int64  `json:"vertices"`
	Forwards    int64  `json:"forwards"`
	Errors      int64  `json:"errors"`
}

// Options configures a Fleet. The zero value gives sane defaults.
type Options struct {
	// Mode is ignored (see Mode). The field stays while the benchmark
	// harness sets it.
	Mode Mode
	// Obs receives router counters and latency histograms; nil
	// disables instrumentation.
	Obs *obs.Registry
}

// The health and retry rules. Every replica is probed each
// checkInterval; one is marked down after downAfter consecutive failed
// probes, and one that has been up and went down is readmitted after
// upAfter consecutive successes (one that has never been up is
// admitted by its first). A query is forwarded in up to
// attemptsPerReplica rounds, each trying every healthy replica once,
// with a retryBackoff pause between rounds.
// probeTimeout bounds one health probe and proxyTimeout one forwarded
// request attempt.
const (
	checkInterval      = 500 * time.Millisecond
	downAfter          = 2
	upAfter            = 2
	attemptsPerReplica = 4
	retryBackoff       = 25 * time.Millisecond
	probeTimeout       = 2 * time.Second
	proxyTimeout       = 10 * time.Second
)

// Fleet is the replica pool plus its router. Create with New, start
// health checking with Start, serve it as an http.Handler, stop with
// Close.
type Fleet struct {
	opts     Options
	replicas []*replica // fixed order; position breaks ties in pick
	httpc    *http.Client
	mux      *httpapi.Mux

	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}

	// Metric handles, resolved once.
	unavailable *obs.Counter
	retries     *obs.Counter
	probeFails  *obs.Counter
	healthyG    *obs.Gauge
}

// New builds a fleet over the given replica addresses (host:port or
// http:// URLs). Under equal load the first in the list is picked.
func New(addrs []string, opts Options) (*Fleet, error) {
	reg := opts.Obs
	f := &Fleet{
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),

		unavailable: reg.Counter("fleet_unavailable_total"),
		retries:     reg.Counter("fleet_retries_total"),
		probeFails:  reg.Counter("fleet_probe_failures_total"),
		healthyG:    reg.Gauge("fleet_healthy_replicas"),
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		base := a
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		addr := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		if seen[addr] {
			return nil, fmt.Errorf("fleet: duplicate replica %s", addr)
		}
		seen[addr] = true
		r := &replica{addr: addr, base: strings.TrimSuffix(base, "/")}
		// Replicas start down and are admitted by their first
		// successful probe, so a dead address never receives traffic.
		r.setState(StateDown)
		f.replicas = append(f.replicas, r)
	}
	if len(f.replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas")
	}
	f.opts = opts
	f.httpc = &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        4 * len(f.replicas) * 16,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     60 * time.Second,
		},
	}
	f.initMux()
	return f, nil
}

// Start probes every replica once synchronously (so a fleet over live
// replicas serves immediately) and then launches the periodic health
// loop.
func (f *Fleet) Start() {
	f.probeAll()
	tick, stop := clock.NewTicker(checkInterval) // here, so no tick after Start is lost
	go f.healthLoop(tick, stop)
}

// Close stops the health loop. In-flight forwarded requests finish on
// their own.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.loopDone
}

func (f *Fleet) healthLoop(tick <-chan time.Time, stop func()) {
	defer close(f.loopDone)
	defer stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick:
			f.probeAll()
		}
	}
}

// probeAll checks every replica in parallel and applies the state
// transitions. One round completes before the next starts, so the
// fails/oks counters need no locking.
func (f *Fleet) probeAll() {
	var wg sync.WaitGroup
	for _, r := range f.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			f.probe(r)
		}(r)
	}
	wg.Wait()
	f.healthyG.Set(int64(len(f.healthy())))
}

// probe runs one health check against r and advances its state
// machine.
func (f *Fleet) probe(r *replica) {
	ok := f.probeOnce(r)
	if ok {
		r.oks++
		r.fails = 0
	} else {
		r.fails++
		r.oks = 0
		f.probeFails.Inc()
	}
	switch r.getState() {
	case StateUp:
		if r.fails >= downAfter {
			r.setState(StateDown)
		}
	case StateDown:
		// upAfter guards against a replica that flaps; one that has
		// never been up has no failure to be doubted for, and holding
		// it back would keep a freshly started fleet answering 503 for
		// a whole checkInterval.
		if r.oks >= upAfter || (ok && !r.admitted) {
			r.setState(StateUp)
			r.admitted = true
		}
	case StateDraining:
		// A draining replica that stops answering is down, drained or
		// not (mid-drain kill). One that finished its outstanding work
		// is drained.
		if r.fails >= downAfter {
			r.setState(StateDown)
		} else if r.outstanding.Load() == 0 {
			r.setState(StateDrained)
		}
	case StateDrained:
		// Parked until readmitted.
	}
}

// probeOnce is the wire part of a probe: GET /healthz under the probe
// timeout, recording the epoch/vertices headers on success.
func (f *Fleet) probeOnce(r *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+httpapi.Healthz.Route, nil)
	if err != nil {
		return false
	}
	issued := time.Now()
	resp, err := f.httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Read to the end, so the connection goes back to the pool.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if e, err := strconv.ParseUint(resp.Header.Get(httpapi.EpochHeader), 10, 64); err == nil {
		r.observeEpoch(e, issued)
	}
	if v, err := strconv.ParseInt(resp.Header.Get(httpapi.VerticesHeader), 10, 64); err == nil {
		r.vertices.Store(v)
	}
	return true
}

// healthy returns the replicas currently accepting traffic.
func (f *Fleet) healthy() []*replica {
	var up []*replica
	for _, r := range f.replicas {
		if r.getState() == StateUp {
			up = append(up, r)
		}
	}
	return up
}

// pick chooses the next replica to try: the healthy untried one with
// the fewest outstanding forwards, ties to the first in the list. At
// low load that is always the first replica, whose cache then sees the
// whole stream: with no load to balance, spreading the stream over
// several caches would lower the hit rate and buy nothing.
func (f *Fleet) pick(tried map[*replica]bool) *replica {
	var best *replica
	var bestOut int64
	for _, r := range f.replicas {
		if r.getState() != StateUp || tried[r] {
			continue
		}
		out := r.outstanding.Load()
		if best == nil || out < bestOut {
			best, bestOut = r, out
		}
	}
	return best
}

// find resolves an admin-supplied replica name (host:port, with or
// without a scheme).
func (f *Fleet) find(name string) *replica {
	name = strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(strings.TrimSpace(name), "http://"), "https://"), "/")
	for _, r := range f.replicas {
		if r.addr == name {
			return r
		}
	}
	return nil
}

// Drain starts a graceful drain of the named replica: it leaves the
// routing set immediately and is marked drained once its outstanding
// requests finish.
func (f *Fleet) Drain(name string) error {
	r := f.find(name)
	if r == nil {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	switch r.getState() {
	case StateDraining, StateDrained:
		return nil
	}
	if r.outstanding.Load() == 0 {
		r.setState(StateDrained)
	} else {
		r.setState(StateDraining)
	}
	return nil
}

// Readmit returns a drained or down replica to probation: it rejoins
// the routing set after upAfter consecutive successful probes.
func (f *Fleet) Readmit(name string) error {
	r := f.find(name)
	if r == nil {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	if r.getState() == StateUp {
		return nil
	}
	r.setState(StateDown)
	return nil
}

// Snapshot reports every replica's current status, in list order.
func (f *Fleet) Snapshot() []ReplicaStatus {
	out := make([]ReplicaStatus, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = ReplicaStatus{
			Addr:        r.addr,
			State:       r.getState().String(),
			Outstanding: r.outstanding.Load(),
			Epoch:       r.epoch.Load(),
			Vertices:    r.vertices.Load(),
			Forwards:    r.forwards.Load(),
			Errors:      r.errors.Load(),
		}
	}
	return out
}

// Vertices returns the vertex-ID space reported by the fleet's
// replicas (the maximum seen, 0 when no probe has succeeded yet).
func (f *Fleet) Vertices() int64 {
	var n int64
	for _, r := range f.replicas {
		n = max(n, r.vertices.Load())
	}
	return n
}

// NumReplicas returns the fixed replica count.
func (f *Fleet) NumReplicas() int { return len(f.replicas) }
