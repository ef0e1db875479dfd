package fleet

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos is a seeded fault-injecting wrapper around a replica handler,
// the serving-tier sibling of the Pregel FaultTransport: it turns a
// well-behaved replica into one that drops connections, delays
// responses, and answers in 5xx bursts, deterministically per seed.
// The fleet tests wrap real QueryHandlers in it to prove the router's
// retry, health-flap, and drain machinery under misbehavior, and the
// Kill switch simulates a process death (every request aborted, the
// way a killed drserve looks to the router) without tearing down the
// listener — so the same replica can be "restarted" by flipping it
// back.
type Chaos struct {
	next http.Handler
	opts ChaosOptions

	mu    sync.Mutex // guards rng and burst
	rng   *rand.Rand
	burst int // remaining responses of the current 5xx burst

	dead atomic.Bool

	drops  atomic.Int64
	delays atomic.Int64
	fails  atomic.Int64
}

// ChaosOptions configures the injected faults. All rates are
// per-request probabilities in [0, 1]; zero disables that fault.
type ChaosOptions struct {
	// Seed makes the fault schedule deterministic.
	Seed int64
	// DropRate aborts the connection without any response — the
	// client sees a transport error, like a crashed process.
	DropRate float64
	// DelayRate stalls the request by Delay before serving it.
	DelayRate float64
	// Delay is the injected stall.
	Delay time.Duration
	// ErrorRate starts a burst of BurstLen consecutive 503 responses.
	ErrorRate float64
	// BurstLen is the length of one 5xx burst; below 1 it is 1.
	BurstLen int
	// ExemptHealth spares GET /healthz from injected faults, so the
	// replica misbehaves toward queries while still probing healthy —
	// the nastiest case for the router's retry logic. Kill overrides
	// this: a dead replica fails its probes too.
	ExemptHealth bool
}

// NewChaos wraps next in a fault injector.
func NewChaos(next http.Handler, opts ChaosOptions) *Chaos {
	return &Chaos{
		next: next,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// Kill marks the replica dead (every request, including health
// probes, aborts at the connection level) or alive again. It models
// kill -9 plus restart on the same address.
func (c *Chaos) Kill(dead bool) { c.dead.Store(dead) }

// Counts reports the injected faults so far.
func (c *Chaos) Counts() (drops, delays, fails int64) {
	return c.drops.Load(), c.delays.Load(), c.fails.Load()
}

// ServeHTTP implements http.Handler with faults injected up front.
func (c *Chaos) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.dead.Load() {
		c.drops.Add(1)
		panic(http.ErrAbortHandler)
	}
	if c.opts.ExemptHealth && r.Method == http.MethodGet && r.URL.Path == "/healthz" {
		c.next.ServeHTTP(w, r)
		return
	}

	c.mu.Lock()
	if c.burst > 0 {
		c.burst--
		c.mu.Unlock()
		c.fails.Add(1)
		http.Error(w, "injected fault: unavailable", http.StatusServiceUnavailable)
		return
	}
	roll := c.rng.Float64()
	drop := roll < c.opts.DropRate
	roll = c.rng.Float64()
	delay := roll < c.opts.DelayRate
	roll = c.rng.Float64()
	if roll < c.opts.ErrorRate {
		c.burst = c.opts.BurstLen - 1 // the rest of the burst; none below 1
		c.mu.Unlock()
		c.fails.Add(1)
		http.Error(w, "injected fault: unavailable", http.StatusServiceUnavailable)
		return
	}
	c.mu.Unlock()

	if drop {
		c.drops.Add(1)
		// http.Server recognizes ErrAbortHandler and closes the
		// connection without a response — exactly a mid-request crash.
		panic(http.ErrAbortHandler)
	}
	if delay {
		c.delays.Add(1)
		time.Sleep(c.opts.Delay)
	}
	c.next.ServeHTTP(w, r)
}
