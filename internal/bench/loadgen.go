package bench

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Loadgen: the serving-layer companion to the build benchmarks. Where
// Runner measures index construction, the load generator measures the
// query machine under concurrent fire — N clients, zipfian pair
// traffic, per-request latency percentiles, achieved QPS — through a
// transport-agnostic Client so the same harness drives a live HTTP
// server (cmd/drload), the in-process index (tests), or anything else
// that answers pair batches.

// Client answers one batch of (s, t) pairs, returning an error when
// the request failed (transport error, bad status, or — with
// verification enabled — a wrong answer). Clients must be safe for
// concurrent use.
type Client func(pairs []graph.Edge) error

// LoadgenOptions configures RunLoadgen.
type LoadgenOptions struct {
	// Clients is the number of concurrent request loops (default 4).
	Clients int
	// Requests is the total request budget across clients. Ignored
	// when Duration is set.
	Requests int
	// Duration switches to soak mode: clients fire until the deadline
	// instead of until a request count.
	Duration time.Duration
	// BatchSize is the number of pairs per request (default 1).
	BatchSize int
	// Vertices is the vertex-ID space pairs are drawn from (required).
	Vertices int
	// ZipfS is the zipf skew of the pair distribution; values <= 1
	// fall back to uniform sampling (rand.Zipf requires s > 1).
	ZipfS float64
	// Seed makes the traffic deterministic per client (client i uses
	// Seed+i).
	Seed int64
	// Disrupt, when set with DisruptEvery, is fired from its own
	// goroutine every DisruptEvery for the duration of the run — the
	// during-reload mode: drload points it at POST /admin/reload so
	// epoch swaps land while the clients are firing. Disrupt errors
	// are counted separately from request errors.
	Disrupt func(k int) error
	// DisruptEvery is the period between Disrupt calls (required for
	// Disrupt to fire; the first call lands one period into the run).
	DisruptEvery time.Duration
	// Write, with Writers > 0, turns the run into an update mix:
	// Writers extra goroutines call it with deterministic edge
	// mutations (k-th call of writer w gets the writer's own seeded
	// edge and alternating insert/delete) while the query clients
	// keep firing. drload points it at POST /edges. Write errors are
	// counted separately from query errors.
	Write func(writer, k int, insert bool, u, v graph.VertexID) error
	// Writers is the number of concurrent writer loops.
	Writers int
	// WriteEvery throttles each writer to one mutation per period
	// (default: write back-to-back).
	WriteEvery time.Duration
	// WriteWindow restricts writer edge endpoints to the newest
	// WriteWindow vertex IDs ([Vertices-WriteWindow, Vertices)) — the
	// citation-growth regime, where new edges attach among recent
	// vertices and dynamic repair stays localized. 0 (or >= Vertices)
	// draws from the whole ID space.
	WriteWindow int
}

func (o LoadgenOptions) clients() int {
	if o.Clients <= 0 {
		return 4
	}
	return o.Clients
}

func (o LoadgenOptions) batch() int {
	if o.BatchSize <= 0 {
		return 1
	}
	return o.BatchSize
}

// LoadgenResult is the measured outcome of one load run.
type LoadgenResult struct {
	Requests      int64         // requests attempted
	Pairs         int64         // pairs asked (Requests × batch size)
	Errors        int64         // failed requests
	Disruptions   int64         // Disrupt calls fired during the run
	DisruptErrors int64         // Disrupt calls that returned an error
	Writes        int64         // edge mutations sent (update mix)
	WriteErrors   int64         // edge mutations that failed
	UPS           float64       // achieved writes per second
	Elapsed       time.Duration // wall time of the whole run
	QPS           float64       // achieved pairs per second
	Latency       QueryStats    // per-request latency distribution
}

// QueryStats is a measured latency distribution.
type QueryStats struct {
	Mean, P50, P90, P99 time.Duration
}

// EndpointResult is one endpoint's share of a multi-endpoint run.
type EndpointResult struct {
	Requests int64
	Errors   int64
}

// pairSampler draws (s, t) pairs, zipfian when skew permits.
type pairSampler struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newPairSampler(n int, zipfS float64, seed int64) *pairSampler {
	ps := &pairSampler{rng: rand.New(rand.NewSource(seed)), n: n}
	if zipfS > 1 && n > 1 {
		ps.zipf = rand.NewZipf(ps.rng, zipfS, 1, uint64(n-1))
	}
	return ps
}

func (ps *pairSampler) vertex() graph.VertexID {
	if ps.zipf != nil {
		return graph.VertexID(ps.zipf.Uint64())
	}
	return graph.VertexID(ps.rng.Intn(ps.n))
}

func (ps *pairSampler) fill(pairs []graph.Edge) {
	for i := range pairs {
		pairs[i] = graph.Edge{U: ps.vertex(), V: ps.vertex()}
	}
}

// RunLoadgen drives client from opts.Clients concurrent loops and
// aggregates latency and error statistics. Each client samples its
// own deterministic zipfian pair stream, so a fixed seed reproduces
// the exact traffic regardless of scheduling.
func RunLoadgen(opts LoadgenOptions, client Client) LoadgenResult {
	res, _ := RunLoadgenEndpoints(opts, []Client{client})
	return res
}

// RunLoadgenEndpoints is RunLoadgen over several endpoints at once:
// request i of client c goes to clients[(c+i) mod len(clients)], so
// traffic spreads evenly and deterministically, and each endpoint's
// request and error counts come back separately — when a fleet run
// reports errors, the per-endpoint tallies say which replica (or
// router) produced them.
func RunLoadgenEndpoints(opts LoadgenOptions, clients []Client) (LoadgenResult, []EndpointResult) {
	nc := opts.clients()
	ne := len(clients)
	if ne == 0 {
		return LoadgenResult{}, nil
	}
	batch := opts.batch()
	perClient := 0
	if opts.Duration <= 0 {
		perClient = opts.Requests / nc
		if perClient == 0 {
			perClient = 1
		}
	}
	type endpointCounters struct {
		requests atomic.Int64
		errors   atomic.Int64
	}
	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		errors   atomic.Int64
		perEnd   = make([]endpointCounters, ne)
		lats     = make([][]time.Duration, nc)
	)
	start := time.Now()
	deadline := start.Add(opts.Duration)
	stop := make(chan struct{})
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sampler := newPairSampler(opts.Vertices, opts.ZipfS, opts.Seed+int64(id))
			pairs := make([]graph.Edge, batch)
			var mine []time.Duration
			for i := 0; ; i++ {
				if opts.Duration > 0 {
					if time.Now().After(deadline) {
						break
					}
				} else if i >= perClient {
					break
				}
				sampler.fill(pairs)
				e := (id + i) % ne
				t0 := time.Now()
				err := clients[e](pairs)
				mine = append(mine, time.Since(t0))
				requests.Add(1)
				perEnd[e].requests.Add(1)
				if err != nil {
					errors.Add(1)
					perEnd[e].errors.Add(1)
				}
			}
			lats[id] = mine
		}(c)
	}

	// Writers run beside the query clients until they finish — the
	// update mix: each writer inserts a fresh seeded edge then deletes
	// it on the next call, so sustained load leaves the graph close to
	// its base state while every mutation is a real (non-no-op) update.
	var writes, writeErrs atomic.Int64
	var wwg sync.WaitGroup
	if opts.Write != nil && opts.Writers > 0 {
		for w := 0; w < opts.Writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				rng := rand.New(rand.NewSource(opts.Seed + 1_000_003*int64(w+1)))
				lo := 0
				if opts.WriteWindow > 0 && opts.WriteWindow < opts.Vertices {
					lo = opts.Vertices - opts.WriteWindow
				}
				span := opts.Vertices - lo
				var tick *time.Ticker
				if opts.WriteEvery > 0 {
					tick = time.NewTicker(opts.WriteEvery)
					defer tick.Stop()
				}
				var u, v graph.VertexID
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if tick != nil {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
					}
					insert := k%2 == 0
					if insert {
						u = graph.VertexID(lo + rng.Intn(span))
						v = graph.VertexID(lo + rng.Intn(span))
					}
					writes.Add(1)
					if err := opts.Write(w, k, insert, u, v); err != nil {
						writeErrs.Add(1)
					}
				}
			}(w)
		}
	}

	// The disruptor runs beside the clients until they finish — the
	// "during-reload" mode: every DisruptEvery it fires the hook
	// (index swap, replica kill, whatever the caller injects) while
	// traffic keeps flowing.
	var disruptions, disruptErrs atomic.Int64
	var dwg sync.WaitGroup
	if opts.Disrupt != nil && opts.DisruptEvery > 0 {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			t := time.NewTicker(opts.DisruptEvery)
			defer t.Stop()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-t.C:
					disruptions.Add(1)
					if err := opts.Disrupt(k); err != nil {
						disruptErrs.Add(1)
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	dwg.Wait()
	wwg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	res := LoadgenResult{
		Requests:      requests.Load(),
		Pairs:         requests.Load() * int64(batch),
		Errors:        errors.Load(),
		Disruptions:   disruptions.Load(),
		DisruptErrors: disruptErrs.Load(),
		Writes:        writes.Load(),
		WriteErrors:   writeErrs.Load(),
		Elapsed:       elapsed,
		Latency:       latencyStats(all),
	}
	if elapsed > 0 {
		res.QPS = float64(res.Pairs) / elapsed.Seconds()
		res.UPS = float64(res.Writes) / elapsed.Seconds()
	}
	ends := make([]EndpointResult, ne)
	for i := range perEnd {
		ends[i] = EndpointResult{
			Requests: perEnd[i].requests.Load(),
			Errors:   perEnd[i].errors.Load(),
		}
	}
	return res, ends
}

// latencyStats computes exact mean and percentiles over raw latencies.
func latencyStats(lats []time.Duration) QueryStats {
	if len(lats) == 0 {
		return QueryStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	pct := func(q float64) time.Duration {
		i := int(q*float64(len(lats)-1) + 0.5)
		return lats[i]
	}
	return QueryStats{
		Mean: total / time.Duration(len(lats)),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
}
