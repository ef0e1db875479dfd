package reachlab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/graph"
)

// The in-process fleet fixture: K real QueryHandlers (each serving
// the same built index behind its own cache and metrics registry) on
// httptest listeners, fronted by a started fleet router — the whole
// multi-process serving topology inside one test binary, so the
// reload-under-load and fault soaks run under -race in CI.

type fleetFixture struct {
	g        *Graph
	idx      *Index
	handlers []*QueryHandler
	servers  []*httptest.Server
	chaos    []*fleet.Chaos
	fleet    *fleet.Fleet
	router   *httptest.Server

	reloads atomic.Int64 // loader invocations across all replicas
}

type fleetFixtureOptions struct {
	replicas int
	mode     fleet.Mode          // ignored by the router; TestFleetModesOracle sets each value
	chaos    *fleet.ChaosOptions // applied per replica with seed+i
	// loader, when set, is installed on every replica so
	// /admin/reload works; it receives the fixture for bookkeeping.
	loader func(fx *fleetFixture, ref string) (*Index, error)
}

func newFleetFixture(t *testing.T, opts fleetFixtureOptions) *fleetFixture {
	t.Helper()
	fx := &fleetFixture{}
	fx.g = randomCyclicGraph(80, 260, 17)
	idx, err := Build(context.Background(), fx.g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx.idx = idx

	addrs := make([]string, opts.replicas)
	for i := 0; i < opts.replicas; i++ {
		var loader func(ref string) (*Index, error)
		if opts.loader != nil {
			loader = func(ref string) (*Index, error) { return opts.loader(fx, ref) }
		}
		h := NewQueryHandlerOpts(idx, ServeOptions{
			Obs:        NewMetricsRegistry(),
			CachePairs: 1024,
			Loader:     loader,
		})
		fx.handlers = append(fx.handlers, h)
		var hh http.Handler = h
		if opts.chaos != nil {
			co := *opts.chaos
			co.Seed += int64(i)
			c := fleet.NewChaos(hh, co)
			fx.chaos = append(fx.chaos, c)
			hh = c
		}
		srv := httptest.NewServer(hh)
		t.Cleanup(srv.Close)
		fx.servers = append(fx.servers, srv)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}

	// The router probes on a fake clock, advanced by its 500 ms probe
	// interval every 20 ms of real time: at a test's pace.
	clk := clock.Fake(t)
	f, err := fleet.New(addrs, fleet.Options{Mode: opts.mode})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Close)
	stop, paced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(paced)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				clk.Advance(500 * time.Millisecond)
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-paced
	})
	fx.fleet = f
	fx.router = httptest.NewServer(f)
	t.Cleanup(fx.router.Close)

	deadline := time.Now().Add(5 * time.Second)
	for len(f.Snapshot()) > 0 {
		up := 0
		for _, s := range f.Snapshot() {
			if s.State == "up" {
				up++
			}
		}
		if up == opts.replicas {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never became healthy: %+v", f.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fx
}

// verifyingBatchClient returns a bench.Client POSTing batches to the
// router and checking every answer against the BFS oracle.
func (fx *fleetFixture) verifyingBatchClient(httpc *http.Client) bench.Client {
	return func(pairs []graph.Edge) error {
		req := struct {
			Pairs [][2]int64 `json:"pairs"`
		}{Pairs: make([][2]int64, len(pairs))}
		for i, p := range pairs {
			req.Pairs[i] = [2]int64{int64(p.U), int64(p.V)}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := httpc.Post(fx.router.URL+"/reach/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var body struct {
			Count   int    `json:"count"`
			Results []bool `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		if body.Count != len(pairs) || len(body.Results) != len(pairs) {
			return fmt.Errorf("%d answers for %d pairs", len(body.Results), len(pairs))
		}
		for i, p := range pairs {
			if body.Results[i] != fx.g.ReachableBFS(p.U, p.V) {
				return fmt.Errorf("reach(%d,%d): fleet says %v, oracle disagrees", p.U, p.V, body.Results[i])
			}
		}
		return nil
	}
}

// TestFleetModesOracle drives the router over real indexes under each
// value of the ignored fleet.Options.Mode: every single and batch answer
// through the router must match the BFS oracle, and a single answer
// carries the epoch header.
func TestFleetModesOracle(t *testing.T) {
	for _, mode := range []fleet.Mode{fleet.Replicated, fleet.Sharded} {
		t.Run(string(mode), func(t *testing.T) {
			fx := newFleetFixture(t, fleetFixtureOptions{replicas: 3, mode: mode})
			n := fx.g.NumVertices()
			client := fx.router.Client()

			for i := 0; i < 60; i++ {
				s, u := (i*7)%n, (i*13+3)%n
				resp, err := client.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", fx.router.URL, s, u))
				if err != nil {
					t.Fatal(err)
				}
				var body struct {
					Reachable bool `json:"reachable"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				epoch := resp.Header.Get(EpochHeader)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if want := fx.g.ReachableBFS(VertexID(s), VertexID(u)); body.Reachable != want {
					t.Fatalf("reach(%d,%d) = %v, oracle says %v", s, u, body.Reachable, want)
				}
				if epoch != "1" {
					t.Fatalf("epoch header %q, want 1", epoch)
				}
			}

			bc := fx.verifyingBatchClient(client)
			pairs := make([]graph.Edge, 40)
			for i := range pairs {
				pairs[i] = graph.Edge{U: VertexID((i * 3) % n), V: VertexID((i*11 + 1) % n)}
			}
			// Duplicates on purpose: one answer a pair, in caller order.
			pairs = append(pairs, pairs[:10]...)
			if err := bc(pairs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFleetChaosSoak wraps every replica in the seeded fault injector
// (drops, delays, 5xx bursts — health exempted so replicas stay in
// rotation and the router's retries do the work) and soaks verified
// batch traffic through the router: zero failed requests, zero wrong
// answers.
func TestFleetChaosSoak(t *testing.T) {
	fx := newFleetFixture(t, fleetFixtureOptions{
		replicas: 3,
		chaos: &fleet.ChaosOptions{
			Seed:         400,
			DropRate:     0.05,
			DelayRate:    0.10,
			Delay:        2 * time.Millisecond,
			ErrorRate:    0.03,
			BurstLen:     2,
			ExemptHealth: true,
		},
	})
	res := bench.RunLoadgen(bench.LoadgenOptions{
		Clients:   6,
		Duration:  400 * time.Millisecond,
		BatchSize: 8,
		Vertices:  fx.g.NumVertices(),
		ZipfS:     1.2,
		Seed:      12,
	}, fx.verifyingBatchClient(fx.router.Client()))

	if res.Errors != 0 {
		t.Fatalf("%d of %d requests failed under chaos", res.Errors, res.Requests)
	}
	if res.Requests == 0 {
		t.Fatal("soak sent no traffic")
	}
	var injected int64
	for _, c := range fx.chaos {
		d, _, e := c.Counts()
		injected += d + e
	}
	if injected == 0 {
		t.Fatal("chaos injected nothing; the soak proved nothing")
	}
}

// TestFleetReloadUnderLoadSoak is the tentpole gate: verified batch
// traffic flows through the router while every replica's
// index is hot-swapped over and over via the fleet-wide
// /admin/reload. Across ≥3 epoch swaps there must be zero failed
// requests and zero answers disagreeing with the BFS oracle, and
// every replica must land on the same final epoch.
func TestFleetReloadUnderLoadSoak(t *testing.T) {
	fx := newFleetFixture(t, fleetFixtureOptions{
		replicas: 3,
		loader: func(fx *fleetFixture, ref string) (*Index, error) {
			// A "new build" of the same graph: round-trip the index
			// through its serialized form so every swap installs a
			// distinct, freshly allocated Index answering identically.
			fx.reloads.Add(1)
			var buf bytes.Buffer
			if _, err := fx.idx.WriteTo(&buf); err != nil {
				return nil, err
			}
			return ReadIndex(&buf)
		},
	})

	httpc := fx.router.Client()
	const wantSwaps = 4
	var swaps atomic.Int64
	res := bench.RunLoadgen(bench.LoadgenOptions{
		Clients:      6,
		Duration:     900 * time.Millisecond,
		BatchSize:    8,
		Vertices:     fx.g.NumVertices(),
		ZipfS:        1.2,
		Seed:         21,
		DisruptEvery: 150 * time.Millisecond,
		Disrupt: func(k int) error {
			resp, err := httpc.Post(fx.router.URL+"/admin/reload", "application/json", strings.NewReader("{}"))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("fleet reload status %d", resp.StatusCode)
			}
			swaps.Add(1)
			return nil
		},
	}, fx.verifyingBatchClient(httpc))

	if res.Errors != 0 {
		t.Fatalf("%d of %d requests failed across reloads", res.Errors, res.Requests)
	}
	if res.DisruptErrors != 0 {
		t.Fatalf("%d of %d reloads failed", res.DisruptErrors, res.Disruptions)
	}
	if swaps.Load() < 3 {
		// The soak is time-paced; make the ≥3-swap guarantee explicit
		// by topping up rather than flaking on a slow runner.
		for swaps.Load() < wantSwaps {
			resp, err := httpc.Post(fx.router.URL+"/admin/reload", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("top-up reload status %d", resp.StatusCode)
			}
			swaps.Add(1)
		}
		// And verify traffic still flows after the late swaps.
		if err := fx.verifyingBatchClient(httpc)([]graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}); err != nil {
			t.Fatal(err)
		}
	}

	// Every replica advanced once per swap, in lockstep.
	wantEpoch := uint64(swaps.Load()) + 1
	for i, h := range fx.handlers {
		if e := h.Epoch(); e != wantEpoch {
			t.Errorf("replica %d at epoch %d after %d swaps, want %d", i, e, swaps.Load(), wantEpoch)
		}
	}
	if fx.reloads.Load() < 3*3 {
		t.Errorf("loader ran %d times, want ≥9 (3 replicas × ≥3 swaps)", fx.reloads.Load())
	}

	// The router's view agrees, on one sample: the reload fan-out records
	// each new epoch, and a health probe answered just before the last
	// swap cannot overwrite it with its older one (replica.observeEpoch).
	for _, s := range fx.fleet.Snapshot() {
		if s.Epoch != wantEpoch {
			t.Errorf("router sees %s at epoch %d, want %d", s.Addr, s.Epoch, wantEpoch)
		}
	}
}

// TestFleetDrainKillReadmitUnderLoad exercises the full replica
// lifecycle under verified load: drain one replica, kill it mid-
// drain (chaos Kill: every request including probes aborts), keep
// traffic flowing, revive it, readmit it, and see it serve again —
// all with zero client-visible failures.
func TestFleetDrainKillReadmitUnderLoad(t *testing.T) {
	fx := newFleetFixture(t, fleetFixtureOptions{
		replicas: 3,
		chaos:    &fleet.ChaosOptions{Seed: 50}, // all rates zero: a pure kill switch
	})
	httpc := fx.router.Client()
	victim := strings.TrimPrefix(fx.servers[1].URL, "http://")

	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	bc := fx.verifyingBatchClient(httpc)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := fx.g.NumVertices()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pairs := []graph.Edge{
					{U: VertexID((w + i) % n), V: VertexID((w*3 + i*7) % n)},
					{U: VertexID((i * 5) % n), V: VertexID((w + i*11) % n)},
				}
				if err := bc(pairs); err != nil {
					failures.Add(1)
				}
			}
		}(w)
	}

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, s := range fx.fleet.Snapshot() {
				if s.Addr == victim && s.State == want {
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("replica %s never reached state %s: %+v", victim, want, fx.fleet.Snapshot())
	}

	// Drain.
	resp, err := httpc.Post(fx.router.URL+"/admin/drain?replica="+victim, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState("drained")

	// Kill while out of rotation.
	fx.chaos[1].Kill(true)

	// Readmitting a corpse must park it at down, not up, and there it
	// stays through the probe rounds it fails.
	resp, err = httpc.Post(fx.router.URL+"/admin/readmit?replica="+victim, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState("down")
	drops, _, _ := fx.chaos[1].Counts()
	deadline := time.Now().Add(5 * time.Second)
	for d, _, _ := fx.chaos[1].Counts(); d < drops+4; d, _, _ = fx.chaos[1].Counts() {
		if time.Now().After(deadline) {
			t.Fatal("the corpse's probes were never refused")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitState("down")

	// Revive; the health loop readmits it.
	fx.chaos[1].Kill(false)
	waitState("up")

	// It serves traffic again.
	reg := fx.handlers[1]
	h0, m0 := reg.CacheStats()
	deadline = time.Now().Add(5 * time.Second)
	for {
		h, m := reg.CacheStats()
		if h+m > h0+m0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readmitted replica never served a query")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d client-visible failures across drain/kill/readmit", failures.Load())
	}
}
