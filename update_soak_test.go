package reachlab

// The update/query soak: the headline test of the mutation path.
// Seeded writers mutate the graph through POST /edges while
// chaos-wrapped readers query /reach and /reach/batch; every answer
// is verified after the fact against a dynamic BFS oracle evaluated
// at the exact epoch the server stamped on the response
// (X-Reachlab-Epoch + Updater.EpochSeq pin the set of log records
// that epoch must and must not contain). Chaos kills reader requests
// mid-flight and stretches the refresher's pre-swap window; none of
// it may produce a single answer inconsistent with the answered
// epoch, and a simulated crash at the end may not lose one
// acknowledged write. Run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

// Soak topology: a random directed component on [0, soakRand) plus
// two disjoint chains of soakChain vertices each. Chain-local skip
// edges keep ANC×DES ≤ (soakChain/2)² — under the 8·(n+m) rebuild
// threshold — so a dedicated writer guarantees repair-path traffic,
// while toggling the bridge between the chains puts soakChain² well
// over it, guaranteeing rebuild-path traffic.
const (
	soakRand      = 200
	soakRandEdges = 400
	soakChain     = 150
	soakN         = soakRand + 2*soakChain
	soakChainA    = soakRand
	soakChainB    = soakRand + soakChain
)

func soakBaseEdges(rng *rand.Rand) []Edge {
	seen := make(map[[2]int]bool)
	var edges []Edge
	for len(edges) < soakRandEdges {
		u, v := rng.Intn(soakRand), rng.Intn(soakRand)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, Edge{From: VertexID(u), To: VertexID(v)})
	}
	for _, base := range []int{soakChainA, soakChainB} {
		for i := 0; i < soakChain-1; i++ {
			edges = append(edges, Edge{From: VertexID(base + i), To: VertexID(base + i + 1)})
		}
	}
	return edges
}

// soakOp is one acknowledged mutation: the oracle replays these in
// seq order, mirroring the maintainer's set semantics exactly.
type soakOp struct {
	seq, epoch uint64
	insert     bool
	u, v       VertexID
}

// soakSample is one successful read: what the server answered and at
// which epoch it claims the answer was exact. kind 0 is a point,
// batch or /reach/from answer; 'c' is a /reach/count answer carrying
// count; 'p' is a /reach/path answer carrying the witness path, whose
// every hop must be an edge of that exact epoch's graph.
type soakSample struct {
	s, t      VertexID
	reachable bool
	epoch     uint64
	kind      byte
	count     int
	path      []VertexID
}

// soakOracle is the reference graph as an adjacency set, replaying
// acknowledged ops with the maintainer's semantics (duplicate insert
// and missing delete are no-ops by construction of a set).
type soakOracle []map[VertexID]bool

func newSoakOracle(edges []Edge) soakOracle {
	adj := make(soakOracle, soakN)
	for i := range adj {
		adj[i] = make(map[VertexID]bool)
	}
	for _, e := range edges {
		adj[e.From][e.To] = true
	}
	return adj
}

func (adj soakOracle) apply(op soakOp) {
	if op.insert {
		adj[op.u][op.v] = true
	} else {
		delete(adj[op.u], op.v)
	}
}

// reachAll BFSes from s and returns the reached-vertex bitmap.
func (adj soakOracle) reachAll(s VertexID) []bool {
	seen := make([]bool, soakN)
	seen[s] = true
	queue := []VertexID{s}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		next := make([]VertexID, 0, len(adj[w]))
		for x := range adj[w] {
			next = append(next, x)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, x := range next {
			if !seen[x] {
				seen[x] = true
				queue = append(queue, x)
			}
		}
	}
	return seen
}

func TestUpdateQuerySoak(t *testing.T) {
	chainOps, randOps, bridgeToggles, perReader := 120, 120, 30, 300
	if testing.Short() {
		chainOps, randOps, bridgeToggles, perReader = 40, 40, 10, 100
	}
	const readers = 4

	rng := rand.New(rand.NewSource(0x50AC))
	baseEdges := soakBaseEdges(rng)
	g := NewGraph(soakN, baseEdges)

	walPath := filepath.Join(t.TempDir(), "edges.wal")
	log, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(g, log, UpdaterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The refresher turns on a fake clock the test advances, and drains
	// a burst over several epochs (the batch set before Start): the tick
	// driver below advances it only after some reader has been answered
	// at the serving epoch, so every epoch published while the readers
	// run is sampled and the run's epoch count follows from its write
	// count, however slowly -race or a loaded host turns the refresher
	// over.
	clk := clock.Fake(t)
	u.batch = 16
	// Chaos on the refresher: every few refreshes, stall between the
	// batch apply and the snapshot swap — the widest window in which
	// readers must keep getting old-epoch answers with the old-epoch
	// header. Set before Start (the hook field is read by the
	// refresher goroutine only).
	var hookTick atomic.Int64
	u.testHookMidRefresh = func() {
		if hookTick.Add(1)%4 == 0 {
			time.Sleep(3 * time.Millisecond)
		}
	}
	h := NewQueryHandlerOpts(u.Snapshot(), ServeOptions{})
	h.EnableUpdates(u)
	u.Start(h)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var (
		sampledEpoch atomic.Uint64 // the highest epoch a reader was answered at
		readersDone  atomic.Bool
	)
	tickStop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			for sampledEpoch.Load() < h.Epoch() && !readersDone.Load() {
				select {
				case <-tickStop:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
			select {
			case <-tickStop:
				return
			default:
				clk.Advance(u.every) // returns once the refresher has the tick
			}
		}
	}()
	stopTicks := sync.OnceFunc(func() {
		close(tickStop)
		ticker.Wait()
	})
	defer stopTicks()

	// --- writers: every ack recorded for the oracle ------------------
	var (
		opsMu sync.Mutex
		ops   []soakOp
	)
	post := func(insert bool, a, b VertexID) error {
		op := "delete"
		if insert {
			op = "insert"
		}
		body, _ := json.Marshal(httpapi.EdgeRequest{Op: op, U: int64(a), V: int64(b)})
		resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /edges %s(%d,%d): status %d", op, a, b, resp.StatusCode)
		}
		var ack httpapi.EdgeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return err
		}
		opsMu.Lock()
		ops = append(ops, soakOp{seq: ack.Seq, epoch: ack.Epoch, insert: insert, u: a, v: b})
		opsMu.Unlock()
		return nil
	}

	var writers sync.WaitGroup
	// Writer 1: chain-local skip edges — guaranteed repair path.
	writers.Add(1)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(101))
		for k := 0; k < chainOps; k += 2 {
			c := VertexID(soakChainA + wrng.Intn(soakChain-2))
			for _, insert := range []bool{true, false} {
				if err := post(insert, c, c+2); err != nil {
					t.Error(err)
					return
				}
			}
			if k%16 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Writer 2: arbitrary pairs in the random component (self-loops
	// and collisions with base edges included — the oracle mirrors
	// whatever the set semantics make of them).
	writers.Add(1)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(202))
		for k := 0; k < randOps; k += 2 {
			a, b := VertexID(wrng.Intn(soakRand)), VertexID(wrng.Intn(soakRand))
			for _, insert := range []bool{true, false} {
				if err := post(insert, a, b); err != nil {
					t.Error(err)
					return
				}
			}
			if k%16 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Writer 3: toggles the chain bridge — guaranteed rebuild path.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for k := 0; k < bridgeToggles; k++ {
			if err := post(k%2 == 0, soakChainA+soakChain-1, soakChainB); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// --- readers: chaos-wrapped, recording (query, answer, epoch) ----
	var (
		samplesMu sync.Mutex
		samples   []soakSample
		killed    atomic.Int64
	)
	client := srv.Client()
	// perReader is a minimum: past it a reader keeps sampling until it
	// has been answered at finalEpoch — the epoch promised to the last
	// acknowledged write, published once the writers finish — so the
	// samples span the run's epochs however slowly the refresher turns
	// them over (-race slows it far more than it slows the readers).
	// A refresher that has not caught up by readUntil fails the drain
	// check below instead of hanging the readers.
	var finalEpoch atomic.Uint64
	finalEpoch.Store(math.MaxUint64)
	readUntil := time.Now().Add(2 * time.Minute)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rrng := rand.New(rand.NewSource(int64(7001 + r)))
			local := make([]soakSample, 0, perReader)
			caughtUp := func() bool {
				return len(local) > 0 && local[len(local)-1].epoch >= finalEpoch.Load()
			}
			for q := 0; q < perReader || (!caughtUp() && time.Now().Before(readUntil)); q++ {
				if len(local) > 0 { // tell the tick driver how far the readers have seen
					for e := local[len(local)-1].epoch; ; {
						if cur := sampledEpoch.Load(); cur >= e || sampledEpoch.CompareAndSwap(cur, e) {
							break
						}
					}
				}
				s := VertexID(rrng.Intn(soakN))
				tt := VertexID(rrng.Intn(soakN))
				switch roll := rrng.Intn(12); {
				case roll == 0:
					// Kill: a deadline far below the server's latency
					// floor cancels the request mid-flight.
					ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
					req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
						fmt.Sprintf("%s/reach?s=%d&t=%d", srv.URL, s, tt), nil)
					if resp, err := client.Do(req); err != nil {
						killed.Add(1)
					} else {
						resp.Body.Close()
					}
					cancel()
					continue
				case roll == 1:
					time.Sleep(time.Duration(rrng.Intn(1500)) * time.Microsecond)
				case roll == 2:
					// Batch read: four pairs answered under one epoch.
					pairs := [][2]int64{{int64(s), int64(tt)}}
					for len(pairs) < 4 {
						pairs = append(pairs, [2]int64{int64(rrng.Intn(soakN)), int64(rrng.Intn(soakN))})
					}
					body, _ := json.Marshal(httpapi.BatchRequest{Pairs: pairs})
					resp, err := client.Post(srv.URL+"/reach/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("reader %d: batch: %v", r, err)
						return
					}
					var br httpapi.BatchResponse
					epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil || len(br.Results) != len(pairs) {
						t.Errorf("reader %d: batch decode: %v (%d results)", r, err, len(br.Results))
						return
					}
					for i, p := range pairs {
						local = append(local, soakSample{s: VertexID(p[0]), t: VertexID(p[1]), reachable: br.Results[i], epoch: epoch})
					}
					continue
				case roll == 3:
					// Set-size read: count must equal the popcount of the
					// oracle's reach set at the answered epoch.
					resp, err := client.Get(fmt.Sprintf("%s/reach/count?s=%d", srv.URL, s))
					if err != nil {
						t.Errorf("reader %d: count: %v", r, err)
						return
					}
					var cr struct {
						Count int `json:"count"`
					}
					epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
					err = json.NewDecoder(resp.Body).Decode(&cr)
					resp.Body.Close()
					if err != nil {
						t.Errorf("reader %d: count decode: %v", r, err)
						return
					}
					local = append(local, soakSample{s: s, epoch: epoch, kind: 'c', count: cr.Count})
					continue
				case roll == 4:
					// Witness-path read: every hop must be an edge of the
					// answered epoch's graph — the refresher attaches each
					// epoch's own graph at swap time, so a path walked
					// against a stale graph would carry phantom edges.
					resp, err := client.Get(fmt.Sprintf("%s/reach/path?s=%d&t=%d", srv.URL, s, tt))
					if err != nil {
						t.Errorf("reader %d: path: %v", r, err)
						return
					}
					var pr struct {
						Reachable bool       `json:"reachable"`
						Path      []VertexID `json:"path"`
					}
					epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
					err = json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil {
						t.Errorf("reader %d: path decode: %v", r, err)
						return
					}
					local = append(local, soakSample{s: s, t: tt, reachable: pr.Reachable, epoch: epoch, kind: 'p', path: pr.Path})
					continue
				case roll == 5:
					// One-source sweep: six targets under one epoch.
					targets := []int64{int64(tt)}
					for len(targets) < 6 {
						targets = append(targets, int64(rrng.Intn(soakN)))
					}
					body, _ := json.Marshal(httpapi.FromRequest{S: int64(s), Targets: targets})
					resp, err := client.Post(srv.URL+"/reach/from", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("reader %d: from: %v", r, err)
						return
					}
					var fr httpapi.FromResponse
					epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
					err = json.NewDecoder(resp.Body).Decode(&fr)
					resp.Body.Close()
					if err != nil || len(fr.Results) != len(targets) {
						t.Errorf("reader %d: from decode: %v (%d results)", r, err, len(fr.Results))
						return
					}
					for i, x := range targets {
						local = append(local, soakSample{s: s, t: VertexID(x), reachable: fr.Results[i], epoch: epoch})
					}
					continue
				}
				resp, err := client.Get(fmt.Sprintf("%s/reach?s=%d&t=%d", srv.URL, s, tt))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				var got httpapi.ReachResponse
				epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					t.Errorf("reader %d: decode: %v", r, err)
					return
				}
				local = append(local, soakSample{s: s, t: tt, reachable: got.Reachable, epoch: epoch})
			}
			samplesMu.Lock()
			samples = append(samples, local...)
			samplesMu.Unlock()
		}(r)
	}

	writers.Wait()
	// The last write is a chain-local insert nothing follows: a repair,
	// so the final epoch — which every reader stays to be answered at —
	// is the shared base under a non-empty overlay.
	if err := post(true, soakChainA+1, soakChainA+3); err != nil {
		t.Fatal(err)
	}
	var lastPromised uint64
	opsMu.Lock()
	for _, op := range ops {
		lastPromised = max(lastPromised, op.epoch)
	}
	opsMu.Unlock()
	finalEpoch.Store(lastPromised)
	rwg.Wait()
	readersDone.Store(true) // the tick driver now drains the backlog unpaced
	if t.Failed() {
		return
	}

	// Drain the backlog so the final snapshot covers every ack.
	lastSeq := log.LastSeq()
	deadline := time.Now().Add(30 * time.Second)
	for u.AppliedSeq() < lastSeq {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: applied %d of %d", u.AppliedSeq(), lastSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// --- the ledger is contiguous and every promise materialized -----
	sort.Slice(ops, func(i, j int) bool { return ops[i].seq < ops[j].seq })
	if uint64(len(ops)) != lastSeq {
		t.Fatalf("recorded %d acks but log holds %d records", len(ops), lastSeq)
	}
	for i, op := range ops {
		if op.seq != uint64(i+1) {
			t.Fatalf("ack ledger has a gap at %d: seq %d", i, op.seq)
		}
		cut, ok := u.EpochSeq(op.epoch)
		if !ok {
			t.Fatalf("promised epoch %d for seq %d never materialized", op.epoch, op.seq)
		}
		if cut < op.seq {
			t.Fatalf("epoch %d cut at %d excludes promised seq %d", op.epoch, cut, op.seq)
		}
		if prev, ok := u.EpochSeq(op.epoch - 1); ok && prev >= op.seq {
			t.Fatalf("seq %d already present one epoch before its promise %d", op.seq, op.epoch)
		}
	}

	// --- verify every sample at its answered epoch -------------------
	byEpoch := make(map[uint64][]soakSample)
	for _, s := range samples {
		byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) < 3 {
		t.Fatalf("soak observed only %d distinct epochs — no churn to verify against", len(epochs))
	}

	oracle := newSoakOracle(baseEdges)
	opIdx, mismatches := 0, 0
	for _, e := range epochs {
		cut, ok := u.EpochSeq(e)
		if !ok {
			t.Fatalf("server answered at epoch %d, unknown to the updater", e)
		}
		for opIdx < len(ops) && ops[opIdx].seq <= cut {
			oracle.apply(ops[opIdx])
			opIdx++
		}
		memo := make(map[VertexID][]bool)
		reachRow := func(v VertexID) []bool {
			row, ok := memo[v]
			if !ok {
				row = oracle.reachAll(v)
				memo[v] = row
			}
			return row
		}
		for _, s := range byEpoch[e] {
			switch s.kind {
			case 'c':
				want := 0
				for _, r := range reachRow(s.s) {
					if r {
						want++
					}
				}
				if s.count != want {
					mismatches++
					t.Errorf("epoch %d (cut seq %d): count(%d) answered %d, oracle says %d",
						e, cut, s.s, s.count, want)
				}
			case 'p':
				if reach := reachRow(s.s); reach[s.t] != s.reachable {
					mismatches++
					t.Errorf("epoch %d (cut seq %d): path(%d,%d) answered reachable=%v, oracle says %v",
						e, cut, s.s, s.t, s.reachable, reach[s.t])
					continue
				}
				if !s.reachable {
					continue
				}
				if len(s.path) == 0 || s.path[0] != s.s || s.path[len(s.path)-1] != s.t {
					mismatches++
					t.Errorf("epoch %d: path(%d,%d) endpoints wrong: %v", e, s.s, s.t, s.path)
					continue
				}
				for i := 0; i+1 < len(s.path); i++ {
					if !oracle[s.path[i]][s.path[i+1]] {
						mismatches++
						t.Errorf("epoch %d (cut seq %d): path(%d,%d) hop %d→%d is not an edge of that epoch's graph",
							e, cut, s.s, s.t, s.path[i], s.path[i+1])
					}
				}
			default:
				if reach := reachRow(s.s); reach[s.t] != s.reachable {
					mismatches++
					t.Errorf("epoch %d (cut seq %d): reach(%d,%d) answered %v, oracle says %v",
						e, cut, s.s, s.t, s.reachable, reach[s.t])
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d samples contradict the oracle at their answered epoch", mismatches, len(samples))
	}

	// Both maintenance paths must have carried real traffic, and the
	// final epoch verified above must have been a base under an overlay.
	stats := u.Stats()
	if stats.Repairs == 0 || stats.Rebuilds == 0 {
		t.Fatalf("soak did not exercise both maintenance paths: %+v", stats)
	}
	if stats.OverlayVertices == 0 {
		t.Fatalf("the final epoch carries no overlay: %+v", stats)
	}
	t.Logf("soak: %d ops, %d samples across %d epochs, %d chaos-killed reads, stats %+v",
		len(ops), len(samples), len(epochs), killed.Load(), stats)

	// --- crash and recover: zero lost acknowledged writes ------------
	for opIdx < len(ops) {
		oracle.apply(ops[opIdx])
		opIdx++
	}
	stopTicks()
	u.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	u2, err := NewUpdater(g, log2, UpdaterOptions{RefreshEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if got := u2.AppliedSeq(); got != lastSeq {
		t.Fatalf("recovery replayed to seq %d, want %d", got, lastSeq)
	}
	idx2 := u2.Snapshot()
	vrng := rand.New(rand.NewSource(31337))
	for k := 0; k < 500; k++ {
		s := VertexID(vrng.Intn(soakN))
		tt := VertexID(vrng.Intn(soakN))
		if want := oracle.reachAll(s)[tt]; idx2.Reachable(s, tt) != want {
			t.Fatalf("after recovery: reach(%d,%d) = %v, oracle says %v", s, tt, !want, want)
		}
	}
}
