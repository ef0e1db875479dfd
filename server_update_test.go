package reachlab

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{From: VertexID(i), To: VertexID(i + 1)})
	}
	return NewGraph(n, edges)
}

// newUpdateServer wires the full mutation path over g: WAL in a temp
// dir, updater, handler serving the replayed snapshot.
func newUpdateServer(t *testing.T, g *Graph, opts UpdaterOptions) (*QueryHandler, *Updater, *wal.Log) {
	t.Helper()
	return startUpdateServer(t, g, opts, nil)
}

// startUpdateServer is newUpdateServer with prep, when not nil, run on
// the updater before Start: the place to lower its batch or hand it a
// tick channel to turn on instead of the clock (one refresh per value
// sent; a send returns only once the refresh before it is over).
func startUpdateServer(t *testing.T, g *Graph, opts UpdaterOptions, prep func(*Updater)) (*QueryHandler, *Updater, *wal.Log) {
	t.Helper()
	log, err := wal.Open(filepath.Join(t.TempDir(), "edges.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	u, err := NewUpdater(g, log, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(u)
	}
	h := NewQueryHandlerOpts(u.Snapshot(), ServeOptions{Obs: opts.Obs})
	h.EnableUpdates(u)
	u.Start(h)
	t.Cleanup(u.Close)
	return h, u, log
}

func postEdge(t *testing.T, srv *httptest.Server, op string, u, v int) httpapi.EdgeResponse {
	t.Helper()
	body, _ := json.Marshal(httpapi.EdgeRequest{Op: op, U: int64(u), V: int64(v)})
	resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges %s(%d,%d): status %d", op, u, v, resp.StatusCode)
	}
	var ack httpapi.EdgeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// waitEpoch polls until the handler serves at least epoch, failing
// after a generous deadline.
func waitEpoch(t *testing.T, h *QueryHandler, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.Epoch() < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never arrived (at %d)", epoch, h.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUpdaterMutationVisible: a POST /edges ack names an epoch; once
// the handler serves that epoch, the write is visible to queries.
func TestUpdaterMutationVisible(t *testing.T) {
	g := lineGraph(t, 10)
	h, u, _ := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: 5 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	if h.Index().Reachable(9, 0) {
		t.Fatal("line graph should not reach backwards")
	}
	ack := postEdge(t, srv, "insert", 9, 0)
	if ack.Seq != 1 {
		t.Fatalf("first append got seq %d", ack.Seq)
	}
	waitEpoch(t, h, ack.Epoch)
	// Query via HTTP so the epoch header is exercised too.
	resp, err := http.Get(srv.URL + "/reach?s=9&t=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got httpapi.ReachResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Reachable {
		t.Fatalf("edge (9,0) not visible at epoch %s", resp.Header.Get(EpochHeader))
	}
	if e, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64); e < ack.Epoch {
		t.Fatalf("answered epoch %d below promised %d", e, ack.Epoch)
	}
	// The delete round-trips.
	ack = postEdge(t, srv, "delete", 9, 0)
	waitEpoch(t, h, ack.Epoch)
	if h.Index().Reachable(9, 0) {
		t.Fatal("deleted edge still visible")
	}
	if s := u.Stats(); s.AppliedSeq != 2 || s.SeqLag != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

// TestUpdaterEpochPromiseExact: the acknowledged epoch is exactly the
// first epoch containing the write — never earlier, never later —
// across a burst larger than one refresh batch.
func TestUpdaterEpochPromiseExact(t *testing.T) {
	g := lineGraph(t, 50)
	_, u, _ := startUpdateServer(t, g, UpdaterOptions{RefreshEvery: 2 * time.Millisecond},
		func(u *Updater) { u.batch = 3 })

	type promise struct{ seq, epoch uint64 }
	var acks []promise
	for i := 0; i < 20; i++ {
		// Distinct forward skip-edges: all effective inserts.
		seq, epoch, err := u.Apply(true, VertexID(i), VertexID(i+2))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, promise{seq, epoch})
	}
	// Wait for the full drain.
	deadline := time.Now().Add(10 * time.Second)
	for u.AppliedSeq() < acks[len(acks)-1].seq {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: applied %d", u.AppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
	for _, a := range acks {
		cut, ok := u.EpochSeq(a.epoch)
		if !ok {
			t.Fatalf("promised epoch %d for seq %d never materialized", a.epoch, a.seq)
		}
		if cut < a.seq {
			t.Fatalf("epoch %d cut at %d excludes promised seq %d", a.epoch, cut, a.seq)
		}
		if prev, ok := u.EpochSeq(a.epoch - 1); ok && prev >= a.seq {
			t.Fatalf("seq %d already present at epoch %d (cut %d), promised %d",
				a.seq, a.epoch-1, prev, a.epoch)
		}
	}
}

// TestUpdaterRecovery: acknowledged writes survive a crash — a new
// updater over the same WAL replays them all into its snapshot.
func TestUpdaterRecovery(t *testing.T) {
	g := lineGraph(t, 10)
	path := filepath.Join(t.TempDir(), "edges.wal")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Long refresh interval: the writes are acked but never applied,
	// mimicking a crash between ack and refresh.
	u, err := NewUpdater(g, log, UpdaterOptions{RefreshEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h := NewQueryHandlerOpts(u.Snapshot(), ServeOptions{})
	h.EnableUpdates(u)
	// A write before Start is promised the epoch after the first.
	if _, epoch, err := u.Apply(true, 9, 0); err != nil || epoch != 2 {
		t.Fatalf("a write before Start: epoch %d, %v; want 2", epoch, err)
	}
	u.Start(h)
	if _, _, err := u.Apply(true, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Apply(false, 0, 1); err != nil {
		t.Fatal(err)
	}
	u.Close()
	log.Close() // crash: refresher never ran, snapshot never swapped

	log2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	u2, err := NewUpdater(g, log2, UpdaterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	idx := u2.Snapshot()
	if !idx.Reachable(9, 0) || !idx.Reachable(5, 0) {
		t.Fatal("acknowledged inserts lost across restart")
	}
	if idx.Reachable(0, 1) {
		t.Fatal("acknowledged delete lost across restart")
	}
	if u2.AppliedSeq() != 3 {
		t.Fatalf("replay frontier %d, want 3", u2.AppliedSeq())
	}
	if u2.every != DefaultRefreshEvery {
		t.Fatalf("a zero RefreshEvery refreshes every %v, want %v", u2.every, DefaultRefreshEvery)
	}
}

// TestUpdaterRejects: malformed requests fail with 4xx and never
// reach the log.
func TestUpdaterRejects(t *testing.T) {
	g := lineGraph(t, 4)
	h, u, log := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: time.Hour})
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		body string
		want int
	}{
		{`{"op":"insert","u":0,"v":99}`, http.StatusBadRequest},         // out of range
		{`{"op":"upsert","u":0,"v":1}`, http.StatusBadRequest},          // bad op
		{`{"op":"insert","u":-1,"v":1}`, http.StatusBadRequest},         // negative
		{`{"op":"insert","u":8589934592,"v":1}`, http.StatusBadRequest}, // > int32
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := post(c.body); got != c.want {
			t.Errorf("POST %s: status %d, want %d", c.body, got, c.want)
		}
	}
	if log.LastSeq() != 0 {
		t.Fatalf("rejected requests reached the log: seq %d", log.LastSeq())
	}
	// A handler without an updater refuses mutations.
	plain := httptest.NewServer(NewQueryHandlerOpts(h.Index(), ServeOptions{}))
	defer plain.Close()
	resp, err := http.Post(plain.URL+"/edges", "application/json",
		bytes.NewReader([]byte(`{"op":"insert","u":0,"v":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("updates-disabled replica answered %d, want 501", resp.StatusCode)
	}
	// A write the log fails is a 500, and is not queued to be served.
	log.Close()
	got := post(`{"op":"insert","u":0,"v":1}`)
	u.mu.Lock()
	queued := len(u.queue)
	u.mu.Unlock()
	if got != http.StatusInternalServerError || queued != 0 {
		t.Fatalf("a write the log fails: status %d, %d queued; want 500 and none", got, queued)
	}
	// A closed updater refuses writes with 503 (ErrUpdaterClosed), and
	// closing it again does nothing.
	u.Close()
	u.Close()
	if got := post(`{"op":"insert","u":0,"v":1}`); got != http.StatusServiceUnavailable || log.LastSeq() != 0 {
		t.Fatalf("a write after Close: status %d, log at seq %d; want 503 and 0", got, log.LastSeq())
	}
}

// TestUpdaterStatsBlock: /stats grows an "updates" block when the
// mutation path is enabled, and its backlog is what /metrics reports:
// three acknowledged writes before a refresh are a seq_lag of 3, one
// refresh later of 0.
func TestUpdaterStatsBlock(t *testing.T) {
	g := lineGraph(t, 100) // long enough that three repairs' overlay is no fold's worth
	reg := NewMetricsRegistry()
	clk := clock.Fake(t)
	h, u, _ := startUpdateServer(t, g, UpdaterOptions{Obs: reg}, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	stats := func() UpdaterStats {
		var doc struct {
			Updates *UpdaterStats `json:"updates"`
		}
		if err := json.Unmarshal(get("/stats"), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Updates == nil {
			t.Fatal("/stats has no updates block")
		}
		return *doc.Updates
	}

	// A back edge, then two skip edges: three repairs.
	var ack httpapi.EdgeResponse
	for _, e := range [][2]int{{5, 0}, {90, 92}, {93, 95}} {
		ack = postEdge(t, srv, "insert", e[0], e[1])
	}
	if s := stats(); s.LastSeq != 3 || s.AppliedSeq != 0 || s.SeqLag != 3 {
		t.Fatalf("before a refresh: %+v", s)
	}
	if m := string(get("/metrics")); !strings.Contains(m, "reachlab_update_seq_lag 3\n") {
		t.Fatalf("/metrics lacks reachlab_update_seq_lag 3 before a refresh")
	}

	clk.Advance(u.every)
	waitEpoch(t, h, ack.Epoch)
	s := stats()
	if s.LastSeq != 3 || s.AppliedSeq != 3 || s.SeqLag != 0 {
		t.Fatalf("after a refresh: %+v", s)
	}
	if s.Repairs+s.Rebuilds != 3 {
		t.Fatalf("updates not counted as repairs or rebuilds: %+v", s)
	}
	// The edges repaired in place: the served epoch is the base under an
	// overlay holding at least the neighbor lists they changed, and
	// /metrics says what /stats says.
	if s.OverlayVertices < 2 || s.OverlayEntries < 2 || s.OverlayFolds != 0 {
		t.Fatalf("overlay not reported: %+v", s)
	}
	metrics := string(get("/metrics"))
	for _, line := range []string{
		fmt.Sprintf("reachlab_overlay_vertices %d\n", s.OverlayVertices),
		fmt.Sprintf("reachlab_overlay_entries %d\n", s.OverlayEntries),
		"reachlab_overlay_folds_total 0\n",
		"reachlab_update_seq_lag 0\n",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestUpdaterRebuildCounter: an update with graph-spanning affected
// sets takes the rebuild fallback and the counter says so — the
// regression test for the DynamicIndex doc promise, at the serving
// layer where the soak asserts it.
func TestUpdaterRebuildCounter(t *testing.T) {
	// Two long chains (see internal/tol tests): bridging them forces
	// ANC×DES past 8·(n+m).
	const half = 60
	var edges []Edge
	for i := 0; i < half-1; i++ {
		edges = append(edges, Edge{From: VertexID(i), To: VertexID(i + 1)})
		edges = append(edges, Edge{From: VertexID(half + i), To: VertexID(half + i + 1)})
	}
	g := NewGraph(2*half, edges)
	h, u, _ := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: 5 * time.Millisecond})

	_, epoch, err := u.Apply(true, half-1, half)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h, epoch)
	if s := u.Stats(); s.Rebuilds != 1 {
		t.Fatalf("bridge insert did not rebuild: %+v", s)
	}
	if !h.Index().Reachable(0, 2*half-1) {
		t.Fatal("bridge not visible after rebuild")
	}
	// A leaf update stays on the repair path.
	_, epoch, err = u.Apply(true, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h, epoch)
	if s := u.Stats(); s.Rebuilds != 1 || s.Repairs != 1 {
		t.Fatalf("leaf insert stats: %+v", s)
	}
}

// TestUpdaterEpochHistoryBounded drives more refreshes than the
// epoch → cut history holds, one tick behind every write, so each ack
// is computed while the refresh the write before it started may still
// be running. Every promise whose epoch is still in the history is
// exact — across the slots the wrap reused — and every older epoch
// reads as unknown, as the EpochSeq contract says.
func TestUpdaterEpochHistoryBounded(t *testing.T) {
	clk := clock.Fake(t)
	h, u, log := startUpdateServer(t, lineGraph(t, 40), UpdaterOptions{}, func(u *Updater) { u.batch = 2 })

	type promise struct{ seq, epoch uint64 }
	var acks []promise
	for k := 0; h.Epoch() < epochHistory+200; k++ {
		if k > 4*epochHistory {
			t.Fatalf("%d writes made only %d epochs", k, h.Epoch())
		}
		// A skip edge over the line, then its removal: both repairs.
		c := VertexID(k / 2 % 38)
		seq, epoch, err := u.Apply(k%2 == 0, c, c+2)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, promise{seq, epoch})
		clk.Advance(u.every)
	}
	for u.AppliedSeq() < log.LastSeq() {
		clk.Advance(u.every)
	}

	last := h.Epoch()
	known := 0
	for _, a := range acks {
		cut, ok := u.EpochSeq(a.epoch)
		if a.epoch+epochHistory <= last {
			if ok {
				t.Fatalf("epoch %d is %d epochs old and still known (history holds %d)", a.epoch, last-a.epoch, epochHistory)
			}
			continue
		}
		known++
		if !ok {
			t.Fatalf("promised epoch %d for seq %d is within the last %d of %d and unknown", a.epoch, a.seq, epochHistory, last)
		}
		if cut < a.seq {
			t.Fatalf("epoch %d cut at %d excludes promised seq %d", a.epoch, cut, a.seq)
		}
		if prev, ok := u.EpochSeq(a.epoch - 1); ok && prev >= a.seq {
			t.Fatalf("seq %d already present at epoch %d (cut %d), promised %d", a.seq, a.epoch-1, prev, a.epoch)
		}
	}
	if known == 0 || known == len(acks) {
		t.Fatalf("%d of %d promises within the history: the wrap was not crossed", known, len(acks))
	}
	if _, ok := u.EpochSeq(0); ok {
		t.Fatal("epoch 0 known")
	}
	if _, ok := u.EpochSeq(last + 1); ok {
		t.Fatal("an epoch not yet published is known")
	}
}

// TestPublishedEpochsImmutable: an epoch the refresher published keeps
// answering, serializing and walking paths exactly as at its cut while
// 1,200 later inserts and deletes — repairs, rebuilds, and a fold forced
// every fifth refresh — go through the maintainer it shares its base
// with. Readers check the held epochs on their own goroutines all the
// while (run under -race).
func TestPublishedEpochsImmutable(t *testing.T) {
	const n, groups, perGroup, readers = 300, 150, 8, 3
	rng := rand.New(rand.NewSource(12))
	g := randomCyclicGraph(n, n*8/10, 12) // sparse: most updates repair
	edges := map[[2]VertexID]bool{}
	for v := 0; v < n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			edges[[2]VertexID{VertexID(v), w}] = true
		}
	}

	clk := clock.Fake(t)
	h, u, _ := startUpdateServer(t, g, UpdaterOptions{}, nil)
	// The hook runs on the refresher goroutine, the maintainer's owner.
	var refreshes atomic.Int64
	u.testHookMidRefresh = func() {
		if refreshes.Add(1)%5 == 0 {
			u.dyn.Fold()
		}
	}

	// held is one published epoch and what it answered when published.
	type held struct {
		epoch  uint64
		idx    *Index
		oracle *Graph
		bytes  []byte
	}
	check := func(e held, rng *rand.Rand) string {
		for k := 0; k < 40; k++ {
			s, d := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			want := e.oracle.ReachableBFS(s, d)
			if e.idx.Reachable(s, d) != want {
				return fmt.Sprintf("Reachable(%d,%d) = %v", s, d, !want)
			}
			path, err := e.idx.WitnessPath(s, d)
			if err != nil || (path != nil) != want {
				return fmt.Sprintf("WitnessPath(%d,%d) = %v, %v; reachable %v", s, d, path, err, want)
			}
			for i := 0; i+1 < len(path); i++ {
				if !slices.Contains(e.oracle.OutNeighbors(path[i]), path[i+1]) {
					return fmt.Sprintf("WitnessPath(%d,%d) hop %d→%d is not an edge of the epoch", s, d, path[i], path[i+1])
				}
			}
		}
		var buf bytes.Buffer
		if _, err := e.idx.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), e.bytes) {
			return fmt.Sprintf("WriteTo differs from the bytes at publication (err %v)", err)
		}
		return ""
	}

	var (
		mu    sync.Mutex
		all   []held
		done  = make(chan struct{})
		racer sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		racer.Add(1)
		go func(r int) {
			defer racer.Done()
			rrng := rand.New(rand.NewSource(int64(300 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				mine := slices.Clone(all)
				mu.Unlock()
				for _, e := range mine {
					if msg := check(e, rrng); msg != "" {
						t.Errorf("reader %d: epoch %d with %d epochs held: %s", r, e.epoch, len(mine), msg)
						return
					}
				}
			}
		}(r)
	}

	patched := 0
	for k := 0; k < groups; k++ {
		var promised uint64
		for i := 0; i < perGroup; i++ {
			e := [2]VertexID{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
			insert := !edges[e]
			_, epoch, err := u.Apply(insert, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if edges[e] = insert; !insert {
				delete(edges, e)
			}
			promised = epoch
		}
		for h.Epoch() < promised {
			clk.Advance(u.every)
		}
		if k%10 != 0 {
			continue
		}
		list := make([]Edge, 0, len(edges))
		for e := range edges {
			list = append(list, Edge{From: e[0], To: e[1]})
		}
		slices.SortFunc(list, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) })
		e := held{epoch: h.Epoch(), idx: h.Index(), oracle: NewGraph(n, list)}
		var buf bytes.Buffer
		if _, err := e.idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		e.bytes = buf.Bytes()
		if e.idx.adj != nil {
			patched++
		}
		if msg := check(e, rng); msg != "" {
			t.Fatalf("epoch %d, fresh from the refresher: %s", e.epoch, msg)
		}
		mu.Lock()
		all = append(all, e)
		mu.Unlock()
	}
	close(done)
	racer.Wait()
	for _, e := range all {
		if msg := check(e, rng); msg != "" {
			t.Fatalf("epoch %d after the last write: %s", e.epoch, msg)
		}
	}
	if s := u.Stats(); s.OverlayFolds < 3 || s.Repairs == 0 || patched == 0 || refreshes.Load() < 5 {
		t.Fatalf("%+v, %d of %d held epochs patched, %d refreshes through the hook: want folds, repairs, patched epochs and a forced fold",
			s, patched, len(all), refreshes.Load())
	}
}
