package reachlab

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/tol"
	"repro/internal/wal"
)

// The mutation path for the serving tier (DESIGN.md §10). The paper's
// §II-B Remark leaves index maintenance under updates open; the
// serving-side answer here is a write-ahead edge log in front of the
// centralized dynamic maintainer:
//
//	POST /edges → wal.Log.Write + queue + promise (one lock) → fsync → ack
//	                                  ↓ [refresher]
//	                           tol.DynamicIndex
//	                                  ↓ snapshot: base + overlay
//	                           QueryHandler.Swap (epoch k+1)
//
// Queries keep serving the immutable epoch-k index at full speed while
// the refresher drains the queue of written records in batches into
// the dynamic maintainer and publishes the result as the next epoch:
// the flat base every epoch shares plus the lists that differ from it
// as of the cut, so a refresh costs its repairs, not the index. The
// refresher never reads the log; the log is read once, at start-up. A
// write is acknowledged only after its WAL record is fsync-durable, and
// the acknowledgement carries the exact epoch that will first contain
// it, so a client can poll X-Reachlab-Epoch (or /healthz) for
// read-your-writes.
//
// Staleness is bounded by the refresh interval plus one batch drain:
// an acknowledged write waits at most RefreshEvery for the next cut
// plus ceil(backlog/refreshBatch) swap cycles if a burst outran one
// batch.

// ErrUpdaterClosed is returned by Apply after Close.
var ErrUpdaterClosed = errors.New("reachlab: updater closed")

// ErrVertexRange is returned (wrapped) by Apply for an endpoint
// outside the graph's ID space.
var ErrVertexRange = errors.New("reachlab: vertex out of range")

// UpdaterOptions configures NewUpdater.
type UpdaterOptions struct {
	// RefreshEvery is the refresher's tick interval (default 2s):
	// the staleness bound for a write arriving into an idle log.
	RefreshEvery time.Duration
	// Obs receives the update-path metrics; nil disables them.
	Obs *MetricsRegistry
}

// DefaultRefreshEvery backs a zero UpdaterOptions.RefreshEvery.
const DefaultRefreshEvery = 2 * time.Second

// refreshBatch caps how many queued records one refresh applies before
// it swaps a snapshot in; a burst larger than one batch drains over
// several epochs. Tests lower Updater.batch instead.
const refreshBatch = 1024

// Updater owns the mutation path of one serving replica: the durable
// edge log, the dynamic maintainer that absorbs it, and the epoch
// bookkeeping that ties acknowledged sequence numbers to served
// epochs. It must be the *only* writer of its log and the *only*
// source of QueryHandler.Swap calls — update mode disables the reload
// loader so epochs advance in lock step with log sequence numbers (the
// epoch-acknowledgement contract breaks if anything else bumps the
// epoch).
type Updater struct {
	log   *wal.Log
	dyn   *tol.DynamicIndex
	every time.Duration
	batch int // refreshBatch unless a test lowered it before Start

	// mu orders the write path against the refresh plan. Apply holds it
	// while it writes its record, queues it and computes its promise;
	// the refresher holds it to mark a batch in flight and again to
	// swap that batch's epoch in, so a promise computed under mu is
	// exact: no refresh can have planned past a seq not yet written.
	mu         sync.Mutex
	h          *QueryHandler
	appliedSeq uint64                 // highest seq in the published epoch
	queue      []wal.Record           // written above appliedSeq, in seq order
	inflight   int                    // head of queue the running refresh applies
	epochSeq   [epochHistory]epochCut // slot epoch % epochHistory
	closed     bool

	stop chan struct{}
	done chan struct{}

	// testHookMidRefresh, when set, runs after a refresh batch is cut
	// and applied but before the snapshot swap — the window chaos
	// tests stretch to catch readers against a stale epoch.
	testHookMidRefresh func()

	walAppends  *obs.Counter
	refreshes   *obs.Counter
	refreshHist *obs.Histogram
	seqLag      *obs.Gauge
	epochLag    *obs.Gauge
	repairs     *obs.Counter
	rebuilds    *obs.Counter
	folds       *obs.Counter
	ovVertices  *obs.Gauge
	ovEntries   *obs.Gauge
	nRefreshes  int64           // completed refresh swaps, under mu
	dynStats    tol.UpdateStats // last folded, under mu
}

// epochHistory is how many of the most recent epochs keep the cut
// EpochSeq reports. Older epochs read as unknown, and the memory is
// fixed.
const epochHistory = 1024

// epochCut is one slot of the epoch → cut history.
type epochCut struct{ epoch, seq uint64 }

// NewUpdater builds the mutation path over g and log, which must come
// straight from wal.Open: it constructs the dynamic maintainer, replays
// every record Open recovered (acknowledged writes survive a crash
// because they were fsync-durable before the ack), and is then ready
// to Start. Call Snapshot for the index the paired QueryHandler should
// serve from.
func NewUpdater(g *Graph, log *wal.Log, opts UpdaterOptions) (*Updater, error) {
	every := opts.RefreshEvery
	if every <= 0 {
		every = DefaultRefreshEvery
	}
	dyn, err := newDynamic(g.d)
	if err != nil {
		return nil, err
	}
	reg := opts.Obs
	u := &Updater{
		log:   log,
		dyn:   dyn,
		every: every,
		batch: refreshBatch,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),

		walAppends:  reg.Counter("reachlab_wal_appends_total"),
		refreshes:   reg.Counter("reachlab_refreshes_total"),
		refreshHist: reg.Histogram("reachlab_refresh_seconds", obs.LatencyBuckets),
		seqLag:      reg.Gauge("reachlab_update_seq_lag"),
		epochLag:    reg.Gauge("reachlab_update_epoch_lag"),
		repairs:     reg.Counter("reachlab_dynamic_repairs_total"),
		rebuilds:    reg.Counter("reachlab_dynamic_rebuilds_total"),
		folds:       reg.Counter("reachlab_overlay_folds_total"),
		ovVertices:  reg.Gauge("reachlab_overlay_vertices"),
		ovEntries:   reg.Gauge("reachlab_overlay_entries"),
	}
	if err := log.Replay(u.applyRecord); err != nil {
		return nil, fmt.Errorf("reachlab: wal replay: %w", err)
	}
	u.appliedSeq = log.LastSeq()
	u.foldDynStats()
	return u, nil
}

func (u *Updater) applyRecord(r wal.Record) error {
	switch r.Op {
	case wal.OpInsert:
		return u.dyn.InsertEdge(r.U, r.V)
	case wal.OpDelete:
		return u.dyn.DeleteEdge(r.U, r.V)
	}
	return fmt.Errorf("reachlab: wal record %d: unknown op %d", r.Seq, byte(r.Op))
}

// foldDynStats turns the maintainer's cumulative repair/rebuild/fold
// tally into monotonic metric counters, its overlay's size into
// gauges, and both into the mu-guarded Stats view. Only the refresher
// goroutine (or the constructor, before Start) calls it — the
// maintainer itself is single-writer.
func (u *Updater) foldDynStats() {
	s := u.dyn.UpdateStats()
	u.mu.Lock()
	prev := u.dynStats
	u.dynStats = s
	u.mu.Unlock()
	u.repairs.Add(s.Repairs - prev.Repairs)
	u.rebuilds.Add(s.Rebuilds - prev.Rebuilds)
	u.folds.Add(s.Folds - prev.Folds)
	u.ovVertices.Set(int64(s.OverlayLists))
	u.ovEntries.Set(int64(s.OverlayEntries))
}

// Snapshot returns the maintainer's current state as an immutable
// index — what a QueryHandler paired with this updater should be
// constructed with, and what every refresh publishes. Labels and graph
// are each the flat base all epochs share plus the lists that differ
// from it as of this call, so the cost is the number of such lists:
// nothing is frozen, copied or rebuilt. The graph rides along so every
// epoch serves witness paths that walk exactly the edges it indexed.
// Like the maintainer, it belongs to the refresher goroutine once
// Start has run.
func (u *Updater) Snapshot() *Index {
	x := newIndex(u.dyn.Snapshot(), nil)
	x.g, x.adj = u.dyn.SnapshotGraph()
	return x
}

// AppliedSeq returns the highest log sequence number reflected in the
// published epoch.
func (u *Updater) AppliedSeq() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.appliedSeq
}

// EpochSeq reports the highest log sequence number contained in
// epoch. The epoch the handler started serving at covers everything
// replayed before Start; epochs swapped in by the refresher record
// their batch cut. Unknown epochs (pre-start, swapped by something
// other than the updater, or more than epochHistory epochs old) report
// ok == false.
func (u *Updater) EpochSeq(epoch uint64) (seq uint64, ok bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	// Epochs start at 1, so a slot's zero value matches no epoch asked for.
	c := u.epochSeq[epoch%epochHistory]
	return c.seq, c.epoch == epoch && epoch != 0
}

// recordCut writes the history ring, under mu.
func (u *Updater) recordCut(epoch, seq uint64) {
	u.epochSeq[epoch%epochHistory] = epochCut{epoch, seq}
}

// Start binds the updater to h (recording h's current epoch as
// containing everything applied so far) and launches the background
// refresher. The handler's index must be the updater's Snapshot —
// Start does not swap.
func (u *Updater) Start(h *QueryHandler) {
	u.mu.Lock()
	u.h = h
	u.recordCut(h.Epoch(), u.appliedSeq)
	u.mu.Unlock()
	tick, stop := clock.NewTicker(u.every) // here, so no tick after Start is lost
	go u.run(tick, stop)
}

// Close stops the refresher (waiting for an in-flight refresh to
// finish) and rejects further Apply calls. It does not close the log
// — the caller owns that — and does not drain unapplied records:
// they are durable and replay on restart.
func (u *Updater) Close() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	started := u.h != nil
	u.mu.Unlock()
	close(u.stop)
	if started {
		<-u.done
	}
}

// Apply validates and durably logs one edge mutation, returning its
// log sequence number and the exact epoch that will first serve it.
// The write is fsync-durable when Apply returns — a crash after the
// ack replays it — but not yet visible: visibility arrives when the
// handler's epoch reaches the returned epoch.
func (u *Updater) Apply(insert bool, a, b VertexID) (seq, epoch uint64, err error) {
	if n := u.dyn.NumVertices(); int(a) >= n || a < 0 || int(b) >= n || b < 0 {
		return 0, 0, fmt.Errorf("%w: edge (%d,%d) for %d vertices", ErrVertexRange, a, b, n)
	}
	op := wal.OpDelete
	if insert {
		op = wal.OpInsert
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return 0, 0, ErrUpdaterClosed
	}
	seq, err = u.log.Write(op, a, b)
	if err != nil {
		u.mu.Unlock()
		return 0, 0, fmt.Errorf("reachlab: wal append: %w", err)
	}
	u.queue = append(u.queue, wal.Record{Seq: seq, Op: op, U: a, V: b})
	u.setLag()
	// Promise the epoch that will first contain seq. Every record before
	// seq is queued, and each refresh takes min(batch, queued) from the
	// head, so seq lands ceil((seq-base)/batch) swaps after the epoch
	// holding base: the published frontier, or the last record of the
	// running refresh, which publishes as the next epoch.
	pub, base := uint64(1), u.appliedSeq
	if u.h != nil {
		pub = u.h.Epoch()
	}
	if u.inflight > 0 {
		pub, base = pub+1, u.queue[u.inflight-1].Seq
	}
	epoch = pub + (seq-base+uint64(u.batch)-1)/uint64(u.batch)
	u.mu.Unlock()

	// The ack waits for the fsync, outside the lock so that writers
	// share one and a refresh never waits on the disk.
	if err := u.log.SyncThrough(seq); err != nil {
		return 0, 0, fmt.Errorf("reachlab: wal append: %w", err)
	}
	u.walAppends.Inc()
	return seq, epoch, nil
}

// setLag publishes the backlog — records written but not yet
// published — and the swaps it will take to drain; under mu.
func (u *Updater) setLag() {
	n := len(u.queue)
	u.seqLag.Set(int64(n))
	u.epochLag.Set(int64((n + u.batch - 1) / u.batch))
}

// run is the background refresher: every tick, drain up to one batch
// of queued records into the maintainer, take a snapshot, and swap it
// in as the next epoch.
func (u *Updater) run(tick <-chan time.Time, stop func()) {
	defer close(u.done)
	defer stop()
	for {
		select {
		case <-u.stop:
			return
		case <-tick:
			u.refreshOnce()
		}
	}
}

// refreshOnce takes at most one batch off the head of the queue,
// applies it to the maintainer, and swaps the snapshot in. Outside the
// maintainer's own amortized fold (or a rebuild) nothing here is
// proportional to the index or the graph, and nothing reads the log.
// Runs on the refresher goroutine only — the maintainer is
// single-writer.
func (u *Updater) refreshOnce() {
	start := time.Now()
	// Taking the batch and marking it in flight is one critical section,
	// so from the instant this unlocks every Apply knows which seqs this
	// refresh publishes. Apply only appends, so the batch's slots stay
	// as they are while they are applied outside the lock.
	u.mu.Lock()
	recs := u.queue[:min(len(u.queue), u.batch)]
	u.inflight = len(recs)
	u.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	for _, r := range recs {
		// Apply checked the range, so only a failed rebuild errs here; it
		// leaves the maintainer as it was, and a restart replays the record.
		_ = u.applyRecord(r)
	}
	if u.testHookMidRefresh != nil {
		u.testHookMidRefresh()
	}
	idx := u.Snapshot()
	u.foldDynStats() // after the snapshot: the overlay sizes are the published epoch's

	// Swap under mu so an Apply computing its promise never observes
	// the new epoch with the old frontier (or vice versa). The swap
	// itself is a pointer flip — queries never block on it.
	u.mu.Lock()
	epoch := u.h.Swap(idx)
	u.appliedSeq = recs[len(recs)-1].Seq
	u.recordCut(epoch, u.appliedSeq)
	u.queue = u.queue[len(recs):]
	u.inflight = 0
	u.setLag()
	u.nRefreshes++
	u.mu.Unlock()

	u.refreshes.Inc()
	u.refreshHist.Observe(time.Since(start).Seconds())
}

// UpdaterStats is one consistent view of the mutation path, served
// under /stats as the "updates" block.
type UpdaterStats struct {
	LastSeq    uint64 `json:"last_seq"`    // highest written seq
	SyncedSeq  uint64 `json:"synced_seq"`  // highest fsync-durable seq
	AppliedSeq uint64 `json:"applied_seq"` // highest seq in the published epoch
	SeqLag     uint64 `json:"seq_lag"`     // last - applied: written, not yet published
	Refreshes  int64  `json:"refreshes"`
	Repairs    int64  `json:"repairs"`
	Rebuilds   int64  `json:"rebuilds"`
	// The maintainer's copy-on-write overlay as of the last refresh: the
	// per-vertex lists (in-label, out-label, out- and in-neighbor, each
	// counted) that differ from the flat base, their total length, and
	// how often the overlay has been folded into a new base.
	OverlayVertices int   `json:"overlay_vertices"`
	OverlayEntries  int   `json:"overlay_entries"`
	OverlayFolds    int64 `json:"overlay_folds"`
}

// Stats returns the updater's current counters. Maintainer and
// refresh tallies come from the updater's own bookkeeping (folded
// under mu at each refresh), not the metrics registry, so they are
// exact even with instrumentation disabled.
func (u *Updater) Stats() UpdaterStats {
	synced := u.log.SyncedSeq() // not under mu: it waits out an fsync
	u.mu.Lock()
	defer u.mu.Unlock()
	last := u.log.LastSeq() // under mu, where Apply writes: never below applied
	dyn := u.dynStats
	return UpdaterStats{
		LastSeq:    last,
		SyncedSeq:  synced,
		AppliedSeq: u.appliedSeq,
		SeqLag:     last - u.appliedSeq,
		Refreshes:  u.nRefreshes,
		Repairs:    dyn.Repairs,
		Rebuilds:   dyn.Rebuilds,

		OverlayVertices: dyn.OverlayLists,
		OverlayEntries:  dyn.OverlayEntries,
		OverlayFolds:    dyn.Folds,
	}
}

// EnableUpdates registers the mutation endpoint on h and routes its
// /stats "updates" block to u. The handler must be serving u's
// Snapshot and must not have a reload loader configured (the updater
// owns all epoch advances); call before Start so no mutation can
// race the binding. The wire types are httpapi.EdgeRequest/EdgeResponse.
func (h *QueryHandler) EnableUpdates(u *Updater) {
	h.updater = u
}

// edges serves POST /edges: durably log one insert or delete and
// acknowledge with its sequence number and the epoch that will first
// contain it.
func (h *QueryHandler) edges(api *httpapi.Handle, w http.ResponseWriter, r *http.Request) {
	var req httpapi.EdgeRequest
	if !api.Decode(w, r, &req) { // body first, as in reload
		return
	}
	u := h.updater
	if u == nil {
		api.Fail(w, "updates not enabled on this replica", http.StatusNotImplemented)
		return
	}
	var insert bool
	switch req.Op {
	case "insert":
		insert = true
	case "delete":
	default:
		api.Fail(w, fmt.Sprintf("bad op %q: want insert or delete", req.Op), http.StatusBadRequest)
		return
	}
	if req.U != int64(VertexID(req.U)) || req.V != int64(VertexID(req.V)) {
		api.Fail(w, fmt.Sprintf("vertex out of int32 range: [%d,%d]", req.U, req.V), http.StatusBadRequest)
		return
	}
	seq, epoch, err := u.Apply(insert, VertexID(req.U), VertexID(req.V))
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUpdaterClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrVertexRange):
			code = http.StatusBadRequest
		}
		api.Fail(w, err.Error(), code)
		return
	}
	httpapi.WriteJSON(w, httpapi.EdgeResponse{Op: req.Op, U: req.U, V: req.V, Seq: seq, Epoch: epoch})
}
