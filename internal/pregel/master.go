package pregel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/obs"
)

// checkpoint is one globally consistent barrier snapshot: the worker
// state blobs plus the master's routing state feeding the step it
// names.
type checkpoint struct {
	runID    int
	step     int        // next superstep after restore
	blobs    [][][]byte // per-host Snapshotter state, one blob per partition
	pending  [][][]byte // packets destined to each worker at that step
	bcasts   [][]byte
	finished bool // taken after FinishRun (Collect-time recovery)
}

// The master's fault handling on a cluster: each attempt of a call has
// callTimeout to answer, a call has maxAttempts attempts with an
// exponential backoff from baseBackoff up to maxBackoff between them,
// and one master recovers from at most maxRecoveries worker failures.
const (
	callTimeout   = 30 * time.Second
	maxAttempts   = 4
	baseBackoff   = 50 * time.Millisecond
	maxBackoff    = 2 * time.Second
	maxRecoveries = 4
)

// retryPolicy is one master's fault handling: the constants above on a
// cluster, and in process (New) a single attempt with no deadline and
// no recovery.
type retryPolicy struct {
	callTimeout time.Duration // 0: no deadline
	attempts    int
	recoveries  int
}

// backoff returns the sleep before retry attempt+1 (attempt counts
// from 1): exponential with half-width jitter, capped at maxBackoff.
func backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	half := int64(min(d, maxBackoff) / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// Master is the superstep loop: the only code that routes packets,
// tests quiescence, keeps the build's cost record (record), honours Ctx
// and MaxSupersteps, and charges the netsim model. It drives its hosts
// through Transports and does not know whether they are drworker processes (DialCluster) or the one
// host in its own process holding every partition (New).
type Master struct {
	cfg        Config
	retry      retryPolicy
	addrs      []string
	graphPath  string
	transports []Transport
	host       *Host // the in-process host of New; nil on a cluster
	p          int   // partitions, split evenly over the transports
	n          int   // vertices, the default superstep bound's input

	runID   int
	lastRun BeginRunArgs
	ckpt    *checkpoint
	ckptOff bool // no Snapshotter, or nothing to lose; recovery impossible

	// retries counts the calls retried since the last row was recorded;
	// record charges them to the row it writes.
	retries atomic.Int64

	// Metrics is the sum of every row recorded, across runs.
	Metrics Metrics
}

// New returns the loop over one in-process host holding cfg.Workers
// partitions of g: the simulated cluster. The host is reached by
// method calls under a single attempt with no deadline and is never
// checkpointed — there is no process to lose. Worker state (and any
// program state hung off Worker.State) survives across Run calls,
// which is how the batch algorithm executes one run per batch while
// accumulating labels.
func New(g *graph.Digraph, cfg Config) *Master {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	h := &Host{}
	h.hold(g, 0, cfg.Workers, cfg.Workers)
	return &Master{
		cfg:        cfg,
		retry:      retryPolicy{attempts: 1},
		transports: []Transport{Direct{h}},
		host:       h,
		p:          cfg.Workers,
		n:          g.NumVertices(),
		ckptOff:    true,
	}
}

// Workers returns the worker set of a master New built, e.g. for a
// program driver to read per-worker state after a run.
func (m *Master) Workers() []*Worker {
	return m.host.workers
}

// DialCluster connects to the worker addresses and initializes each
// with its partition assignment.
func DialCluster(addrs []string, graphPath string, cfg Config) (*Master, error) {
	if cfg.Dial == nil {
		cfg.Dial = DialRPC
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	m := &Master{
		cfg:       cfg,
		retry:     retryPolicy{callTimeout, maxAttempts, maxRecoveries},
		addrs:     append([]string(nil), addrs...),
		graphPath: graphPath,
		p:         len(addrs),
	}
	if err := m.Phase(PhaseDial, func(*obs.StepTrace) error {
		for i, addr := range addrs {
			t, err := cfg.Dial(addr)
			if err != nil {
				return fmt.Errorf("pregel: dialing worker %d at %s: %w", i, addr, err)
			}
			m.transports = append(m.transports, t)
		}
		for i := range m.transports {
			if err := m.initWorker(i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

func (m *Master) initWorker(i int) error {
	args := InitArgs{WorkerID: i, NumWorkers: m.p, GraphPath: m.graphPath}
	r, err := masterCall[InitReply](m, i, "Init", args)
	if err == nil {
		m.n = r.NumVertices
	}
	return err
}

// Close drops the worker connections and reports every close error.
func (m *Master) Close() error {
	var errs []error
	for i, t := range m.transports {
		if t == nil {
			continue
		}
		if err := t.Close(); err != nil && !errors.Is(err, rpc.ErrShutdown) {
			errs = append(errs, fmt.Errorf("pregel: closing worker %d: %w", i, err))
		}
		m.transports[i] = nil
	}
	return errors.Join(errs...)
}

// callOnce performs one attempt with the per-attempt deadline, which
// also ends when the run's ctx is done. The reply must be fresh per
// attempt: an abandoned call may still write into its reply when the
// response eventually lands.
func (m *Master) callOnce(t Transport, method string, args, reply any) error {
	timeout := m.retry.callTimeout
	if timeout == 0 {
		return t.Call(method, args, reply)
	}
	// The deadline starts before the call does, so a call that advances
	// a fake clock past it finds it armed.
	timer, stop := clock.NewTimer(timeout)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- t.Call(method, args, reply) }()
	select {
	case err := <-done:
		return err
	case <-timer:
		return fmt.Errorf("pregel: %s: %w", method, ErrCallTimeout)
	case <-m.cfg.Ctx.Done():
		return m.cfg.Ctx.Err()
	}
}

// masterCall performs a retried call to host i. Transient errors
// (timeouts, drops, dead connections) are retried with exponential
// backoff + jitter; application errors surface immediately; exhausted
// retries and out-of-sync workers come back as a *workerFailure that
// the run loop recovers from via checkpoint restore. A failed call
// under a done ctx returns the ctx's error and is not retried.
func masterCall[T any](m *Master, i int, method string, args any) (*T, error) {
	pol := m.retry
	full := RPCServiceName + "." + method
	var err error
	for attempt := 1; ; attempt++ {
		reply := new(T)
		err = m.callOnce(m.transports[i], full, args, reply)
		if err == nil {
			return reply, nil
		}
		if err := m.cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		if !isTransient(err) {
			if isOutOfSync(err) {
				return nil, &workerFailure{workers: []int{i}, err: err}
			}
			return nil, err
		}
		if attempt >= pol.attempts {
			break
		}
		m.retries.Add(1)
		clock.Sleep(backoff(attempt))
	}
	return nil, &workerFailure{
		workers: []int{i},
		err:     fmt.Errorf("%s failed after %d attempts: %w: %w", method, pol.attempts, ErrRetriesExhausted, err),
	}
}

// takeCheckpoint snapshots every worker at the current barrier. step,
// pending, and bcasts describe the superstep the snapshot feeds. The
// stored pending/bcasts slices are adopted, not copied — the run loop
// never mutates a routing slice after handing it over.
func (m *Master) takeCheckpoint(step int, pending [][][]byte, bcasts [][]byte, finished bool) error {
	if m.ckptOff {
		return nil
	}
	return m.Phase(PhaseCheckpoint, func(row *obs.StepTrace) error {
		blobs := make([][][]byte, len(m.transports))
		var bytes int64
		for i := range m.transports {
			r, err := masterCall[CheckpointReply](m, i, "Checkpoint", struct{}{})
			if err != nil {
				return err
			}
			if !r.Supported {
				m.ckptOff = true
				return nil
			}
			blobs[i] = r.Blobs
			for _, b := range r.Blobs {
				bytes += int64(len(b))
			}
		}
		m.ckpt = &checkpoint{m.runID, step, blobs, pending, bcasts, finished}
		row.Step, row.Checkpoints, row.CheckpointBytes = step, 1, bytes
		return nil
	})
}

// recoverWorkers brings the cluster back to the last checkpoint after
// the listed workers failed: re-dial and re-Init each failed worker,
// re-BeginRun it, then restore every worker's state to the checkpoint
// barrier so the superstep loop can rewind and replay. Its row is
// written whether or not it recovers, and counts a recovery if it
// began one.
func (m *Master) recoverWorkers(failed []int, cause error) error {
	return m.Phase(PhaseRecover, func(row *obs.StepTrace) error {
		if err := m.cfg.Ctx.Err(); err != nil {
			return err
		}
		if m.Metrics.Recoveries >= int64(m.retry.recoveries) {
			return fmt.Errorf("pregel: giving up after %d recoveries: %w", m.Metrics.Recoveries, cause)
		}
		if m.ckptOff {
			return fmt.Errorf("%w (program has no Snapshotter): %v", ErrNoRecovery, cause)
		}
		row.Recoveries = 1
		for _, i := range failed {
			if t := m.transports[i]; t != nil {
				t.Close()
			}
			t, err := m.redial(m.addrs[i])
			if err != nil {
				return fmt.Errorf("pregel: re-dialing worker %d at %s: %w (after %v)", i, m.addrs[i], err, cause)
			}
			m.transports[i] = t
			if err := m.initWorker(i); err != nil {
				return fmt.Errorf("pregel: re-initializing worker %d: %w", i, err)
			}
			if _, err := masterCall[struct{}](m, i, "BeginRun", m.lastRun); err != nil {
				return fmt.Errorf("pregel: re-starting run on worker %d: %w", i, err)
			}
		}

		ck := m.ckpt
		if ck == nil {
			// Nothing has stepped yet (failure during the first run's
			// BeginRun phase): the re-begun workers are already consistent.
			return nil
		}
		for i := range m.transports {
			args := RestoreArgs{Blobs: ck.blobs[i]}
			if ck.runID == m.runID {
				args.Step = ck.step
				args.Finished = ck.finished
			}
			if _, err := masterCall[struct{}](m, i, "Restore", args); err != nil {
				return fmt.Errorf("pregel: restoring worker %d from checkpoint: %w", i, err)
			}
		}
		return nil
	})
}

// redial re-opens a worker connection with the retry policy's backoff
// (a restarting worker process needs a moment to rebind its port).
func (m *Master) redial(addr string) (Transport, error) {
	for attempt := 1; ; attempt++ {
		t, err := m.cfg.Dial(addr)
		if err == nil {
			return t, nil
		}
		if err := m.cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		if attempt >= m.retry.attempts {
			return nil, err
		}
		clock.Sleep(backoff(attempt))
	}
}

// Run executes p on the in-process host until quiescence and returns
// the master's Metrics: on a fresh master, the run's own. A Program
// value cannot cross a process boundary: a cluster runs registered
// programs by name (RunNamed), and its workers refuse a run that
// names none.
func (m *Master) Run(p Program) (Metrics, error) {
	err := m.run(BeginRunArgs{prog: p})
	return m.Metrics, err
}

// RunNamed drives one run of the registered program to quiescence,
// transparently retrying flaky calls and restoring from the last
// superstep checkpoint when a worker crashes.
func (m *Master) RunNamed(program string, params map[string]string) error {
	return m.run(BeginRunArgs{Program: program, Params: params})
}

func (m *Master) run(args BeginRunArgs) error {
	m.runID++
	args.RunID = m.runID
	m.lastRun = args
	for {
		err := m.runAttempt()
		var wf *workerFailure
		if !errors.As(err, &wf) {
			return err
		}
		if rerr := m.recoverWorkers(wf.workers, err); rerr != nil {
			return rerr
		}
	}
}

// Phase runs fn as one phase of the build outside its supersteps and
// records its row: fn's wall time less the rows recorded meanwhile (a
// recovery's), so no two rows hold the same time. fn fills in what
// else the row carries. The builders' own phases — order, gather,
// layout — are recorded through it too.
func (m *Master) Phase(name string, fn func(row *obs.StepTrace) error) error {
	start, inner := time.Now(), m.Metrics.Phases.Total()
	row := obs.StepTrace{Run: m.runID, Phase: name}
	err := fn(&row)
	wall := time.Since(start) - (m.Metrics.Phases.Total() - inner)
	row.WallNanos, row.Phases = wall.Nanoseconds(), obs.Phases{name: wall}
	m.record(row)
	return err
}

// record adds one row to the build's cost record, and is the one
// writer of everything read from it: the trace ("pregel" holds the
// supersteps, "pregel_phases" the rest), Metrics and the pregel_*
// series (and the modelled wire time of a simulated interconnect,
// charged beside the supersteps' measured wall). The row takes the
// retries made since the previous one.
func (m *Master) record(r obs.StepTrace) {
	r.Retries = m.retries.Swap(0)
	reg, met := m.cfg.Obs, &m.Metrics
	if r.Phase == "" {
		met.Supersteps++
		met.SimNetTime += m.cfg.Net.ExchangeCost(r.BytesRemote, m.p)
		reg.Counter("pregel_supersteps_total").Inc()
		reg.Histogram("pregel_superstep_seconds", nil).Observe(time.Duration(r.WallNanos).Seconds())
		reg.Trace("pregel").Record(r)
	} else {
		reg.Trace("pregel_phases").Record(r)
	}
	if r.Checkpoints > 0 {
		met.LastCheckpointStep = r.Step
	}
	for _, c := range []struct {
		series string
		n      int64
		sum    *int64
	}{
		{"pregel_messages_total", r.Messages, &met.Messages},
		{"pregel_bytes_local_total", r.BytesLocal, &met.BytesLocal},
		{"pregel_bytes_remote_total", r.BytesRemote, &met.BytesRemote},
		{"pregel_bcast_bytes_total", r.BcastBytes, &met.BcastBytes},
		{"pregel_retries_total", r.Retries, &met.Retries},
		{"pregel_recoveries_total", r.Recoveries, &met.Recoveries},
		{"pregel_checkpoints_total", r.Checkpoints, &met.Checkpoints},
		{"pregel_checkpoint_bytes_total", r.CheckpointBytes, &met.CheckpointBytes},
	} {
		*c.sum += c.n
		reg.Counter(c.series).Add(c.n)
	}
	met.Phases.Add(r.Phases)
	reg.Gauge("pregel_workers").Set(int64(m.p))
}

// runAttempt executes the run from wherever the hosts currently stand:
// from scratch, or — after a recovery — from the last checkpoint of
// the current run.
func (m *Master) runAttempt() error {
	p := m.p
	per := p / len(m.transports) // partitions per host: 1 on a cluster, P in process
	step := 0
	pending := make([][][]byte, p) // packets destined to each worker
	var bcasts [][]byte

	if ck := m.ckpt; ck != nil && ck.runID == m.runID {
		// An in-run checkpoint: a finished run's is taken last, so no
		// attempt of the same run follows it.
		step, pending, bcasts = ck.step, ck.pending, ck.bcasts
	} else {
		if err := m.Phase(PhaseBegin, func(*obs.StepTrace) error {
			return m.callAll("BeginRun", m.lastRun)
		}); err != nil {
			return err
		}
		// Barrier-0 snapshot: captures state carried over from earlier
		// runs so any in-run failure can rewind at least to here.
		if err := m.takeCheckpoint(0, pending, nil, false); err != nil {
			return err
		}
	}

	maxSteps := m.cfg.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 4*m.n + 64
	}
	replies := make([]*StepReply, len(m.transports))
	errs := make([]error, len(m.transports))
	stepOn := func(i int) {
		args := StepArgs{Step: step, Packets: pending[i*per : (i+1)*per], Bcasts: bcasts}
		replies[i], errs[i] = masterCall[StepReply](m, i, "Step", args)
	}
	for ; ; step++ {
		if step > maxSteps {
			return fmt.Errorf("pregel: no quiescence after %d supersteps", maxSteps)
		}
		if err := m.cfg.Ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := range m.transports {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stepOn(i)
			}(i)
		}
		wg.Wait()
		called := time.Since(start)
		if err := mergeFailures(errs); err != nil {
			if errors.As(err, new(*workerFailure)) { // a lost step: its time is the recovery's
				m.record(obs.StepTrace{Run: m.runID, Step: step, Phase: PhaseRecover,
					WallNanos: called.Nanoseconds(), Phases: obs.Phases{PhaseRecover: called}})
			}
			return err
		}

		// Route, and account the step. The slowest host's phases stand
		// for the hosts' share of the step; what the calls took beyond
		// them is the exchange.
		routed := time.Now()
		row := obs.StepTrace{Run: m.runID, Step: step, Workers: make([]obs.WorkerStep, 0, p)}
		var host obs.Phases
		delivered := false
		next := make([][][]byte, p)
		bcasts = nil
		for h, r := range replies {
			if r.Phases.Total() >= host.Total() {
				host = r.Phases
			}
			for k := range r.Workers {
				i, w := h*per+k, &r.Workers[k]
				row.Messages += w.MsgsOut
				if w.Active {
					row.ActiveWorkers++
				}
				row.Workers = append(row.Workers, w.WorkerStep)
				for dst, buf := range w.Out {
					if len(buf) == 0 {
						continue
					}
					delivered = true
					if dst == i {
						row.BytesLocal += int64(len(buf))
					} else {
						row.BytesRemote += int64(len(buf))
					}
					next[dst] = append(next[dst], buf)
				}
				// Every blob reaches all P workers.
				for _, b := range w.Bcasts {
					bcasts = append(bcasts, b)
					row.BcastBytes += int64(len(b))
					row.BytesRemote += int64(len(b)) * int64(p-1)
				}
			}
		}
		pending = next
		route := time.Since(routed)
		row.Phases = obs.Phases{PhaseExchange: called - host.Total(), PhaseRoute: route}
		row.Phases.Add(host)
		row.WallNanos = (called + route).Nanoseconds()
		m.record(row)

		if !delivered && len(bcasts) == 0 && row.ActiveWorkers == 0 {
			break
		}
		if k := m.cfg.CheckpointEvery; k > 0 && (step+1)%k == 0 {
			if err := m.takeCheckpoint(step+1, pending, bcasts, false); err != nil {
				return err
			}
		}
	}
	if err := m.Phase(PhaseFinish, func(*obs.StepTrace) error {
		return m.callAll("FinishRun", struct{}{})
	}); err != nil {
		return err
	}
	// Post-finish snapshot: the run boundary the next run (or a
	// Collect-time recovery) restores from.
	return m.takeCheckpoint(step+1, nil, nil, true)
}

// callAll makes one call with no reply to every host in turn.
func (m *Master) callAll(method string, args any) error {
	for i := range m.transports {
		if _, err := masterCall[struct{}](m, i, method, args); err != nil {
			return err
		}
	}
	return nil
}

// Collect gathers every worker's result blob, in worker order,
// recovering crashed workers from the post-finish checkpoint. It
// records no row of its own: a builder calls it inside its gather
// Phase, whose row takes the retries it makes.
func (m *Master) Collect() ([][]byte, error) {
	for {
		blobs, err := m.collectAttempt()
		if err == nil {
			return blobs, nil
		}
		var wf *workerFailure
		if !errors.As(err, &wf) {
			return nil, err
		}
		if rerr := m.recoverWorkers(wf.workers, err); rerr != nil {
			return nil, rerr
		}
	}
}

func (m *Master) collectAttempt() ([][]byte, error) {
	blobs := make([][]byte, 0, m.p)
	for i := range m.transports {
		reply, err := masterCall[CollectReply](m, i, "Collect", struct{}{})
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, reply.Blobs...)
	}
	return blobs, nil
}
