package pregel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Failure-path coverage for the master↔host protocol: injected drops,
// timeouts, dead workers, retry exhaustion, and connection cleanup.
// The retry, dedup and recovery tests run once over TCP and once over
// Direct transports to hosts in the test process (eachCluster): the
// fault handling sits above the Transport and must not tell them apart.

func init() {
	RegisterRPC("test-slow", func(*Host, map[string]string) (Program, error) { return &slowProgram{}, nil })
}

// slowProgram stalls its first superstep until the fake clock passes
// the per-call deadline, exercising timeout + retry + worker-side
// deduplication.
type slowProgram struct{}

func (p *slowProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == 0 {
		clock.Sleep(callTimeout)
	}
	return false, nil
}
func (p *slowProgram) Finish(w *Worker) error { return nil }

func startWorkerOpts(t *testing.T, opts WorkerOptions) string {
	t.Helper()
	ready := make(chan string, 1)
	go func() {
		if err := ServeWorker("127.0.0.1:0", ready, opts); err != nil {
			t.Log(err)
		}
	}()
	return <-ready
}

// testCluster is how a test stands up hosts and reaches them.
type testCluster struct {
	name  string
	start func(t *testing.T, opts WorkerOptions) (addr string)
	dial  Dialer
}

// eachCluster runs fn against real TCP workers and against hosts in
// this process behind Direct transports, each on a fake clock: the
// master's backoffs take no real time.
func eachCluster(t *testing.T, fn func(t *testing.T, c testCluster)) {
	var mu sync.Mutex
	hosts := map[string]*Host{}
	for _, c := range []testCluster{
		{"tcp", startWorkerOpts, DialRPC},
		{"direct", func(t *testing.T, opts WorkerOptions) string {
			mu.Lock()
			defer mu.Unlock()
			addr := fmt.Sprintf("host-%d", len(hosts))
			hosts[addr] = &Host{stepHook: opts.StepHook}
			return addr
		}, func(addr string) (Transport, error) {
			mu.Lock()
			defer mu.Unlock()
			h, ok := hosts[addr]
			if !ok {
				return nil, fmt.Errorf("no host %q", addr)
			}
			return Direct{h}, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			clock.Fake(t)
			fn(t, c)
		})
	}
}

// stubTransport wraps a real connection and simulates the worker's
// process dying right after a chosen method returns: every later call
// fails at the transport layer.
type stubTransport struct {
	inner    Transport
	dieAfter string // method suffix after which the connection "dies"
	dieOn    string // method suffix whose call finds it dead
	closeErr error

	mu     sync.Mutex
	dead   bool
	closed bool
}

func (s *stubTransport) Call(method string, args, reply any) error {
	s.mu.Lock()
	if s.dieOn != "" && strings.HasSuffix(method, "."+s.dieOn) {
		s.dead = true
	}
	if s.dead {
		s.mu.Unlock()
		return fmt.Errorf("stub: connection reset by peer")
	}
	s.mu.Unlock()
	err := s.inner.Call(method, args, reply)
	if s.dieAfter != "" && strings.HasSuffix(method, "."+s.dieAfter) {
		s.mu.Lock()
		s.dead = true
		s.mu.Unlock()
	}
	return err
}

func (s *stubTransport) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.inner != nil {
		s.inner.Close()
	}
	return s.closeErr
}

func (s *stubTransport) wasClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// countingInner counts calls without any real connection.
type countingInner struct {
	calls  int
	closed bool
}

func (c *countingInner) Call(method string, args, reply any) error {
	c.calls++
	return nil
}
func (c *countingInner) Close() error { c.closed = true; return nil }

func TestFaultTransportDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 7, DropProb: 0.3, LostReplyProb: 0.2, CrashAtCall: 40}
	outcomes := func() []string {
		ft := NewFaultTransport(&countingInner{}, plan)
		var out []string
		for i := 0; i < 50; i++ {
			err := ft.Call("Svc.M", struct{}{}, &struct{}{})
			switch {
			case err == nil:
				out = append(out, "ok")
			case errors.Is(err, ErrInjectedCrash):
				out = append(out, "crash")
			case errors.Is(err, ErrInjectedDrop):
				out = append(out, "drop")
			default:
				out = append(out, "other")
			}
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d: %s vs %s", i, a[i], b[i])
		}
	}
	if !strings.Contains(strings.Join(a, ","), "drop") {
		t.Error("expected at least one injected drop")
	}
	if a[len(a)-1] != "crash" {
		t.Errorf("calls past the crash point should fail, got %s", a[len(a)-1])
	}
	if a[plan.CrashAtCall-2] == "crash" || a[plan.CrashAtCall-1] != "crash" {
		t.Errorf("calls %d and %d: %s, %s; want the crash at call %d", plan.CrashAtCall-1, plan.CrashAtCall,
			a[plan.CrashAtCall-2], a[plan.CrashAtCall-1], plan.CrashAtCall)
	}
	inner := &countingInner{}
	ft := NewFaultTransport(inner, plan)
	for i := 0; i < 45; i++ {
		ft.Call("Svc.M", struct{}{}, &struct{}{})
	}
	if !ft.Crashed() {
		t.Error("transport should report crashed")
	}
	// A drop and a lost reply both come back as ErrInjectedDrop; the
	// counters tell them apart and add up to what the caller saw.
	drops := strings.Count(strings.Join(a[:plan.CrashAtCall-1], ","), "drop")
	if st := ft.Stats(); st.Crashes != 1 || st.Drops == 0 || st.LostReplies == 0 || st.Drops+st.LostReplies != drops {
		t.Errorf("fault stats %+v, want one crash and drops plus lost replies = the %d failed calls", st, drops)
	}
	ft.Close()
	if !inner.closed {
		t.Error("Close left the inner transport open")
	}
}

// TestMasterRetriesTransientDrops runs a full job through transports
// that drop a third of all calls; the retry layer must absorb every
// one of them — and, the fault schedule being a function of the seeds
// and the call sequence alone, absorb the same number over TCP as over
// Direct.
func TestMasterRetriesTransientDrops(t *testing.T) {
	var retries []int64
	eachCluster(t, func(t *testing.T, c testCluster) {
		addrs := []string{c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{})}
		seed := int64(0)
		dial := func(addr string) (Transport, error) {
			inner, err := c.dial(addr)
			if err != nil {
				return nil, err
			}
			seed++
			return NewFaultTransport(inner, FaultPlan{Seed: seed, DropProb: 0.3}), nil
		}
		m, err := DialCluster(addrs, graphFile(t), Config{Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.retry.attempts = 8
		if err := m.RunNamed("test-noop", nil); err != nil {
			t.Fatal(err)
		}
		blobs, err := m.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(blobs) != 2 || blobs[0][0] != 0 || blobs[1][0] != 1 {
			t.Errorf("collect blobs wrong: %v", blobs)
		}
		if m.Metrics.Retries == 0 {
			t.Error("expected retried calls with a 30%% drop rate")
		}
		retries = append(retries, m.Metrics.Retries)
	})
	if len(retries) == 2 && retries[0] != retries[1] {
		t.Errorf("same seeds, different retry counts: tcp %d, direct %d", retries[0], retries[1])
	}
}

// TestMasterStepTimeout times out a superstep that outlives the 30 s
// per-call deadline on the fake clock; the retried Step must hit the
// worker's dedup cache instead of recomputing, and the run must still
// succeed.
func TestMasterStepTimeout(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		var executed atomic.Int64
		addr := c.start(t, WorkerOptions{StepHook: func(int) { executed.Add(1) }})
		m, err := DialCluster([]string{addr}, graphFile(t), Config{Dial: c.dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.RunNamed("test-slow", nil); err != nil {
			t.Fatalf("run with a slow first superstep: %v", err)
		}
		if m.Metrics.Retries == 0 {
			t.Error("expected timeout-driven retries")
		}
		if n := executed.Load(); n != 1 {
			t.Errorf("superstep executed %d times on the worker, dedup should keep it at 1", n)
		}
	})
}

// TestMasterRetryExhaustion kills a worker right after BeginRun; with
// recovery disabled the master must surface a wrapped
// retries-exhausted error naming the worker.
func TestMasterRetryExhaustion(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		addrs := []string{c.start(t, WorkerOptions{})}
		dial := func(addr string) (Transport, error) {
			inner, err := c.dial(addr)
			if err != nil {
				return nil, err
			}
			return &stubTransport{inner: inner, dieAfter: "BeginRun"}, nil
		}
		m, err := DialCluster(addrs, graphFile(t), Config{Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.retry.attempts = 3
		m.retry.recoveries = 0 // no recovery: surface the raw failure
		err = m.RunNamed("test-noop", nil)
		if err == nil {
			t.Fatal("run against a dead worker should fail")
		}
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Errorf("want ErrRetriesExhausted in chain, got: %v", err)
		}
		if !strings.Contains(err.Error(), "worker") {
			t.Errorf("error should name the failed worker: %v", err)
		}
		// The first call to the dead worker had its three attempts.
		if m.Metrics.Retries != 2 {
			t.Errorf("%d retries, want 2: three attempts of one call", m.Metrics.Retries)
		}
	})
}

// TestMasterNoSnapshotterNoRecovery: a crashed worker running a
// program without Snapshotter support cannot be recovered — the
// master must say so rather than loop.
func TestMasterNoSnapshotterNoRecovery(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		addrs := []string{c.start(t, WorkerOptions{})}
		dial := func(addr string) (Transport, error) {
			inner, err := c.dial(addr)
			if err != nil {
				return nil, err
			}
			// Die after the step-0 Checkpoint: the master has learned the
			// program cannot snapshot, then loses the worker.
			return &stubTransport{inner: inner, dieAfter: "Checkpoint"}, nil
		}
		m, err := DialCluster(addrs, graphFile(t), Config{Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.retry.attempts = 2
		err = m.RunNamed("test-noop", nil)
		if err == nil {
			t.Fatal("expected failure")
		}
		if !errors.Is(err, ErrNoRecovery) {
			t.Errorf("want ErrNoRecovery (noop program has no Snapshotter), got: %v", err)
		}
	})
}

// TestMasterCloseErrors: Close must report per-connection close
// failures instead of swallowing them.
func TestMasterCloseErrors(t *testing.T) {
	sentinel := errors.New("close exploded")
	addrs := []string{startWorker(t)}
	dial := func(addr string) (Transport, error) {
		inner, err := DialRPC(addr)
		if err != nil {
			return nil, err
		}
		return &stubTransport{inner: inner, closeErr: sentinel}, nil
	}
	m, err := DialCluster(addrs, graphFile(t), Config{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); !errors.Is(err, sentinel) {
		t.Errorf("Close should surface the transport error, got %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close should be a no-op, got %v", err)
	}
}

// TestDialClusterClosesOnFailure: when a later dial (or Init) fails,
// every already-opened connection must be closed.
func TestDialClusterClosesOnFailure(t *testing.T) {
	good := startWorker(t)
	var opened []*stubTransport
	dial := func(addr string) (Transport, error) {
		if addr == "bad" {
			return nil, errors.New("no route to host")
		}
		inner, err := DialRPC(addr)
		if err != nil {
			return nil, err
		}
		st := &stubTransport{inner: inner}
		opened = append(opened, st)
		return st, nil
	}
	if _, err := DialCluster([]string{good, "bad"}, graphFile(t), Config{Dial: dial}); err == nil {
		t.Fatal("dialing a bad address should fail")
	}
	if len(opened) != 1 || !opened[0].wasClosed() {
		t.Errorf("already-dialed connection leaked (opened=%d)", len(opened))
	}

	// Same contract when Init fails after all dials succeeded.
	opened = nil
	addrs := []string{startWorker(t), startWorker(t)}
	if _, err := DialCluster(addrs, "/nonexistent-graph", Config{Dial: dial}); err == nil {
		t.Fatal("Init with a bad graph path should fail")
	}
	for i, st := range opened {
		if !st.wasClosed() {
			t.Errorf("connection %d leaked after Init failure", i)
		}
	}
}

// TestWorkerStepDedupAndOutOfSync drives the worker protocol raw:
// a duplicate Step must replay the cached reply, a skipped step must
// fail with the out-of-sync sentinel, and BeginRun/FinishRun must be
// idempotent per run.
func TestWorkerStepDedupAndOutOfSync(t *testing.T) {
	eachCluster(t, testWorkerStepDedupAndOutOfSync)
}

func testWorkerStepDedupAndOutOfSync(t *testing.T, tc testCluster) {
	c, err := tc.dial(tc.start(t, WorkerOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustCall := func(method string, args any, reply any) {
		t.Helper()
		if err := c.Call(RPCServiceName+"."+method, args, reply); err != nil {
			t.Fatal(err)
		}
	}
	mustCall("Init", InitArgs{WorkerID: 0, NumWorkers: 1, GraphPath: graphFile(t)}, &InitReply{})
	mustCall("BeginRun", BeginRunArgs{RunID: 1, Program: "test-noop"}, &struct{}{})
	step := func(n int) StepArgs { return StepArgs{Step: n, Packets: make([][][]byte, 1)} }
	var r1, r2 StepReply
	mustCall("Step", step(0), &r1)
	mustCall("Step", step(0), &r2) // duplicate: cached replay
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("duplicate step reply differs: %+v vs %+v", r1, r2)
	}
	var r3 StepReply
	err = c.Call(RPCServiceName+".Step", step(5), &r3)
	if err == nil || !isOutOfSync(err) {
		t.Errorf("skipped step should be out-of-sync, got %v", err)
	}
	if err := c.Call(RPCServiceName+".Step", StepArgs{Step: 1}, &r3); err == nil {
		t.Error("a step with packets for no partition should fail")
	}
	// Duplicate BeginRun for the same run is a no-op (dedup cursor intact).
	mustCall("BeginRun", BeginRunArgs{RunID: 1, Program: "test-noop"}, &struct{}{})
	var r4 StepReply
	mustCall("Step", step(1), &r4)
	// FinishRun twice: idempotent.
	mustCall("FinishRun", struct{}{}, &struct{}{})
	mustCall("FinishRun", struct{}{}, &struct{}{})
}

// TestCheckpointProtocolErrors covers the checkpoint RPCs' ordering
// and capability errors.
func TestCheckpointProtocolErrors(t *testing.T) {
	eachCluster(t, testCheckpointProtocolErrors)
}

func testCheckpointProtocolErrors(t *testing.T, tc testCluster) {
	c, err := tc.dial(tc.start(t, WorkerOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var cr CheckpointReply
	if err := c.Call(RPCServiceName+".Checkpoint", struct{}{}, &cr); err == nil {
		t.Error("Checkpoint before BeginRun should fail")
	}
	if err := c.Call(RPCServiceName+".Restore", RestoreArgs{}, &struct{}{}); err == nil {
		t.Error("Restore before BeginRun should fail")
	}
	if err := c.Call(RPCServiceName+".Init", InitArgs{WorkerID: 0, NumWorkers: 1, GraphPath: graphFile(t)}, &InitReply{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".BeginRun", BeginRunArgs{RunID: 1, Program: "test-noop"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".Checkpoint", struct{}{}, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Supported {
		t.Error("noop program should not support checkpointing")
	}
	if err := c.Call(RPCServiceName+".Restore", RestoreArgs{}, &struct{}{}); err == nil {
		t.Error("Restore for a Snapshotter-less program should fail")
	}
	if err := c.Call(RPCServiceName+".BeginRun", BeginRunArgs{RunID: 2, Program: "test-snapflood"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".Restore", RestoreArgs{}, &struct{}{}); err == nil {
		t.Error("Restore with no blob for the host's partition should fail")
	}
}

// snapFlood is floodProgram (pregel_test.go) made recoverable and
// collectable: its whole state is one int32 per vertex, in vertex
// order.
type snapFlood struct{ floodProgram }

func (p *snapFlood) EncodeState(w *Worker) ([]byte, error) {
	st, _ := w.State.(*floodState)
	if st == nil {
		return nil, nil
	}
	var blob []byte
	w.OwnedVertices(func(v graph.VertexID) {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(st.best[v]))
	})
	return blob, nil
}

func (p *snapFlood) DecodeState(w *Worker, blob []byte) error {
	if len(blob) == 0 {
		w.State = nil
		return nil
	}
	st := &floodState{best: make(map[graph.VertexID]int32)}
	w.OwnedVertices(func(v graph.VertexID) {
		st.best[v] = int32(binary.LittleEndian.Uint32(blob))
		blob = blob[4:]
	})
	w.State = st
	return nil
}

func (p *snapFlood) Collect(w *Worker) ([]byte, error) { return p.EncodeState(w) }

func init() {
	RegisterRPC("test-snapflood", func(*Host, map[string]string) (Program, error) { return &snapFlood{}, nil })
}

// TestMasterRecoversFromCheckpoint crashes one of three hosts in the
// middle of a run, on a seeded schedule of drops and lost replies: the
// master must re-dial (landing on a fresh, state-less host), restore
// everyone from the last superstep checkpoint and finish with the
// result of an undisturbed run — over TCP and over Direct alike, with
// the same retries, recoveries and checkpoints counted. The ring is
// long enough that a run outlasts 64 supersteps, the bound a master
// would set had Init not told it the graph's size.
func TestMasterRecoversFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.bin")
	if err := graph.SaveFile(path, ring(80), true); err != nil {
		t.Fatal(err)
	}
	type counters struct{ retries, recoveries, checkpoints int64 }
	var seen []counters
	eachCluster(t, func(t *testing.T, c testCluster) {
		clean, err := DialCluster([]string{c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{})},
			path, Config{Dial: c.dial})
		if err != nil {
			t.Fatal(err)
		}
		defer clean.Close()
		if err := clean.RunNamed("test-snapflood", nil); err != nil {
			t.Fatal(err)
		}
		want, err := clean.Collect()
		if err != nil {
			t.Fatal(err)
		}

		// Logical names, so a re-dial can land on a replacement host.
		route := map[string]string{}
		dials := map[string]int{}
		plans := map[string]FaultPlan{
			"w0": {Seed: 11, DropProb: 0.1, LostReplyProb: 0.1},
			"w1": {Seed: 12, DropProb: 0.1, LostReplyProb: 0.1, CrashAtCall: 12},
			"w2": {Seed: 13, DropProb: 0.1, LostReplyProb: 0.1},
		}
		dial := func(name string) (Transport, error) {
			plan := plans[name]
			if dials[name]++; dials[name] > 1 || route[name] == "" {
				route[name] = c.start(t, WorkerOptions{})
			}
			if dials[name] > 1 {
				plan.CrashAtCall = 0 // the replacement is healthy; the network is still the network
				plan.Seed += 1000
			}
			inner, err := c.dial(route[name])
			if err != nil {
				return nil, err
			}
			return NewFaultTransport(inner, plan), nil
		}
		reg := obs.New()
		m, err := DialCluster([]string{"w0", "w1", "w2"}, path, Config{CheckpointEvery: 3, Dial: dial, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.retry.attempts = 8
		if err := m.RunNamed("test-snapflood", nil); err != nil {
			t.Fatalf("run with a mid-run crash: %v", err)
		}
		var got [][]byte
		if err := m.Phase(PhaseGather, func(*obs.StepTrace) (err error) {
			got, err = m.Collect()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recovered run collected %v, undisturbed run %v", got, want)
		}
		if dials["w1"] < 2 || m.Metrics.Recoveries == 0 || m.Metrics.Checkpoints == 0 || m.Metrics.Retries == 0 {
			t.Errorf("w1 dialed %d times, metrics %+v: the crash, the drops or the recovery never happened", dials["w1"], m.Metrics)
		}
		// The record charges every fault once, to the row it happened in:
		// the rows, Metrics and the pregel_* series agree exactly.
		var rows counters
		for _, trace := range reg.TraceSnapshot() {
			for _, r := range trace {
				rows.retries += r.Retries
				rows.recoveries += r.Recoveries
				rows.checkpoints += r.Checkpoints
			}
		}
		series := counters{reg.CounterValue("pregel_retries_total"), reg.CounterValue("pregel_recoveries_total"), reg.CounterValue("pregel_checkpoints_total")}
		met := counters{m.Metrics.Retries, m.Metrics.Recoveries, m.Metrics.Checkpoints}
		if rows != met || series != met {
			t.Errorf("{retries recoveries checkpoints}: rows %v, pregel_* series %v, Metrics %v", rows, series, met)
		}
		seen = append(seen, met)
	})
	if len(seen) == 2 && seen[0] != seen[1] {
		t.Errorf("same seeds, different {retries recoveries checkpoints}: tcp %v, direct %v", seen[0], seen[1])
	}
}

// skipStep hands its host, once, the superstep after the one the
// master issued, as a host that missed a step would see it.
type skipStep struct {
	Transport
	once *sync.Once
}

func (s skipStep) Call(method string, args, reply any) error {
	if a, ok := args.(StepArgs); ok && a.Step == 5 {
		s.once.Do(func() { a.Step++; args = a })
	}
	return s.Transport.Call(method, args, reply)
}

// TestMasterRecoversFromOutOfSync: a host that answers out-of-sync is
// recovered from the last checkpoint like a crashed one, and the run
// collects what an undisturbed run does.
func TestMasterRecoversFromOutOfSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.bin")
	if err := graph.SaveFile(path, ring(24), true); err != nil {
		t.Fatal(err)
	}
	eachCluster(t, func(t *testing.T, c testCluster) {
		run := func(dial Dialer) (*Master, [][]byte) {
			m, err := DialCluster([]string{c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{})}, path, Config{CheckpointEvery: 2, Dial: dial})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			if err := m.RunNamed("test-snapflood", nil); err != nil {
				t.Fatal(err)
			}
			blobs, err := m.Collect()
			if err != nil {
				t.Fatal(err)
			}
			return m, blobs
		}
		_, want := run(c.dial)
		once := new(sync.Once)
		m, got := run(func(addr string) (Transport, error) {
			inner, err := c.dial(addr)
			return skipStep{inner, once}, err
		})
		if !reflect.DeepEqual(got, want) || m.Metrics.Recoveries != 1 {
			t.Errorf("collected %v after %d recoveries, want %v after 1", got, m.Metrics.Recoveries, want)
		}
	})
}

// TestMasterRecoveryLimits: a worker lost before the first checkpoint
// is recovered with nothing to restore, one lost right after it is
// restored to superstep 0, one lost as the master collects is restored
// to the finished run, and two lost in one superstep are recovered
// together. A re-dial gets its attempts and, when every one fails,
// ends the run with its error; a worker that dies every time it begins
// a run costs exactly the recovery bound before the master gives up.
func TestMasterRecoveryLimits(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		// dialer hands out plain connections, except the ones dies names
		// by dial number, which die after the given method ("on Collect":
		// at the collect), and the ones fails names, which fail.
		dialer := func(dies map[int]string, fails ...int) Dialer {
			n := 0
			return func(addr string) (Transport, error) {
				if n++; slices.Contains(fails, n) {
					return nil, errors.New("no route to host")
				}
				inner, err := c.dial(addr)
				if err != nil || dies[n] == "" {
					return inner, err
				}
				if on, ok := strings.CutPrefix(dies[n], "on "); ok {
					return &stubTransport{inner: inner, dieOn: on}, nil
				}
				return &stubTransport{inner: inner, dieAfter: dies[n]}, nil
			}
		}
		run := func(dial Dialer, recoveries, hosts int) (*Master, error) {
			var addrs []string
			for range hosts {
				addrs = append(addrs, c.start(t, WorkerOptions{}))
			}
			m, err := DialCluster(addrs, graphFile(t), Config{Dial: dial})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			m.retry.attempts = 2
			m.retry.recoveries = recoveries
			if err := m.RunNamed("test-snapflood", nil); err != nil {
				return m, err
			}
			_, err = m.Collect()
			return m, err
		}
		for _, dies := range []string{"Init", "Checkpoint", "on Collect"} {
			if m, err := run(dialer(map[int]string{1: dies}), 1, 1); err != nil || m.Metrics.Recoveries != 1 {
				t.Errorf("lost after %s: %v after %d recoveries, want success after 1", dies, err, m.Metrics.Recoveries)
			}
		}
		// Two workers lost in one superstep cost one recovery.
		if m, err := run(dialer(map[int]string{1: "on Step", 2: "on Step"}), 1, 2); err != nil || m.Metrics.Recoveries != 1 {
			t.Errorf("two workers lost at once: %v after %d recoveries, want success after 1", err, m.Metrics.Recoveries)
		}
		if m, err := run(dialer(map[int]string{1: "BeginRun"}, 2), 1, 1); err != nil || m.Metrics.Recoveries != 1 {
			t.Errorf("a re-dial whose first attempt fails: %v after %d recoveries, want success after 1", err, m.Metrics.Recoveries)
		}
		if _, err := run(dialer(map[int]string{1: "BeginRun"}, 2, 3), 1, 1); err == nil || !strings.Contains(err.Error(), "re-dialing") {
			t.Errorf("a re-dial whose two attempts fail: got %v", err)
		}
		always := map[int]string{1: "BeginRun", 2: "BeginRun", 3: "BeginRun", 4: "BeginRun"}
		if m, err := run(dialer(always), 2, 1); err == nil || m.Metrics.Recoveries != 2 {
			t.Errorf("a worker that always dies: %v after %d recoveries, want an error after 2", err, m.Metrics.Recoveries)
		}
	})
}

// TestRecoverStopsWhenCanceled: a re-dial that finds the run's context
// done makes no further attempt, and the run ends with the context's
// error, not with the re-dial's.
func TestRecoverStopsWhenCanceled(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		dials := 0
		dial := func(addr string) (Transport, error) {
			if dials++; dials > 1 {
				cancel()
				return nil, errors.New("no route to host")
			}
			inner, err := c.dial(addr)
			return &stubTransport{inner: inner, dieOn: "Step"}, err
		}
		m, err := DialCluster([]string{c.start(t, WorkerOptions{})}, graphFile(t), Config{Dial: dial, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.RunNamed("test-snapflood", nil); !errors.Is(err, context.Canceled) || dials != 2 {
			t.Errorf("got %v after %d dials, want context.Canceled after the first re-dial", err, dials)
		}
	})
}

// TestBackoff: the pause before retry a+1 doubles from the base with
// half-width jitter, up to the cap.
func TestBackoff(t *testing.T) {
	for _, row := range []struct {
		attempt int
		full    time.Duration
	}{{1, baseBackoff}, {2, 2 * baseBackoff}, {3, 4 * baseBackoff}, {10, maxBackoff}} {
		seen := map[time.Duration]bool{}
		for i := 0; i < 20; i++ {
			d := backoff(row.attempt)
			if d < row.full/2 || d > row.full {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", row.attempt, d, row.full/2, row.full)
			}
			seen[d] = true
		}
		if len(seen) == 1 {
			t.Errorf("backoff(%d) drew %d pauses alike: no jitter", row.attempt, 20)
		}
	}
}

// Crashed reports whether the crash point has been reached.
func (t *FaultTransport) Crashed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashed
}
