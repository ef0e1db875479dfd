package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// Failure-path coverage for the master↔host protocol: injected drops,
// timeouts, dead workers, retry exhaustion, and connection cleanup.
// The retry, dedup and recovery tests run once over TCP and once over
// Direct transports to hosts in the test process (eachCluster): the
// fault handling sits above the Transport and must not tell them apart.

func init() {
	RegisterRPC("test-slow", func(*Host, map[string]string) (Program, error) { return &slowProgram{}, nil })
}

// slowProgram stalls its first superstep long past the per-call
// deadline, exercising timeout + retry + worker-side deduplication.
type slowProgram struct{}

func (p *slowProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == 0 {
		time.Sleep(150 * time.Millisecond)
	}
	return false, nil
}
func (p *slowProgram) Finish(w *Worker) error { return nil }

func startWorkerOpts(t *testing.T, opts WorkerOptions) string {
	t.Helper()
	ready := make(chan string, 1)
	go func() {
		if err := ServeWorkerOpts("127.0.0.1:0", ready, opts); err != nil {
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
// this process behind Direct transports.
func eachCluster(t *testing.T, fn func(t *testing.T, c testCluster)) {
	var mu sync.Mutex
	hosts := map[string]*Host{}
	for _, c := range []testCluster{
		{"tcp", startWorkerOpts, DialRPC},
		{"direct", func(t *testing.T, opts WorkerOptions) string {
			mu.Lock()
			defer mu.Unlock()
			addr := fmt.Sprintf("host-%d", len(hosts))
			hosts[addr] = &Host{stepHook: opts.StepHook, obs: opts.Obs}
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
		t.Run(c.name, func(t *testing.T) { fn(t, c) })
	}
}

// stubTransport wraps a real connection and simulates the worker's
// process dying right after a chosen method returns: every later call
// fails at the transport layer.
type stubTransport struct {
	inner    Transport
	dieAfter string // method suffix after which the connection "dies"
	closeErr error

	mu     sync.Mutex
	dead   bool
	closed bool
}

func (s *stubTransport) Call(method string, args, reply any) error {
	s.mu.Lock()
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

// fastRetry keeps test retries snappy and deterministic.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		CallTimeout: 2 * time.Second,
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}
}

// countingInner counts calls without any real connection.
type countingInner struct{ calls int }

func (c *countingInner) Call(method string, args, reply any) error {
	c.calls++
	return nil
}
func (c *countingInner) Close() error { return nil }

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
	ft := NewFaultTransport(&countingInner{}, plan)
	for i := 0; i < 45; i++ {
		ft.Call("Svc.M", struct{}{}, &struct{}{})
	}
	if !ft.Crashed() {
		t.Error("transport should report crashed")
	}
	if st := ft.Stats(); st.Crashes != 1 || st.Drops == 0 {
		t.Errorf("unexpected fault stats: %+v", st)
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
		m, err := DialClusterOpts(addrs, graphFile(t), Config{Retry: fastRetry(), Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
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

// TestMasterStepTimeout times out a superstep that outlives the
// per-call deadline; the retried Step must hit the worker's dedup
// cache instead of recomputing, and the run must still succeed.
func TestMasterStepTimeout(t *testing.T) {
	eachCluster(t, func(t *testing.T, c testCluster) {
		var executed atomic.Int64
		addr := c.start(t, WorkerOptions{
			StepHook: func(int) { executed.Add(1) },
		})
		pol := fastRetry()
		pol.CallTimeout = 40 * time.Millisecond
		pol.MaxAttempts = 12
		pol.BaseBackoff = 10 * time.Millisecond
		pol.MaxBackoff = 20 * time.Millisecond
		m, err := DialClusterOpts([]string{addr}, graphFile(t), Config{Retry: pol, Dial: c.dial})
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
		pol := fastRetry()
		pol.MaxAttempts = 3
		pol.MaxRecoveries = -1 // disable recovery: surface the raw failure
		m, err := DialClusterOpts(addrs, graphFile(t), Config{Retry: pol, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
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
		pol := fastRetry()
		pol.MaxAttempts = 2
		m, err := DialClusterOpts(addrs, graphFile(t), Config{Retry: pol, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
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
	m, err := DialClusterOpts(addrs, graphFile(t), Config{Dial: dial})
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
	if _, err := DialClusterOpts([]string{good, "bad"}, graphFile(t), Config{Dial: dial}); err == nil {
		t.Fatal("dialing a bad address should fail")
	}
	if len(opened) != 1 || !opened[0].wasClosed() {
		t.Errorf("already-dialed connection leaked (opened=%d)", len(opened))
	}

	// Same contract when Init fails after all dials succeeded.
	opened = nil
	addrs := []string{startWorker(t), startWorker(t)}
	pol := fastRetry()
	pol.MaxAttempts = 1
	if _, err := DialClusterOpts(addrs, "/nonexistent-graph", Config{Retry: pol, Dial: dial}); err == nil {
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

func (p *snapFlood) DecodeState(w *Worker, blob []byte, sameRun bool) error {
	if len(blob) == 0 || !sameRun {
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
// the same retries, recoveries and checkpoints counted.
func TestMasterRecoversFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.bin")
	if err := graph.SaveFile(path, ring(24), true); err != nil {
		t.Fatal(err)
	}
	type counters struct{ retries, recoveries, checkpoints int64 }
	var seen []counters
	eachCluster(t, func(t *testing.T, c testCluster) {
		clean, err := DialClusterOpts([]string{c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{}), c.start(t, WorkerOptions{})},
			path, Config{Retry: fastRetry(), Dial: c.dial})
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
		m, err := DialClusterOpts([]string{"w0", "w1", "w2"}, path, Config{Retry: fastRetry(), CheckpointEvery: 3, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.RunNamed("test-snapflood", nil); err != nil {
			t.Fatalf("run with a mid-run crash: %v", err)
		}
		got, err := m.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recovered run collected %v, undisturbed run %v", got, want)
		}
		if dials["w1"] < 2 || m.Metrics.Recoveries == 0 || m.Metrics.Checkpoints == 0 || m.Metrics.Retries == 0 {
			t.Errorf("w1 dialed %d times, metrics %+v: the crash, the drops or the recovery never happened", dials["w1"], m.Metrics)
		}
		seen = append(seen, counters{m.Metrics.Retries, m.Metrics.Recoveries, m.Metrics.Checkpoints})
	})
	if len(seen) == 2 && seen[0] != seen[1] {
		t.Errorf("same seeds, different {retries recoveries checkpoints}: tcp %v, direct %v", seen[0], seen[1])
	}
}
