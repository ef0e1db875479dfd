package drl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// flakyCluster is the fault-injection test harness: a set of real
// worker servers reached through FaultTransports that drop calls, lose
// replies, and crash on a deterministic seeded schedule. Logical
// worker names ("w0", "w1", ...) are what the master dials; a re-dial
// starts a replacement server on a fresh port and reroutes the name,
// so the master's re-dial lands on a genuinely state-less process —
// exactly a restarted worker.
type flakyCluster struct {
	t *testing.T

	mu         sync.Mutex
	route      map[string]string // logical name -> current TCP address
	plans      map[string]pregel.FaultPlan
	dials      map[string]int
	transports []*pregel.FaultTransport
}

func newFlakyCluster(t *testing.T, plans map[string]pregel.FaultPlan) *flakyCluster {
	t.Helper()
	fc := &flakyCluster{
		t:     t,
		route: map[string]string{},
		plans: plans,
		dials: map[string]int{},
	}
	for name := range plans {
		fc.route[name] = startWorkers(t, 1)[0]
	}
	return fc
}

// addrs returns the logical worker names in w0..wN order.
func (fc *flakyCluster) addrs() []string {
	names := make([]string, 0, len(fc.route))
	for i := 0; i < len(fc.route); i++ {
		names = append(names, fmt.Sprintf("w%d", i))
	}
	return names
}

// dial is the pregel.Dialer. The master re-dials only a worker it
// gave up on, so a re-dial lands on a replacement server under a plan
// without the crash point: the replacement process is healthy (drops
// and lost replies persist — the network is still the network).
func (fc *flakyCluster) dial(logical string) (pregel.Transport, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	plan, ok := fc.plans[logical]
	if !ok {
		return nil, fmt.Errorf("flakyCluster: unknown worker %q", logical)
	}
	fc.dials[logical]++
	if n := fc.dials[logical]; n > 1 {
		plan.CrashAtCall = 0
		plan.Seed += int64(1000 * n) // fresh schedule per incarnation
		fc.route[logical] = startWorkers(fc.t, 1)[0]
	}
	inner, err := pregel.DialRPC(fc.route[logical])
	if err != nil {
		return nil, err
	}
	ft := pregel.NewFaultTransport(inner, plan)
	fc.transports = append(fc.transports, ft)
	return ft, nil
}

// stats sums the injected-fault counters across every transport the
// harness handed out.
func (fc *flakyCluster) stats() pregel.FaultStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var sum pregel.FaultStats
	for _, ft := range fc.transports {
		st := ft.Stats()
		sum.Calls += st.Calls
		sum.Drops += st.Drops
		sum.LostReplies += st.LostReplies
		sum.Crashes += st.Crashes
	}
	return sum
}

// faultOptions returns the ClusterOptions of the fault tests:
// checkpoints every 2 supersteps.
func faultOptions(fc *flakyCluster) ClusterOptions {
	return ClusterOptions{
		CheckpointEvery: 2,
		Dial:            fc.dial,
	}
}

func saveGraph(t *testing.T, g *graph.Digraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	return path
}

func indexBytes(t *testing.T, idx *label.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultScheduleEquivalence is the randomized fault-schedule
// equivalence check: seeded random DAGs and digraphs run through
// transports injecting drops, lost replies, and one worker crash —
// the produced index must be byte-identical to the serial TOL oracle.
func TestFaultScheduleEquivalence(t *testing.T) {
	clock.Fake(t) // the master's backoffs, at their constants, in virtual time
	bp := DefaultBatchParams()
	graphs := map[string]*graph.Digraph{
		"rand-dag-11":    randomDAG(40, 90, 11),
		"rand-cyclic-12": randomDigraph(35, 100, 12),
	}
	for gname, g := range graphs {
		path := saveGraph(t, g)
		ord := order.Compute(g)
		want := indexBytes(t, tol.Build(g, ord))

		for _, algo := range []string{"drl", "drl-batch"} {
			t.Run(gname+"/"+algo, func(t *testing.T) {
				fc := newFlakyCluster(t, map[string]pregel.FaultPlan{
					"w0": {Seed: 101, DropProb: 0.15, LostReplyProb: 0.10},
					"w1": {Seed: 202, DropProb: 0.10, LostReplyProb: 0.10, CrashAtCall: 9},
					"w2": {Seed: 303, DropProb: 0.15, LostReplyProb: 0.15},
				})
				copt := faultOptions(fc)
				var (
					idx *label.Index
					met pregel.Metrics
					err error
				)
				if algo == "drl" {
					idx, met, err = BuildOverClusterOf(context.Background(), fc.addrs(), g, path, nil, copt)
				} else {
					idx, met, err = BuildOverClusterOf(context.Background(), fc.addrs(), g, path, &bp, copt)
				}
				if err != nil {
					t.Fatalf("%s under faults: %v", algo, err)
				}
				if got := indexBytes(t, idx); !bytes.Equal(got, want) {
					t.Fatalf("%s index under faults is not byte-identical to TOL", algo)
				}
				st := fc.stats()
				if st.Drops+st.LostReplies == 0 {
					t.Error("no faults were injected; the test proved nothing")
				}
				if st.Crashes == 0 {
					t.Error("the planned worker crash never fired")
				}
				if met.Retries == 0 {
					t.Error("expected retried calls under injected drops")
				}
				if met.Recoveries == 0 {
					t.Error("expected at least one checkpoint recovery after the crash")
				}
			})
		}
	}
}

// TestCheckpointRoundTrip kills a worker mid-run, lets the master
// restore the cluster from the last superstep checkpoint onto a
// replacement process, and verifies the resumed build matches both an
// uninterrupted run and the TOL oracle byte for byte.
func TestCheckpointRoundTrip(t *testing.T) {
	clock.Fake(t) // the master's backoffs, at their constants, in virtual time
	g := randomDigraph(50, 140, 33)
	path := saveGraph(t, g)
	ord := order.Compute(g)
	want := indexBytes(t, tol.Build(g, ord))

	// Uninterrupted reference run on a healthy cluster.
	refIdx, _, err := BuildOverClusterOf(context.Background(), startWorkers(t, 3), g, path, nil, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := indexBytes(t, refIdx)
	if !bytes.Equal(ref, want) {
		t.Fatal("healthy run differs from TOL; fix that before testing faults")
	}

	// Crash-only plan: worker w1 dies at its 7th call — after Init,
	// BeginRun, and the step-0 checkpoint, i.e. mid-superstep-loop.
	fc := newFlakyCluster(t, map[string]pregel.FaultPlan{
		"w0": {},
		"w1": {Seed: 5, CrashAtCall: 7},
		"w2": {},
	})
	idx, met, err := BuildOverClusterOf(context.Background(), fc.addrs(), g, path, nil, faultOptions(fc))
	if err != nil {
		t.Fatalf("build with mid-run crash: %v", err)
	}
	if got := indexBytes(t, idx); !bytes.Equal(got, ref) {
		t.Fatal("resumed build differs from the uninterrupted run")
	}
	if fc.stats().Crashes == 0 {
		t.Error("the planned crash never fired")
	}
	if met.Recoveries == 0 {
		t.Error("expected a checkpoint recovery")
	}
	if met.Checkpoints == 0 || met.CheckpointBytes == 0 {
		t.Errorf("expected checkpoint activity, got %+v", met)
	}
	if fc.dials["w1"] < 2 {
		t.Error("crashed worker was never re-dialed")
	}

	// Same round trip across run boundaries: DRL_b runs once per
	// batch, and the crash lands in a middle batch.
	bp := DefaultBatchParams()
	fc = newFlakyCluster(t, map[string]pregel.FaultPlan{
		"w0": {Seed: 6, CrashAtCall: 25},
		"w1": {},
		"w2": {},
	})
	idx, met, err = BuildOverClusterOf(context.Background(), fc.addrs(), g, path, &bp, faultOptions(fc))
	if err != nil {
		t.Fatalf("batch build with crash: %v", err)
	}
	if got := indexBytes(t, idx); !bytes.Equal(got, want) {
		t.Fatal("batch build after crash recovery is not byte-identical to TOL")
	}
	if met.Recoveries == 0 {
		t.Error("expected a checkpoint recovery in the batch build")
	}
}

// dieAtRun is a Transport to a worker that dies as the master begins
// run k: that BeginRun and every later call fail as a dead
// connection's would.
type dieAtRun struct {
	pregel.Transport
	run  int
	dead *atomic.Bool
}

func (d dieAtRun) Call(method string, args, reply any) error {
	if a, ok := args.(pregel.BeginRunArgs); ok && a.RunID == d.run {
		d.dead.Store(true)
	}
	if d.dead.Load() {
		return errors.New("connection reset by peer")
	}
	return d.Transport.Call(method, args, reply)
}

// TestRunBoundaryRecovery: a worker lost while the second batch begins
// is replaced and restored from the first batch's post-finish
// checkpoint, which carries only its labels onto the new batch, and the
// build still equals TOL.
func TestRunBoundaryRecovery(t *testing.T) {
	clock.Fake(t) // the master's backoffs, at their constants, in virtual time
	g := randomDigraph(50, 140, 33)
	path := saveGraph(t, g)
	want := indexBytes(t, tol.Build(g, order.Compute(g)))
	addrs := startWorkers(t, 3)
	var dials atomic.Int64
	copt := ClusterOptions{Dial: func(addr string) (pregel.Transport, error) {
		if addr == addrs[1] && dials.Add(1) > 1 {
			addr = startWorkers(t, 1)[0] // the replacement
		}
		inner, err := pregel.DialRPC(addr)
		if addr == addrs[1] {
			return dieAtRun{inner, 2, new(atomic.Bool)}, err
		}
		return inner, err
	}}
	bp := DefaultBatchParams()
	idx, met, err := BuildOverClusterOf(context.Background(), addrs, g, path, &bp, copt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indexBytes(t, idx), want) || met.Recoveries != 1 {
		t.Errorf("after %d recoveries the index equals TOL's: %v; want 1 recovery and TOL's index", met.Recoveries, bytes.Equal(indexBytes(t, idx), want))
	}
}
