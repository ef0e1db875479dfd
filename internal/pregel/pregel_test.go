package pregel

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
)

// floodProgram computes min-label propagation (connected components
// over out-edges): every vertex adopts the smallest vertex ID that
// reaches it. A classic vertex-centric kernel, used here to exercise
// the engine.
type floodProgram struct{}

type floodState struct {
	best map[graph.VertexID]int32
}

func (p *floodProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == 0 {
		st := &floodState{best: make(map[graph.VertexID]int32)}
		w.State = st
		w.OwnedVertices(func(v graph.VertexID) {
			st.best[v] = int32(v)
			for _, nb := range w.Graph.OutNeighbors(v) {
				w.Send(Msg{Dst: nb, Val: int32(v)})
			}
		})
		return true, nil
	}
	st := w.State.(*floodState)
	for _, m := range w.Inbox {
		if m.Val < st.best[m.Dst] {
			st.best[m.Dst] = m.Val
			for _, nb := range w.Graph.OutNeighbors(m.Dst) {
				w.Send(Msg{Dst: nb, Val: m.Val})
			}
		}
	}
	return len(w.Inbox) > 0, nil
}

func (p *floodProgram) Finish(w *Worker) error { return nil }

func floodResult(e *Master, n int) []int32 {
	out := make([]int32, n)
	for _, w := range e.Workers() {
		st := w.State.(*floodState)
		for v, b := range st.best {
			out[v] = b
		}
	}
	return out
}

func ring(n int) *graph.Digraph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID((i + 1) % n)})
	}
	return graph.FromEdges(n, edges)
}

// TestFloodDeterministicAcrossWorkers: the kernel's result must not
// depend on the partition count.
func TestFloodDeterministicAcrossWorkers(t *testing.T) {
	g := ring(37)
	var want []int32
	for _, p := range []int{1, 2, 5, 8} {
		e := New(g, Config{Workers: p})
		if _, err := e.Run(&floodProgram{}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := floodResult(e, 37)
		for v, b := range got {
			if b != 0 {
				t.Fatalf("p=%d: vertex %d got min %d, want 0 (ring)", p, v, b)
			}
		}
		if want == nil {
			want = got
		}
	}
}

// TestMetricsAccounting checks messages, bytes, and superstep counts
// on a known workload.
func TestMetricsAccounting(t *testing.T) {
	// A ring plus two same-parity chords, so that with two workers
	// (even/odd partition) both local and remote traffic exists.
	edges := ring(10).Edges(nil)
	edges = append(edges, graph.Edge{U: 0, V: 2}, graph.Edge{U: 2, V: 4})
	g := graph.FromEdges(10, edges)
	e := New(g, Config{Workers: 2, Net: netsim.Commodity()})
	met, err := e.Run(&floodProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps < 10 {
		t.Errorf("ring of 10 needs ≥ 10 supersteps, got %d", met.Supersteps)
	}
	if met.Messages == 0 || met.BytesRemote == 0 || met.BytesLocal == 0 {
		t.Errorf("metrics incomplete: %+v", met)
	}
	if met.SimNetTime == 0 {
		t.Error("commodity model should charge simulated time")
	}
	if met.Total() < met.TotalComm() || met.TotalComm() != met.CommTime()+met.SimNetTime {
		t.Error("TotalComm must be measured plus simulated communication, and Total must include it")
	}
	// One worker: everything is local and the network is free.
	e1 := New(g, Config{Workers: 1, Net: netsim.Commodity()})
	met1, err := e1.Run(&floodProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if met1.BytesRemote != 0 {
		t.Errorf("P=1 should have no remote bytes, got %d", met1.BytesRemote)
	}
	if met1.SimNetTime != 0 {
		t.Errorf("P=1 should pay no simulated latency, got %v", met1.SimNetTime)
	}
}

// broadcastProgram publishes one blob per worker in step 0 and counts
// arrivals in step 1.
type broadcastProgram struct {
	got []int // per worker: blobs seen
}

func (p *broadcastProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == 0 {
		w.Broadcast([]byte{byte(w.ID)})
		return true, nil
	}
	if step == 1 {
		p.got[w.ID] = len(w.BcastIn)
	}
	return false, nil
}

func (p *broadcastProgram) Finish(w *Worker) error { return nil }

func TestBroadcastReachesEveryWorker(t *testing.T) {
	g := ring(8)
	const p = 4
	e := New(g, Config{Workers: p})
	prog := &broadcastProgram{got: make([]int, p)}
	met, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range prog.got {
		if n != p {
			t.Errorf("worker %d saw %d blobs, want %d", i, n, p)
		}
	}
	if met.BcastBytes != p {
		t.Errorf("BcastBytes = %d, want %d", met.BcastBytes, p)
	}
}

// errProgram fails on a chosen step, with err or else "boom".
type errProgram struct {
	failStep int
	err      error
}

func (p *errProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == p.failStep && w.ID == 0 {
		if p.err != nil {
			return false, p.err
		}
		return false, errors.New("boom")
	}
	w.OwnedVertices(func(v graph.VertexID) {
		if step == 0 {
			for _, nb := range w.Graph.OutNeighbors(v) {
				w.Send(Msg{Dst: nb})
			}
		}
	})
	return step == 0, nil
}

func (p *errProgram) Finish(w *Worker) error { return nil }

func TestProgramErrorPropagates(t *testing.T) {
	e := New(ring(6), Config{Workers: 2})
	if _, err := e.Run(&errProgram{failStep: 1}); err == nil || err.Error() != "boom" {
		t.Fatalf("want boom, got %v", err)
	}
	// A program's own error stays recognizable through the host.
	e = New(ring(6), Config{Workers: 2})
	if _, err := e.Run(&errProgram{failStep: 1, err: context.Canceled}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(ring(6), Config{Workers: 2, Ctx: ctx})
	if _, err := e.Run(&floodProgram{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// spinProgram never quiesces.
type spinProgram struct{}

func (p *spinProgram) Superstep(w *Worker, step int) (bool, error) {
	if w.ID == 0 {
		w.Send(Msg{Dst: 0, Val: int32(step)})
	}
	return true, nil
}
func (p *spinProgram) Finish(w *Worker) error { return nil }

func TestMaxSuperstepsGuard(t *testing.T) {
	e := New(ring(4), Config{Workers: 1, MaxSupersteps: 10})
	met, err := e.Run(&spinProgram{})
	if err == nil || !strings.Contains(err.Error(), "after 10 supersteps") {
		t.Fatalf("got %v, want the non-quiescence error naming the bound", err)
	}
	if met.Supersteps != 11 {
		t.Errorf("%d supersteps ran, want supersteps 0 through 10", met.Supersteps)
	}
}

// sleepyPreStep spends 5 ms in PreStep and nothing in Superstep, for
// steps supersteps.
type sleepyPreStep struct{ steps int }

func (p *sleepyPreStep) PreStep(workers []*Worker, step int) error {
	time.Sleep(5 * time.Millisecond)
	return nil
}

func (p *sleepyPreStep) Superstep(w *Worker, step int) (bool, error) {
	return step+1 < p.steps, nil
}

func (p *sleepyPreStep) Finish(w *Worker) error { return nil }

// TestPreStepIsCompute: the time a host spends in PreStep — applying
// broadcasts to the replica every worker of a real cluster holds — is
// compute, not communication and not lost.
func TestPreStepIsCompute(t *testing.T) {
	const steps = 12
	e := New(ring(6), Config{Workers: 3})
	met, err := e.Run(&sleepyPreStep{steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != steps {
		t.Fatalf("%d supersteps, want %d", met.Supersteps, steps)
	}
	if want := 10 * 5 * time.Millisecond; met.ComputeTime() < want {
		t.Errorf("ComputeTime = %v over %d PreSteps of 5 ms, want ≥ %v", met.ComputeTime(), steps, want)
	}
}

// TestMsgCodecRoundTrip quick-checks the wire encoding.
func TestMsgCodecRoundTrip(t *testing.T) {
	f := func(dst uint32, kind uint8, val, val2 int32) bool {
		in := []Msg{{Dst: graph.VertexID(dst & 0x7fffffff), Kind: kind, Val: val, Val2: val2}}
		want := in[0]
		buf, n, err := encodePacket(nil, in, nil)
		if err != nil || n != 1 {
			return false
		}
		out, err := decodePacket(buf, nil)
		return err == nil && len(out) == 1 && out[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnership(t *testing.T) {
	if n := len(New(ring(10), Config{}).Workers()); n != 1 {
		t.Errorf("a zero Config.Workers runs %d workers, want 1", n)
	}
	e := New(ring(10), Config{Workers: 3})
	seen := map[graph.VertexID]int{}
	for _, w := range e.Workers() {
		w.OwnedVertices(func(v graph.VertexID) {
			seen[v]++
			if !w.Owns(v) {
				t.Errorf("worker %d does not own %d", w.ID, v)
			}
			if w.OwnerOf(v) != w.ID {
				t.Errorf("OwnerOf(%d) = %d, want %d", v, w.OwnerOf(v), w.ID)
			}
		})
	}
	if len(seen) != 10 {
		t.Fatalf("partition covers %d vertices, want 10", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("vertex %d owned %d times", v, c)
		}
	}
}

func TestNetsimModel(t *testing.T) {
	m := netsim.Commodity()
	if m.ExchangeCost(0, 1) != 0 {
		t.Error("single worker must be free")
	}
	base := m.ExchangeCost(0, 4)
	if base != m.BarrierLatency {
		t.Errorf("zero-byte exchange = %v, want barrier latency", base)
	}
	withBytes := m.ExchangeCost(1_250_000_000, 4) // one second of bandwidth
	if withBytes < base+900*time.Millisecond {
		t.Errorf("bandwidth not charged: %v", withBytes)
	}
	if netsim.Zero().ExchangeCost(1<<30, 8) != 0 {
		t.Error("zero model should be free")
	}
}
