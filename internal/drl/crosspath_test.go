package drl

import (
	"context"
	"errors"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/pregel"
	"repro/internal/tol"
)

// TestInProcessMatchesCluster: the simulated cluster (one host holding
// all three partitions, reached by method calls) and a real one (three
// hosts behind TCP) run the same driver, loop and Step, so besides the
// index — TOL's, from both — every count must agree: the traffic, the
// result gather included in BytesRemote, and the batches; in process
// the netsim charge per superstep is checked too, and that no
// checkpoint was taken.
func TestInProcessMatchesCluster(t *testing.T) {
	const p = 3
	web, err := gen.Generate(gen.Params{Family: gen.Web, N: 600, AvgDegree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lat := netsim.Model{BarrierLatency: time.Millisecond}
	for gname, g := range map[string]*graph.Digraph{"paper-example": graph.PaperExample(), "web-600": web} {
		path := saveGraph(t, g)
		ord := order.Compute(g)
		want := tol.Build(g, ord)
		for _, algo := range []string{"drl", "drl-batch"} {
			t.Run(gname+"/"+algo, func(t *testing.T) {
				var bp *BatchParams
				build := func() (*label.Index, pregel.Metrics, error) {
					return BuildDistributed(g, ord, DistOptions{Workers: p, Net: lat})
				}
				regIn, regOut := obs.New(), obs.New()
				if algo == "drl-batch" {
					b := DefaultBatchParams()
					bp = &b
					build = func() (*label.Index, pregel.Metrics, error) {
						return BuildDistributedBatch(g, ord, b, DistOptions{Workers: p, Net: lat, Obs: regIn})
					}
				}
				inIdx, in, err := build()
				if err != nil {
					t.Fatal(err)
				}
				outIdx, out, err := BuildOverClusterOf(context.Background(), startWorkers(t, p), g, path, bp, ClusterOptions{Obs: regOut})
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(inIdx) || !want.Equal(outIdx) {
					t.Fatalf("index differs from TOL: in process %s; cluster %s", want.Diff(inIdx), want.Diff(outIdx))
				}
				type counts struct {
					supersteps                                    int
					messages, bytesLocal, bytesRemote, bcastBytes int64
				}
				a := counts{in.Supersteps, in.Messages, in.BytesLocal, in.BytesRemote, in.BcastBytes}
				b := counts{out.Supersteps, out.Messages, out.BytesLocal, out.BytesRemote, out.BcastBytes}
				if a != b {
					t.Errorf("{supersteps messages local remote bcast}: in process %v, cluster %v", a, b)
				}
				if a, b := regIn.CounterValue("drl_batches_total"), regOut.CounterValue("drl_batches_total"); algo == "drl-batch" && (a == 0 || a != b) {
					t.Errorf("drl_batches_total: in process %d, cluster %d", a, b)
				}
				if in.Checkpoints != 0 || in.CheckpointBytes != 0 {
					t.Errorf("in process: %d checkpoints of %d bytes, want none (there is no process to lose)", in.Checkpoints, in.CheckpointBytes)
				}
				// One barrier latency per superstep in process; a real
				// cluster has no simulated network to charge.
				if got, want := in.SimNetTime, time.Duration(in.Supersteps)*lat.BarrierLatency; got != want {
					t.Errorf("in-process SimNetTime = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestClusterHonoursOrder: the order is not sent; every worker computes
// the degree-product order from its copy of the graph, so a cluster
// build equals TOL under that order — and not under another one.
func TestClusterHonoursOrder(t *testing.T) {
	g := randomDigraph(60, 170, 21)
	path := saveGraph(t, g)
	want := tol.Build(g, order.Compute(g))
	other, err := order.ComputeStrategy(g, order.StrategyDegreeSum)
	if err != nil {
		t.Fatal(err)
	}
	if tol.Build(g, other).Equal(want) {
		t.Fatal("degree-sum and the default order label this graph alike; the test proves nothing")
	}
	bp := DefaultBatchParams()
	for name, batch := range map[string]*BatchParams{"drl": nil, "drl-batch": &bp} {
		got, _, err := BuildOverClusterOf(context.Background(), startWorkers(t, 3), g, path, batch, ClusterOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want.Equal(got) {
			t.Errorf("%s over a cluster differs from TOL under the degree-product order: %s", name, want.Diff(got))
		}
	}
}

// cancelAtStep cancels the build's context in the first call of the
// given superstep and fails that call as a dropped connection would —
// at once, or, with hang set, only once hang is closed.
type cancelAtStep struct {
	pregel.Transport
	step   int
	cancel context.CancelFunc
	once   *sync.Once
	hang   chan struct{}
}

func (c cancelAtStep) Call(method string, args, reply any) error {
	hit := false
	if a, ok := args.(pregel.StepArgs); ok && a.Step == c.step {
		c.once.Do(func() { c.cancel(); hit = true })
	}
	if !hit {
		return c.Transport.Call(method, args, reply)
	}
	if c.hang != nil {
		<-c.hang
	}
	return rpc.ErrShutdown
}

// TestClusterCancel: a context cancelled while superstep 2 is in
// flight ends the build with context.Canceled and no other superstep —
// two counted, whatever the clock says. The call it interrupted is
// neither waited for, retried nor recovered from.
func TestClusterCancel(t *testing.T) {
	var edges []graph.Edge
	for v := 0; v < 11; v++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(v + 1)})
	}
	g := graph.FromEdges(12, edges)
	path := saveGraph(t, g)
	for _, hang := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		release := make(chan struct{})
		defer close(release)
		c := cancelAtStep{step: 2, cancel: cancel, once: new(sync.Once)}
		if hang {
			c.hang = release
		}
		copt := ClusterOptions{Dial: func(addr string) (pregel.Transport, error) {
			inner, err := pregel.DialRPC(addr)
			c := c
			c.Transport = inner
			return c, err
		}}
		type result struct {
			met pregel.Metrics
			err error
		}
		addrs, done := startWorkers(t, 3), make(chan result, 1)
		go func() {
			_, met, err := BuildOverClusterOf(ctx, addrs, g, path, nil, copt)
			done <- result{met, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("hang %v: the build still waits on the call its context interrupted", hang)
		}
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("hang %v: got %v, want context.Canceled", hang, r.err)
		}
		if r.met.Supersteps != 2 {
			t.Errorf("hang %v: %d supersteps ran, want the 2 finished before the cancel", hang, r.met.Supersteps)
		}
		if r.met.Retries != 0 || r.met.Recoveries != 0 {
			t.Errorf("hang %v: %d retries and %d recoveries after the cancel, want none", hang, r.met.Retries, r.met.Recoveries)
		}
	}
}

// collectFault is a Transport whose Collect calls a worker refuses
// (refuse) or answers with a reply gather must not trust.
type collectFault struct {
	pregel.Transport
	refuse bool
}

func (c collectFault) Call(method string, args, reply any) error {
	if method != pregel.RPCServiceName+".Collect" {
		return c.Transport.Call(method, args, reply)
	}
	if c.refuse {
		return rpc.ServerError("collect refused")
	}
	err := c.Transport.Call(method, args, reply)
	r := reply.(*pregel.CollectReply)
	r.Blobs[0] = append(r.Blobs[0], 0xff) // a record cut short
	return err
}

// TestClusterGatherRefusals: a build whose Collect fails, and one
// whose collect reply decodeResults refuses, both end in the error
// that says so, not in an index.
func TestClusterGatherRefusals(t *testing.T) {
	g := randomDigraph(40, 90, 11)
	path := saveGraph(t, g)
	for _, tc := range []struct {
		refuse bool
		want   string
	}{
		{true, "collect refused"},
		{false, "collect reply"},
	} {
		copt := ClusterOptions{Dial: func(addr string) (pregel.Transport, error) {
			inner, err := pregel.DialRPC(addr)
			return collectFault{inner, tc.refuse}, err
		}}
		idx, _, err := BuildOverClusterOf(context.Background(), startWorkers(t, 3), g, path, nil, copt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("refuse=%v: got index %v and error %v, want an error containing %q", tc.refuse, idx != nil, err, tc.want)
		}
	}
}
