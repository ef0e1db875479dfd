package drl

import (
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
				outIdx, out, err := BuildOverClusterOf(startWorkers(t, p), g, path, bp, nil, ClusterOptions{Obs: regOut})
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
		got, _, err := BuildOverClusterOf(startWorkers(t, 3), g, path, batch, nil, ClusterOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want.Equal(got) {
			t.Errorf("%s over a cluster differs from TOL under the degree-product order: %s", name, want.Diff(got))
		}
	}
}

// cancelAtStep closes cancel when the master issues the given superstep.
type cancelAtStep struct {
	pregel.Transport
	step   int
	cancel chan struct{}
	once   *sync.Once
}

func (c cancelAtStep) Call(method string, args, reply any) error {
	if a, ok := args.(pregel.StepArgs); ok && a.Step == c.step {
		c.once.Do(func() { close(c.cancel) })
	}
	return c.Transport.Call(method, args, reply)
}

// TestClusterCancel: Cancel closing while superstep 2 is in flight lets
// that superstep finish and starts no other — three supersteps counted,
// whatever the clock says.
func TestClusterCancel(t *testing.T) {
	var edges []graph.Edge
	for v := 0; v < 11; v++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(v + 1)})
	}
	g := graph.FromEdges(12, edges)
	path := saveGraph(t, g)
	cancel, once := make(chan struct{}), new(sync.Once)
	copt := ClusterOptions{Dial: func(addr string) (pregel.Transport, error) {
		inner, err := pregel.DialRPC(addr)
		return cancelAtStep{inner, 2, cancel, once}, err
	}}
	_, met, err := BuildOverClusterOf(startWorkers(t, 3), g, path, nil, cancel, copt)
	if !errors.Is(err, pregel.ErrCanceled) {
		t.Fatalf("got %v, want pregel.ErrCanceled", err)
	}
	if met.Supersteps != 3 {
		t.Errorf("%d supersteps ran, want the 3 issued before the cancel was seen", met.Supersteps)
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
		idx, _, err := BuildOverClusterOf(startWorkers(t, 3), g, path, nil, nil, copt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("refuse=%v: got index %v and error %v, want an error containing %q", tc.refuse, idx != nil, err, tc.want)
		}
	}
}
