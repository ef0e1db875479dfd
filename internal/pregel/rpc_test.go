package pregel

import (
	"net"
	"net/rpc"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// The positive RPC paths are exercised end-to-end from internal/drl
// (TestRPCClusterMatchesTOL); these tests cover the protocol's error
// handling and the registry.

func init() {
	RegisterRPC("test-noop", func(*Host, map[string]string) (Program, error) { return &noopProgram{}, nil })
}

type noopProgram struct{}

func (p *noopProgram) Superstep(w *Worker, step int) (bool, error) { return false, nil }
func (p *noopProgram) Finish(w *Worker) error                      { return nil }
func (p *noopProgram) Collect(w *Worker) ([]byte, error)           { return []byte{byte(w.ID)}, nil }

func startWorker(t *testing.T) string {
	t.Helper()
	ready := make(chan string, 1)
	go func() {
		if err := ServeWorker("127.0.0.1:0", ready, WorkerOptions{}); err != nil {
			t.Log(err)
		}
	}()
	return <-ready
}

func graphFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, graph.PaperExample(), true); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRPCProtocolErrors(t *testing.T) {
	addr := startWorker(t)
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Calls out of order.
	if err := c.Call(RPCServiceName+".BeginRun", BeginRunArgs{Program: "test-noop"}, &struct{}{}); err == nil {
		t.Error("BeginRun before Init should fail")
	}
	var sr StepReply
	if err := c.Call(RPCServiceName+".Step", StepArgs{}, &sr); err == nil {
		t.Error("Step before BeginRun should fail")
	}
	if err := c.Call(RPCServiceName+".FinishRun", struct{}{}, &struct{}{}); err == nil {
		t.Error("FinishRun before BeginRun should fail")
	}
	var cr CollectReply
	if err := c.Call(RPCServiceName+".Collect", struct{}{}, &cr); err == nil {
		t.Error("Collect before a run should fail")
	}

	// Init with a missing graph file.
	err = c.Call(RPCServiceName+".Init", InitArgs{WorkerID: 0, NumWorkers: 1, GraphPath: "/nonexistent"}, &InitReply{})
	if err == nil {
		t.Error("Init with a bad path should fail")
	}

	// Proper init, a step before any run, then an unregistered program.
	if err := c.Call(RPCServiceName+".Init", InitArgs{WorkerID: 0, NumWorkers: 1, GraphPath: graphFile(t)}, &InitReply{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".Step", StepArgs{Packets: make([][][]byte, 1)}, &sr); err == nil {
		t.Error("Step after Init, before BeginRun, should fail")
	}
	err = c.Call(RPCServiceName+".BeginRun", BeginRunArgs{Program: "does-not-exist"}, &struct{}{})
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown program should fail with a registry error, got %v", err)
	}
}

func TestRPCMasterFlow(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t)}
	m, err := DialCluster(addrs, graphFile(t), Config{})
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
	if m.Metrics.Supersteps == 0 {
		t.Error("no supersteps recorded")
	}
}

func TestDialClusterBadAddress(t *testing.T) {
	if _, err := DialCluster([]string{"127.0.0.1:1"}, "x", Config{}); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

// TestServeWorker: a worker that cannot listen says so, and one given
// no ready channel serves all the same.
func TestServeWorker(t *testing.T) {
	if err := ServeWorker("256.0.0.1:0", nil, WorkerOptions{}); err == nil {
		t.Error("listening on an address that is not one should fail")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		if err := ServeWorker(addr, nil, WorkerOptions{}); err != nil {
			t.Log(err)
		}
	}()
	var c *rpc.Client
	for deadline := time.Now().Add(5 * time.Second); c == nil; time.Sleep(10 * time.Millisecond) {
		if c, err = rpc.Dial("tcp", addr); err != nil && time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
	defer c.Close()
	call := c.Go(RPCServiceName+".Init", InitArgs{GraphPath: "/nonexistent"}, &InitReply{}, nil)
	select {
	case <-call.Done:
		if call.Error == nil {
			t.Error("Init with a bad path should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a worker started without a ready channel does not answer")
	}
}
