// Distributed: an actual multi-worker labeling cluster over TCP.
// Three worker services (the same code cmd/drworker hosts) are
// started in-process on ephemeral ports; the master drives DRL_b
// across them over net/rpc and collects the index — which is
// bit-identical to a single-machine build.
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	// Generate and persist the graph: in the paper's deployment every
	// worker reads its partition from shared storage.
	const n = 20000
	g, err := reachlab.GenerateGraph("web", n, 3, 123)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "drlcluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	graphPath := filepath.Join(dir, "graph.bin")
	if err := reachlab.SaveGraph(graphPath, g, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", g.Stats())

	// Start three workers. Each owns the vertices v with v mod 3 == id.
	const workers = 3
	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		ready := make(chan string, 1)
		//lint:ignore goleak example worker serves until the process exits; ready (sent inside the RPC server) is the only handshake
		go func() {
			if err := reachlab.ServeWorker("127.0.0.1:0", ready); err != nil {
				log.Fatal(err)
			}
		}()
		addrs[i] = <-ready
		fmt.Printf("worker %d listening on %s\n", i, addrs[i])
	}

	// The master drives the batched labeling across the cluster.
	start := time.Now()
	idx, err := reachlab.BuildOverCluster(context.Background(), addrs, graphPath, reachlab.Options{
		Method: reachlab.MethodDRLBatch,
	}, reachlab.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bs := idx.BuildStats()
	fmt.Printf("cluster build: %v wall, %d supersteps, %.2f MB crossed the wire\n",
		time.Since(start).Round(time.Millisecond), bs.Supersteps,
		float64(bs.BytesRemote)/(1<<20))

	// The same index built locally, for comparison.
	local, err := reachlab.Build(context.Background(), g, reachlab.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := idx.WriteTo(&a); err != nil {
		log.Fatal(err)
	}
	if _, err := local.WriteTo(&b); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		log.Fatal("cluster index differs from local index")
	}
	fmt.Println("cluster index is bit-identical to the local build")

	fmt.Printf("q(0, %d) = %v\n", n-1, idx.Reachable(0, n-1))
	fmt.Printf("q(%d, 0) = %v\n", n/2, idx.Reachable(reachlab.VertexID(n/2), 0))
}
