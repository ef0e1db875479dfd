// Webgraph: crawl reachability with a persisted index — build once
// offline, serialize, and serve queries from the index file alone.
// This is the paper's deployment model: the distributed graph stays
// in the data centers, while the compact index answers queries on a
// single machine (§I).
//
//	go run ./examples/webgraph
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	const n = 40000
	g, err := reachlab.GenerateGraph("web", n, 4, 77)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("web graph:", g.Stats())

	idx, err := reachlab.Build(context.Background(), g, reachlab.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %.2f KB for %d pages (%.4f%% of an all-pairs matrix)\n",
		float64(idx.Stats().Bytes)/1024, n,
		100*float64(idx.Stats().Bytes*8)/(float64(n)*float64(n)))

	// Persist the index; the graph is no longer needed for queries.
	dir, err := os.MkdirTemp("", "webgraph")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "crawl.idx")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// A "query server" loads only the index file.
	served, err := reachlab.OpenIndex(path, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Can a crawler starting at page A reach page B by links?
	rng := rand.New(rand.NewSource(13))
	const q = 500000
	reachable := 0
	start := time.Now()
	for i := 0; i < q; i++ {
		if served.Reachable(reachlab.VertexID(rng.Intn(n)), reachlab.VertexID(rng.Intn(n))) {
			reachable++
		}
	}
	dur := time.Since(start)
	fmt.Printf("served %d crawl-reachability queries in %v (%.2E s each), %.1f%% reachable\n",
		q, dur.Round(time.Millisecond), dur.Seconds()/q, 100*float64(reachable)/q)

	// Spot-check against the live graph.
	for i := 0; i < 300; i++ {
		s := reachlab.VertexID(rng.Intn(n))
		t := reachlab.VertexID(rng.Intn(n))
		if served.Reachable(s, t) != g.ReachableBFS(s, t) {
			log.Fatalf("loaded index disagrees with BFS on (%d,%d)", s, t)
		}
	}
	fmt.Println("loaded index agrees with the live graph")
}
