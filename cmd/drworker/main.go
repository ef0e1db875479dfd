// Command drworker hosts one computation node of the distributed
// labeling cluster: a net/rpc service that owns a graph partition and
// executes the vertex-centric programs (DRL, DRL_b) driven by a
// master (cmd/drcluster).
//
// Usage:
//
//	drworker -listen 127.0.0.1:7101
//
// The worker loads the graph itself when the master initializes the
// job, so the graph file must be readable at the same path on every
// node (shared storage, as in the paper's cluster).
//
// For fault-tolerance experiments, -crash-after N kills the process
// after N executed supersteps; the master re-dials the address and
// restores the replacement from the last checkpoint.
//
// -obs addr serves the worker's /debug/pprof on addr; the step's cost,
// this worker's share included, is in the master's record.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/obs"
	"repro/internal/pregel"

	_ "repro/internal/drl" // registers the labeling program
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	crashAfter := flag.Int("crash-after", 0, "exit abruptly after N executed supersteps (fault injection; 0 = never)")
	obsAddr := flag.String("obs", "", "serve /debug/pprof on this address")
	flag.Parse()

	var opts pregel.WorkerOptions
	if *obsAddr != "" {
		//lint:ignore goleak metrics sidecar serves for the process lifetime; the OS reclaims it at exit
		go func() {
			if err := http.ListenAndServe(*obsAddr, obs.Handler(obs.Default)); err != nil {
				fmt.Fprintln(os.Stderr, "drworker: obs endpoint:", err)
			}
		}()
	}
	if *crashAfter > 0 {
		n := *crashAfter
		opts.StepHook = func(completed int) {
			if completed >= n {
				fmt.Fprintf(os.Stderr, "drworker: injected crash after %d supersteps\n", completed)
				os.Exit(3)
			}
		}
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- pregel.ServeWorker(*listen, ready, opts) }()
	select {
	case addr := <-ready:
		fmt.Printf("drworker listening on %s\n", addr)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "drworker:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil {
		fmt.Fprintln(os.Stderr, "drworker:", err)
		os.Exit(1)
	}
}
