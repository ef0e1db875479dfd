// Command drrouter is the fleet frontend: it serves a drserve
// replica's whole API (DESIGN.md "HTTP contract", §12 — the table's
// last column is what the router does with each endpoint) across N
// replicas — every query goes whole to the healthy replica with the
// fewest outstanding forwards, ties to the first listed — with periodic
// health checks, automatic removal/readmission of misbehaving replicas,
// graceful drain, and a fleet-wide index reload that swaps every
// replica to a new epoch with zero downtime (DESIGN.md §9). It refuses
// what a replica refuses, with the contract's caps; no flag sets them.
//
// Usage:
//
//	drserve -idx graph.idx -listen 127.0.0.1:9001 &
//	drserve -idx graph.idx -listen 127.0.0.1:9002 &
//	drserve -idx graph.idx -listen 127.0.0.1:9003 &
//	drrouter -replicas 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003
//
//	curl 'localhost:8080/reach?s=3&t=17'                  # same API as drserve
//	curl -d '{"pairs":[[3,17],[5,9]]}' 'localhost:8080/reach/batch'
//	curl 'localhost:8080/stats'                           # per-replica state + epochs
//	curl -X POST 'localhost:8080/admin/drain?replica=127.0.0.1:9002'
//	curl -X POST 'localhost:8080/admin/readmit?replica=127.0.0.1:9002'
//	curl -X POST 'localhost:8080/admin/reload'            # swap every replica's index
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	var (
		replicas = flag.String("replicas", "", "comma-separated replica addresses (host:port, required)")
		listen   = flag.String("listen", "127.0.0.1:8080", "address to listen on")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight queries")
	)
	flag.Parse()
	addrs := strings.Split(*replicas, ",")
	f, err := fleet.New(addrs, fleet.Options{Obs: obs.Default})
	if err != nil {
		fatal(err)
	}
	f.Start()
	defer f.Close()
	fmt.Printf("routing across %d replicas on %s (replica state at /stats)\n",
		f.NumReplicas(), *listen)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           f,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "drrouter: signal received, draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "drrouter: drained, exiting")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drrouter:", err)
	os.Exit(1)
}
