// Command drserve serves reachability queries from a serialized index
// over HTTP — one replica of the paper's deployment model. It fronts
// the index with a hot-pair answer cache and a batch endpoint,
// hot-reloads the index with zero downtime (POST /admin/reload or
// SIGHUP swap the frozen index and its cache atomically under live
// traffic), and shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight queries before exiting. cmd/drrouter fans traffic across
// several of these. Every endpoint, body, limit and refusal is the
// table in DESIGN.md "HTTP contract" (§12); the flags below only size
// and feed what it describes. Its caps — 8,192 pairs a batch or
// entries a list, 2^20 pairs a join — are the contract's constants, so
// no flag sets them and every replica and router refuses alike.
//
// The cache is one table of -cache 4-byte slots (rounded up to a power
// of two; 4 MB at the default 2^20), replaced whole at every reload. It
// holds only pairs whose IDs are both below 2^k, k = min(31,
// ⌊(30 + log₂ slots)/2⌋) — 2^25 at the default size; a larger ID is
// answered by the index every time.
//
// Usage:
//
//	drserve -idx graph.idx -listen :8080
//	curl 'localhost:8080/reach?s=3&t=17'
//	curl -d '{"pairs":[[3,17],[5,9]]}' 'localhost:8080/reach/batch'
//
// -graph alongside -idx hands the server the graph the index was built
// over (-mmap maps a binary file instead of reading it). It is checked
// against the fingerprint in the index file at start and on every
// reload, enables /reach/path (501 without: a witness path is read off
// the edges), and is what an index built with drlabel -budget answers
// its overflowing queries from — such an index does not start without:
//
//	drserve -idx graph.idx -graph graph.bin
//	curl 'localhost:8080/reach/path?s=3&t=17'
//
//	# Rebuild the index elsewhere, then swap it in without dropping
//	# a query (epoch advances; confirm via /stats index_epoch):
//	curl -X POST 'localhost:8080/admin/reload'                 # re-read -idx
//	curl -X POST -d '{"ref":"new.idx"}' 'localhost:8080/admin/reload'
//	kill -HUP <pid>                                            # same as empty reload
//
// Update mode (DESIGN.md §10) serves a *mutable* graph: -graph + -wal
// replace -idx, POST /edges appends durable edge mutations to the
// write-ahead log, and a background refresher drains them in batches
// into the next served epoch. A restart replays the log, so every
// acknowledged write survives a crash:
//
//	drserve -graph graph.bin -wal edges.wal -refresh-every 2s
//	curl -d '{"op":"insert","u":3,"v":17}' 'localhost:8080/edges'
//	# → {"op":"insert","u":3,"v":17,"seq":1,"epoch":2}
//
// Observability (see DESIGN.md §13):
//
//	curl 'localhost:8080/metrics'                          # Prometheus text
//	curl 'localhost:8080/trace'                            # superstep traces
//	go tool pprof 'localhost:8080/debug/pprof/profile?seconds=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/wal"
)

func main() {
	var (
		idxPath = flag.String("idx", "", "index file written by drlabel (required unless -wal; also the default /admin/reload and SIGHUP source)")
		listen  = flag.String("listen", "127.0.0.1:8080", "address to listen on")
		cache   = flag.Int("cache", 1<<20, "hot-pair cache size in 4-byte slots, rounded up to a power of two (0 disables); it holds pairs whose IDs are both below 2^k, k = min(31, ⌊(30 + log₂ slots)/2⌋) — 2^25 at the default")
		grace   = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight queries")

		graphPath    = flag.String("graph", "", "graph file (text edge list or drgen binary): with -wal, the graph update mode starts from; with -idx, the indexed graph — checked against the index, enables /reach/path, required by a budgeted index")
		mmapFlag     = flag.Bool("mmap", false, "memory-map -graph (binary files only) instead of reading it into RAM")
		walPath      = flag.String("wal", "", "write-ahead edge log path (update mode; created if missing, replayed if present)")
		refreshEvery = flag.Duration("refresh-every", reachlab.DefaultRefreshEvery, "update mode: interval between refresh swaps")
	)
	flag.Parse()

	var (
		handler *reachlab.QueryHandler
		updater *reachlab.Updater
		edgeLog *wal.Log
	)
	// Both modes serve with these; only static mode adds a Loader.
	serveOpts := reachlab.ServeOptions{
		Obs:        reachlab.DefaultMetrics(),
		CachePairs: *cache,
	}
	// -graph is opened one way, whichever mode then uses it. A mapping
	// lasts as long as the process does.
	var g *reachlab.Graph
	var err error
	switch {
	case *graphPath == "":
	case *mmapFlag:
		g, _, err = reachlab.MapGraph(*graphPath)
	default:
		g, err = reachlab.LoadGraph(*graphPath)
	}
	if err != nil {
		fatal(err)
	}
	switch {
	case g != nil && *walPath != "":
		if *idxPath != "" {
			fatal(fmt.Errorf("-wal and -idx are mutually exclusive (update mode serves the maintained snapshot)"))
		}
		edgeLog, err = wal.Open(*walPath)
		if err != nil {
			fatal(err)
		}
		updater, err = reachlab.NewUpdater(g, edgeLog, reachlab.UpdaterOptions{
			RefreshEvery: *refreshEvery,
			Obs:          reachlab.DefaultMetrics(),
		})
		if err != nil {
			fatal(err)
		}
		idx := updater.Snapshot()
		fmt.Printf("serving %d vertices in update mode (%d log records replayed, refresh every %s) on %s\n",
			idx.NumVertices(), edgeLog.Count(), *refreshEvery, *listen)
		// No Loader: in update mode the updater owns every epoch
		// advance — /admin/reload answers 501, SIGHUP warns.
		handler = reachlab.NewQueryHandlerOpts(idx, serveOpts)
		handler.EnableUpdates(updater)
		updater.Start(handler)

	case *idxPath != "" && *walPath == "":
		// The index file names the graph it was built over, so a -graph
		// that is another one fails here, and fails a reload, instead of
		// answering /reach/path and a budgeted index's fallbacks wrongly.
		serveOpts.Loader = func(ref string) (*reachlab.Index, error) {
			if ref == "" {
				ref = *idxPath
			}
			return reachlab.OpenIndex(ref, g)
		}
		idx, err := serveOpts.Loader("")
		if err != nil {
			fatal(err)
		}
		st := idx.Stats()
		paths := "disabled (no -graph)"
		if idx.HasGraph() {
			paths = "enabled"
		}
		fmt.Printf("serving %d vertices (%.2f MB index, %d cache slots, witness paths %s) on %s (metrics at /metrics, profiles at /debug/pprof/)\n",
			idx.NumVertices(), float64(st.Resident)/(1<<20), *cache, paths, *listen)
		handler = reachlab.NewQueryHandlerOpts(idx, serveOpts)

	default:
		fatal(fmt.Errorf("need -idx (static mode; -graph optional) or -graph with -wal (update mode)"))
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	// SIGHUP = reload the default index source under live traffic
	// (static mode only; update-mode epochs belong to the refresher).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if updater != nil {
				fmt.Fprintln(os.Stderr, "drserve: SIGHUP ignored in update mode (epochs advance via the refresher)")
				continue
			}
			epoch, vertices, err := handler.Reload("")
			if err != nil {
				fmt.Fprintln(os.Stderr, "drserve: SIGHUP reload failed:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "drserve: SIGHUP reload done: epoch %d, %d vertices\n", epoch, vertices)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	select {
	case err := <-done:
		// ListenAndServe never returns nil; any return here is a bind
		// or accept failure, not a shutdown.
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "drserve: signal received, draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		if updater != nil {
			// Unapplied log records are durable; the next start
			// replays them. Only stop the refresher and sync the log.
			updater.Close()
			if err := edgeLog.Close(); err != nil {
				fatal(fmt.Errorf("closing wal: %w", err))
			}
		}
		fmt.Fprintln(os.Stderr, "drserve: drained, exiting")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drserve:", err)
	os.Exit(1)
}
