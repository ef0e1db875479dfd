// Command drserve serves reachability queries from a serialized index
// over HTTP — one replica of the paper's deployment model. It fronts
// the index with a sharded hot-pair answer cache and a batch endpoint,
// hot-reloads the index with zero downtime (POST /admin/reload or
// SIGHUP swap the frozen index and its cache atomically under live
// traffic), and shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight queries before exiting. cmd/drrouter fans traffic across
// several of these. Every endpoint, body, limit and refusal is the
// table in DESIGN.md "HTTP contract" (§17); the flags below only size
// and feed what it describes.
//
// Usage:
//
//	drserve -idx graph.idx -listen :8080
//	curl 'localhost:8080/reach?s=3&t=17'
//	curl -d '{"pairs":[[3,17],[5,9]]}' 'localhost:8080/reach/batch'
//
// /reach/path reconstructs a concrete witness path, which needs the
// edge list: pass -graph alongside -idx to enable it (501 without):
//
//	drserve -idx graph.idx -graph graph.txt
//	curl 'localhost:8080/reach/path?s=3&t=17'
//
//	# Rebuild the index elsewhere, then swap it in without dropping
//	# a query (epoch advances; confirm via /stats index_epoch):
//	curl -X POST 'localhost:8080/admin/reload'                 # re-read -idx
//	curl -X POST -d '{"ref":"new.idx"}' 'localhost:8080/admin/reload'
//	kill -HUP <pid>                                            # same as empty reload
//
// Update mode (DESIGN.md §12) serves a *mutable* graph: -graph + -wal
// replace -idx, POST /edges appends durable edge mutations to the
// write-ahead log, and a background refresher drains them in batches
// into the next served epoch. A restart replays the log, so every
// acknowledged write survives a crash:
//
//	drserve -graph graph.txt -wal edges.wal -refresh-every 2s
//	curl -d '{"op":"insert","u":3,"v":17}' 'localhost:8080/edges'
//	# → {"op":"insert","u":3,"v":17,"seq":1,"epoch":2}
//
// Budgeted mode serves graphs whose full index would not fit in
// memory: -graph + -budget builds a memory-bounded index (at most
// -budget label entries per vertex per direction; overflowing queries
// fall back to a label-pruned BFS) with the parallel batch labeler,
// one goroutine per core, and serves it statically. Add
// -mmap to page the graph's adjacency from a binary v2 file on
// demand instead of loading it:
//
//	drserve -graph big.bin -mmap -budget 32
//
// Observability (see DESIGN.md §7):
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
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/wal"
)

func main() {
	var (
		idxPath  = flag.String("idx", "", "index file written by drlabel (required unless -graph; also the default /admin/reload and SIGHUP source)")
		listen   = flag.String("listen", "127.0.0.1:8080", "address to listen on")
		cache    = flag.Int("cache", 1<<20, "hot-pair cache capacity in entries (0 disables)")
		shards   = flag.Int("cache-shards", 64, "hot-pair cache shard count")
		maxBatch = flag.Int("max-batch", reachlab.DefaultMaxBatch, "maximum pairs per /reach/batch request and entries per /reach/from and /reach/join list")
		maxJoin  = flag.Int("max-join", reachlab.DefaultMaxJoin, "maximum scanned cross product |sources|×|targets| per /reach/join request")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight queries")

		graphPath    = flag.String("graph", "", "text edge list: with -wal, update mode; with -budget, bounded static mode; with -idx, enables /reach/path witness paths")
		walPath      = flag.String("wal", "", "write-ahead edge log path (update mode; created if missing, replayed if present)")
		refreshEvery = flag.Duration("refresh-every", reachlab.DefaultRefreshEvery, "update mode: interval between refresh swaps")
		refreshBatch = flag.Int("refresh-batch", reachlab.DefaultRefreshBatch, "update mode: max log records applied per refresh swap")

		budget   = flag.Int("budget", 0, "with -graph and no -wal: build a memory-bounded index capped at this many label entries per vertex per direction and serve it")
		mmapFlag = flag.Bool("mmap", false, "budgeted mode: memory-map the graph (binary v2 files only) instead of reading it into RAM")
	)
	flag.Parse()

	var (
		handler *reachlab.QueryHandler
		updater *reachlab.Updater
		edgeLog *wal.Log
	)
	// Every mode serves with these; only static mode adds a Loader.
	serveOpts := reachlab.ServeOptions{
		Obs:         reachlab.DefaultMetrics(),
		CachePairs:  *cache,
		CacheShards: *shards,
		MaxBatch:    *maxBatch,
		MaxJoin:     *maxJoin,
	}
	switch {
	case *graphPath != "" && *budget > 0:
		// Budgeted static mode: build a memory-bounded index over the
		// graph and serve it. The graph stays resident (the fallback
		// query path walks it), so -mmap lets the kernel page its
		// adjacency in and out instead of committing RAM up front.
		if *walPath != "" {
			fatal(fmt.Errorf("-budget serves a static bounded index; it cannot be combined with -wal update mode"))
		}
		if *idxPath != "" {
			fatal(fmt.Errorf("-budget builds its index from -graph; it cannot be combined with -idx"))
		}
		var g *reachlab.Graph
		var err error
		if *mmapFlag {
			g, _, err = reachlab.MapGraph(*graphPath)
		} else {
			g, err = reachlab.LoadGraph(*graphPath)
		}
		if err != nil {
			fatal(err)
		}
		idx, err := reachlab.Build(context.Background(), g, reachlab.Options{LabelBudget: *budget, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			fatal(err)
		}
		st := idx.Stats()
		fmt.Printf("serving %d vertices with label budget %d (%.2f MB labels, %d/%d vertices overflowed in/out) on %s\n",
			idx.NumVertices(), st.LabelBudget, float64(st.Bytes)/(1<<20), st.OverflowedIn, st.OverflowedOut, *listen)
		handler = reachlab.NewQueryHandlerOpts(idx, serveOpts)

	case *graphPath != "" && *walPath != "":
		if *idxPath != "" {
			fatal(fmt.Errorf("-wal and -idx are mutually exclusive (update mode serves the maintained snapshot)"))
		}
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, err := reachlab.ReadGraph(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		edgeLog, err = wal.Open(*walPath)
		if err != nil {
			fatal(err)
		}
		updater, err = reachlab.NewUpdater(g, edgeLog, reachlab.UpdaterOptions{
			RefreshEvery: *refreshEvery,
			RefreshBatch: *refreshBatch,
			Obs:          reachlab.DefaultMetrics(),
		})
		if err != nil {
			fatal(err)
		}
		idx := updater.Snapshot()
		fmt.Printf("serving %d vertices in update mode (%d log records replayed, refresh every %s, batch %d) on %s\n",
			idx.NumVertices(), edgeLog.Count(), *refreshEvery, *refreshBatch, *listen)
		// No Loader: in update mode the updater owns every epoch
		// advance — /admin/reload answers 501, SIGHUP warns.
		handler = reachlab.NewQueryHandlerOpts(idx, serveOpts)
		handler.EnableUpdates(updater)
		updater.Start(handler)

	case *idxPath != "":
		// Optional -graph alongside -idx attaches the edge list the
		// index was built from, enabling /reach/path (witness paths
		// need edges to walk; the serialized index carries only labels).
		var pathGraph *reachlab.Graph
		if *graphPath != "" {
			g, err := reachlab.LoadGraph(*graphPath)
			if err != nil {
				fatal(err)
			}
			pathGraph = g
		}
		loader := func(ref string) (*reachlab.Index, error) {
			path := ref
			if path == "" {
				path = *idxPath
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			idx, err := reachlab.ReadIndex(f)
			if err != nil {
				return nil, err
			}
			if pathGraph != nil {
				if err := idx.AttachGraph(pathGraph); err != nil {
					return nil, fmt.Errorf("attaching -graph to %s: %w", path, err)
				}
			}
			return idx, nil
		}
		idx, err := loader("")
		if err != nil {
			fatal(err)
		}
		st := idx.Stats()
		paths := "disabled (no -graph)"
		if idx.HasGraph() {
			paths = "enabled"
		}
		fmt.Printf("serving %d vertices (%.2f MB index, %d cache slots, witness paths %s) on %s (metrics at /metrics, profiles at /debug/pprof/)\n",
			idx.NumVertices(), float64(st.Bytes)/(1<<20), *cache, paths, *listen)
		serveOpts.Loader = loader
		handler = reachlab.NewQueryHandlerOpts(idx, serveOpts)

	case *graphPath != "":
		fatal(fmt.Errorf("-graph alone is ambiguous: add -wal (update mode), -budget (bounded static mode), or -idx (witness paths over a static index)"))

	default:
		fatal(fmt.Errorf("missing -idx (static mode) or -graph/-wal (update mode)"))
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
