// Command drcluster is the master of the distributed labeling
// cluster: it drives DRL or DRL_b across drworker processes and
// writes the collected index.
//
// Against already-running workers:
//
//	drcluster -i graph.bin -o graph.idx -workers 127.0.0.1:7101,127.0.0.1:7102
//
// Or self-contained — it spawns local drworker processes, runs the
// job, and shuts them down (drworker must be on $PATH or next to the
// drcluster binary):
//
//	drcluster -i graph.bin -o graph.idx -spawn 4
//
// Per-call deadlines and retries are fixed; -checkpoint k snapshots
// worker state every k supersteps so a crashed worker can be re-dialed
// and resumed from the last barrier. In spawn mode a dead worker
// process is respawned on the same port automatically; -flaky N makes
// the first spawned worker kill itself after N supersteps to
// demonstrate the recovery path end to end.
//
// SIGINT or SIGTERM stops the build at the next superstep and exits 1.
// Whatever ends it, drcluster stops the workers it spawned.
//
// Observability: -obs addr serves /metrics (Prometheus text), /trace
// (superstep trace JSON), and /debug/pprof on addr while the build
// runs; -trace file writes the build's cost record — the superstep
// rows ("pregel") and the rows of the phases outside them
// ("pregel_phases") — to a file afterwards. Master-side counters
// aggregate the per-worker step replies, so message and byte volume
// cover the whole cluster.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/pregel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drcluster:", err)
		os.Exit(1)
	}
}

// run returns its errors, so the spawned workers' cleanup runs first.
func run() error {
	var (
		in      = flag.String("i", "", "input graph file, readable by every worker (required)")
		out     = flag.String("o", "", "output index path (required)")
		workers = flag.String("workers", "", "comma-separated worker addresses")
		spawn   = flag.Int("spawn", 0, "spawn this many local drworker processes instead")
		method  = flag.String("method", string(reachlab.MethodDRLBatch), "drl or drl-batch")
		b       = flag.Int("b", 2, "DRL_b initial batch size")
		k       = flag.Float64("k", 2, "DRL_b batch increment factor")

		ckpt  = flag.Int("checkpoint", 0, "checkpoint worker state every k supersteps (0 = run boundaries only)")
		flaky = flag.Int("flaky", 0, "spawn mode: first worker crashes after N supersteps (fault demo)")

		obsAddr  = flag.String("obs", "", "serve /metrics, /trace, and /debug/pprof on this address during the build")
		traceOut = flag.String("trace", "", "write the superstep trace JSON to this file after the build")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		return errors.New("both -i and -o are required")
	}

	reg := obs.Default
	if *obsAddr != "" {
		//lint:ignore goleak metrics sidecar serves for the process lifetime; the OS reclaims it at exit
		go func() {
			if err := http.ListenAndServe(*obsAddr, obs.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "drcluster: obs endpoint:", err)
			}
		}()
	}

	copt := reachlab.ClusterOptions{CheckpointEvery: *ckpt, Obs: reg}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var addrs []string
	if *spawn > 0 {
		sp, err := newSpawner()
		if err != nil {
			return err
		}
		defer sp.cleanup()
		if addrs, err = sp.start(*spawn, *flaky); err != nil {
			return err
		}
		// Re-dials after a worker crash respawn the process first.
		copt.Dial = sp.dial
	} else if *workers != "" {
		addrs = strings.Split(*workers, ",")
	} else {
		return errors.New("provide -workers addresses or -spawn N")
	}

	start := time.Now()
	idx, err := reachlab.BuildOverCluster(ctx, addrs, *in, reachlab.Options{
		Method:      reachlab.Method(*method),
		BatchSize:   *b,
		BatchFactor: *k,
	}, copt)
	if err != nil {
		return err
	}
	bs := idx.BuildStats()
	fmt.Printf("built with %s over %d workers in %v (%d supersteps, %.2f MB remote traffic)\n",
		bs.Method, bs.Workers, time.Since(start).Round(time.Millisecond),
		bs.Supersteps, float64(bs.BytesRemote)/(1<<20))
	fmt.Printf("phases: %v\n", bs.Phases)
	if bs.Retries > 0 || bs.Recoveries > 0 || bs.Checkpoints > 0 {
		fmt.Printf("fault handling: %d retried calls, %d recoveries, %d checkpoints (last at superstep %d)\n",
			bs.Retries, bs.Recoveries, bs.Checkpoints, bs.LastCheckpointStep)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, reg); err != nil {
			return err
		}
		fmt.Printf("wrote superstep trace to %s\n", *traceOut)
	}

	var written int64
	if err := durable.WriteFile(*out, func(w io.Writer) (err error) {
		written, err = idx.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.2f MB on disk, %.2f MB in memory)\n", *out, float64(written)/(1<<20), float64(idx.Stats().Resident)/(1<<20))
	return nil
}

// spawner manages local drworker processes: the initial fleet, plus
// respawns on the same port when the master re-dials a dead worker.
type spawner struct {
	bin string

	mu    sync.Mutex
	procs []*exec.Cmd
}

func newSpawner() (*spawner, error) {
	bin, err := exec.LookPath("drworker")
	if err != nil {
		// Try next to this binary.
		self, serr := os.Executable()
		if serr != nil {
			return nil, fmt.Errorf("drworker not found: %w", err)
		}
		bin = filepath.Join(filepath.Dir(self), "drworker")
		if _, serr := os.Stat(bin); serr != nil {
			return nil, fmt.Errorf("drworker not found on $PATH or next to drcluster: %w", err)
		}
	}
	return &spawner{bin: bin}, nil
}

// start launches n workers on ephemeral ports. If flaky > 0, the
// first worker gets -crash-after so it dies mid-run.
func (s *spawner) start(n, flaky int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		args := []string{"-listen", "127.0.0.1:0"}
		if i == 0 && flaky > 0 {
			args = append(args, "-crash-after", strconv.Itoa(flaky))
		}
		addr, err := s.launch(args)
		if err != nil {
			s.cleanup()
			return nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// launch starts one drworker and parses its bound address.
func (s *spawner) launch(args []string) (string, error) {
	cmd := exec.Command(s.bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.procs = append(s.procs, cmd)
	s.mu.Unlock()
	var addr string
	if _, err := fmt.Fscanf(stdout, "drworker listening on %s\n", &addr); err != nil {
		return "", fmt.Errorf("reading worker address: %w", err)
	}
	return addr, nil
}

// dial is the master's Dialer in spawn mode: if the address no longer
// answers (the process died), respawn a worker bound to the same port
// and dial again — the master then re-Inits and restores it from the
// last checkpoint.
func (s *spawner) dial(addr string) (pregel.Transport, error) {
	t, err := pregel.DialRPC(addr)
	if err == nil {
		return t, nil
	}
	if _, rerr := s.launch([]string{"-listen", addr}); rerr != nil {
		return nil, errors.Join(err, fmt.Errorf("respawning worker at %s: %w", addr, rerr))
	}
	return pregel.DialRPC(addr)
}

func (s *spawner) cleanup() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, c := range procs {
		if c.Process != nil {
			c.Process.Kill()
		}
	}
	for _, c := range procs {
		c.Wait()
	}
}

// writeTrace dumps the per-superstep trace rows collected during the
// build as indented JSON.
func writeTrace(path string, reg *obs.Registry) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reg.TraceSnapshot())
	})
}
