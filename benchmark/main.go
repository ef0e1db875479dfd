// Command benchmark is the repository's performance benchmark: four
// workloads over one fixed citation graph, every answer checked,
// end-to-end metrics with tracing off and per-layer metrics from a
// separate traced run. README.md in this directory is the glossary.
//
//	bash benchmark/run.sh --workload replica-batch16-zipf --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object, the contract
// BENCHMARK.json describes; the lines before it are the same numbers
// and the window's timings, which carry no bound, for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	seed     int64
	seconds  float64
	smoke    bool
	tmp      string // scratch directory for WAL, index and span files
	vertices int
	setups   int // set-up is repeated this often; setup_s is the median
	segments int // fixed-work segments per throughput window
	pool     int // requests pre-encoded per client
	out      io.Writer
}

func newConfig(seed int64, seconds float64, smoke bool, out io.Writer) *config {
	cfg := &config{seed: seed, seconds: seconds, smoke: smoke, out: out,
		vertices: 200_000, setups: 3, segments: 24, pool: 1 << 16}
	if smoke {
		cfg.vertices, cfg.setups, cfg.segments, cfg.pool = 2000, 1, 2, 256
	}
	return cfg
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "one of "+fmt.Sprint(workloadNames)+"; empty runs all four in this process")
		seed      = flag.Int64("seed", 1, "seed of every request stream, of the writer's edges and of the check pairs")
		seconds   = flag.Float64("seconds", 15, "length of the measured window, warm-up included")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny graph and two-segment windows: exercises every code path, measures nothing")
		spans     = flag.String("out", "", "traced run: where the span file goes (default: the scratch directory)")
		calibrate = flag.Int("calibrate", 0, "run every workload this many times with -seed and this many times with the seeds after it, and traced once, and write "+calibrationPath)
	)
	flag.Parse()
	var err error
	if *calibrate > 0 {
		err = runCalibration(*calibrate, *seed, *seconds)
	} else {
		err = run(newConfig(*seed, *seconds, *smoke, os.Stdout), *workload, *trace, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures one workload, or all four, in this process and prints
// each one's report.
func run(cfg *config, workload string, trace int, spans string) error {
	// Scratch files go beside the executable, which run.sh puts under
	// .bench_build/: one directory per process, so concurrent runs
	// never share a WAL.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(filepath.Dir(exe), "tmp"), 0o755); err != nil {
		return err
	}
	if cfg.tmp, err = os.MkdirTemp(filepath.Join(filepath.Dir(exe), "tmp"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)

	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	var reps []*report
	if trace == 1 {
		if reps, err = runTraced(cfg, names, spans); err != nil {
			return err
		}
	} else {
		for _, name := range names {
			rep, err := runEndToEnd(cfg, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			reps = append(reps, rep)
		}
	}
	ok := true
	for _, rep := range reps {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		ok = ok && rep.Correct
	}
	if !ok {
		return fmt.Errorf("wrong answers or failed operations; see the report above")
	}
	return nil
}

// runEndToEnd is one tracing-off run of one workload: set up (several
// times, for a median), check the index against BFS, measure one
// window, report.
func runEndToEnd(cfg *config, workload string) (*report, error) {
	var t tally
	sys, setups, idxBytes, err := setUpRepeated(cfg, workload, &t)
	if err != nil {
		return nil, err
	}
	defer sys.stop()

	// The oracle: BFS on seeded pairs, half of them reachable by
	// construction. Everything the window expects comes from an index
	// that passed this.
	rng := subSeed(cfg.seed, streamCheck)
	checks := 1000
	if cfg.smoke {
		checks = 100
	}
	pairs := append(uniformPairs(rng, cfg.vertices, checks), walkPairs(rng, sys.g, checks)...)
	verifyIndex("served", sys.g, sys.idx, pairs, &t)
	if sys.budgeted != nil {
		verifyIndex("budgeted", sys.g, sys.budgeted, pairs, &t)
		t.attempted++
		if !sys.built.LabelIndex().Equal(sys.idx.LabelIndex()) {
			t.fail("index read back from file differs from the index written")
		}
	}

	win, err := measureWindow(cfg, workload, sys, fullPlan(cfg, workload))
	if err != nil {
		return nil, err
	}
	t.add(win.tally)

	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":     {median(setups), "s"},
		"index_bytes": {float64(idxBytes), "bytes"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}}

	// The window's timings carry no bound (README, "The host's noise"):
	// they are printed here for people and for paired parent/change
	// runs, and the traced run reports them per layer. With them, what
	// they are made of.
	extra := win.timings()
	extra[fmt.Sprintf("req_p%g_us", win.tailPct)] = metric{win.reqTailUs, "us"}
	extra["requests_timed"] = metric{float64(win.requests), "count"}
	extra["cache_hit_rate"] = metric{win.hitRate, "ratio"}
	extra["loadgen.stub_ns_per_req"] = metric{win.stubNs, "ns"}
	for stage, s := range sys.stages {
		extra["last_setup."+stage+"_s"] = metric{s, "s"}
	}
	if ws := win.writes; ws != nil {
		extra["write_ack_p50_ms"] = metric{ws.ackP50Ms, "ms"}
		extra["write_visible_p50_ms"] = metric{ws.visibleP50Ms, "ms"}
		extra["updates_per_s"] = metric{ws.updatesPerS, "1/s"}
		extra["writes_timed"] = metric{float64(ws.writes), "count"}
		extra["late_writes"] = metric{float64(ws.late), "count"}
	}
	printMetrics(cfg.out, workload, "end-to-end", rep.Metrics)
	printMetrics(cfg.out, workload, "ungated", extra)
	fmt.Fprintf(cfg.out, "%s: %d operations attempted, %d failed\n", workload, t.attempted, t.failed)
	for _, n := range t.notes {
		fmt.Fprintf(cfg.out, "%s: FAILED: %s\n", workload, n)
	}
	return rep, nil
}

// setUpRepeated sets the workload up cfg.setups times, keeping the
// last system and every duration. Between repeats the previous system
// is stopped and its memory returned, so each starts from the same
// state and peak_rss_mb is one system's, not three. index_bytes is
// exact, so every repeat must build an index of the same size; the
// sizing is outside the timed set-up.
func setUpRepeated(cfg *config, workload string, t *tally) (sys *system, seconds []float64, idxBytes int64, err error) {
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.stop()
			sys = nil
			debug.FreeOSMemory()
		}
		if sys, err = setUp(cfg, workload); err != nil {
			return nil, nil, 0, err
		}
		seconds = append(seconds, sys.seconds)
		size, err := sys.indexBytes()
		if err != nil {
			sys.stop()
			return nil, nil, 0, err
		}
		t.attempted++
		if i > 0 && size != idxBytes {
			t.fail("set-up %d built an index of %d bytes, the one before of %d", i+1, size, idxBytes)
		}
		idxBytes = size
	}
	runtime.GC()
	return sys, seconds, idxBytes, nil
}

// measureWindow generates the workload's traffic from the seed — one
// stream per client — and runs its window.
func measureWindow(cfg *config, workload string, sys *system, p plan) (window, error) {
	var streams []*requests
	switch workload {
	case paperCitation: // one caller, with both clients' share
		streams = []*requests{traffic(cfg, workload, sys.g, 0, clients*cfg.pool)}
	case updateMix: // one reader; the other client is the writer
		streams = []*requests{traffic(cfg, workload, sys.g, 0, cfg.pool)}
	default:
		for c := 0; c < clients; c++ {
			streams = append(streams, traffic(cfg, workload, sys.g, c, cfg.pool))
		}
	}
	for _, q := range streams {
		q.expect(sys.idx.Reachable)
	}
	if workload == paperCitation {
		return runInProcess(sys.idx, streams[0], p), nil
	}
	for _, q := range streams {
		q.encode()
	}
	var w *writer
	if workload == updateMix {
		w = newWriter(subSeed(cfg.seed, streamWriter), sys.g, cfg.seed, p.seconds)
	}
	stubNs, err := stubNsPerReq(streams[0], 4096)
	if err != nil {
		return window{}, err
	}
	win := runHTTP(sys, streams, p, w)
	win.stubNs = stubNs
	// The generator alone — against a server that answers from a
	// constant — must cost less than half of what a request took, or the
	// numbers describe the generator, not the program. (A smoke run's
	// figures mean nothing either way.)
	if stubNs/1e3 > win.reqP50Us/2 && !cfg.smoke {
		return win, fmt.Errorf("the load generator alone costs %.1f us per request, more than half of req_p50_us = %.1f us: refusing to report", stubNs/1e3, win.reqP50Us)
	}
	return win, nil
}

// clients is the closed-loop client count of the static HTTP
// workloads: one per processor of the two-core reference host, each
// with one connection.
const clients = 2

// stubNsPerReq is the median cost of one request of q against the
// stub server, over reps round trips.
func stubNsPerReq(q *requests, reps int) (float64, error) {
	stub, err := startStub()
	if err != nil {
		return 0, err
	}
	c, err := dial(stub.addr())
	if err != nil {
		stub.stop()
		return 0, err
	}
	defer stub.stop()
	defer c.close()
	ns := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := c.do(q.raw[i%q.len()])
		if err != nil {
			return 0, fmt.Errorf("stub round trip: %w", err)
		}
		if _, count, ok := scanResults(res.body); !ok || count != batchSize {
			return 0, fmt.Errorf("stub round trip: malformed reply %q", res.body)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns), nil
}

// printMetrics writes one "workload kind name value unit" line per
// metric, sorted by name.
func printMetrics(out io.Writer, workload, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-22s %-10s %-34s %16.4f %s\n", workload, kind, name, ms[name].Value, ms[name].Unit)
	}
}
