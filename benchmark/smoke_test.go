package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The smoke runs push a 2,000-vertex graph through every workload and
// through the ledger: they catch the harness rotting against the
// program's API without paying for a measurement.

func TestSmokeEndToEnd(t *testing.T) {
	for _, workload := range workloadNames {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			t.Parallel() // a smoke run's timings mean nothing
			cfg := newConfig(1, 0.4, true, io.Discard)
			cfg.tmp = t.TempDir()
			rep, err := runEndToEnd(cfg, workload)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct=%v, %d of %d operations failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep, endToEnd, true)
		})
	}
}

// One traced process covers several workloads: the build and update
// sides are measured once and reported with each, the serving side,
// the window and the cache hit rate are each workload's own. (The
// router's window differs from the replica's only in set-up, which
// TestSmokeEndToEnd covers; leaving it out keeps the tests under 5 s.)
func TestSmokeLedger(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := newConfig(1, 0.4, true, io.Discard)
	cfg.tmp = dir
	spans := filepath.Join(dir, "spans.jsonl")
	workloads := []string{paperCitation, replicaZipf, updateMix}
	reps, err := runTraced(cfg, workloads, spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(workloads) {
		t.Fatalf("%d reports for %d workloads", len(reps), len(workloads))
	}
	for i, rep := range reps {
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", workloads[i], rep.Correct, rep.Failed, rep.Attempted)
		}
		checkMetrics(t, rep, perLayer, false)
		if r := rep.Metrics["fleet.retries"].Value; r != 0 {
			t.Errorf("fleet.retries = %v on a healthy fleet", r)
		}
		if s := rep.Metrics["fleet.subrequests_per_req"].Value; s < 1 || s > 2 {
			t.Errorf("fleet.subrequests_per_req = %v with two shards", s)
		}
		for name, m := range rep.Metrics {
			if m.Value < 0 {
				t.Errorf("%s: %s = %v", workloads[i], name, m.Value)
			}
		}
		if shared := "tol.overflowed_out"; rep.Metrics[shared] != reps[0].Metrics[shared] {
			t.Errorf("%s differs between workloads of one traced process", shared)
		}
	}
	if h := reps[0].Metrics["qcache.hit_rate"].Value; h != 0 {
		t.Errorf("%s: qcache.hit_rate = %v on a path with no cache", workloads[0], h)
	}
	// A smoke pool of 2 x 256 requests fits the cache whole and is
	// replayed within the warm-up.
	if h := reps[1].Metrics["qcache.hit_rate"].Value; h <= 0 {
		t.Errorf("%s: qcache.hit_rate = %v replaying a pool the cache holds", workloads[1], h)
	}
	if a, b := reps[0].Metrics["pairs_per_s"].Value, reps[1].Metrics["pairs_per_s"].Value; a <= 0 || b <= 0 || a == b {
		t.Errorf("pairs_per_s = %v in process and %v over HTTP: each workload must report its own window", a, b)
	}
	fi, err := os.Stat(spans)
	if err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// checkMetrics requires rep to hold exactly the metrics of defs, with
// their units, and — for the gated ones — no zero.
func checkMetrics(t *testing.T, rep *report, defs []metricDef, nonzero bool) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s reported in %q, declared in %q", d.name, m.Unit, d.unit)
		case nonzero && m.Value <= 0:
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// BENCHMARK.json at the repository root is what the driver reads; the
// tables in manifest.go are what the harness reports. They must agree.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads listed, %d implemented", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, listed []entry, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, %d declared", kind, len(listed), len(defs))
			return
		}
		for i, e := range listed {
			d := defs[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, e, d)
			}
			if bounded != (e.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v", kind, e.Name, e.Bound != nil)
			} else if bounded && *e.Bound != d.bound {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the harness", kind, e.Name, *e.Bound, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
