package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// unbounded are the figures an end-to-end run prints without a bound
// that the record keeps: the window's timings, whose spread is why
// they have none, and the cache hit rate the window ran at.
var unbounded = []metricDef{
	{name: "pairs_per_s", unit: "pairs/s"},
	{name: "req_p50_us", unit: "us"},
	{name: "cpu_us_per_pair", unit: "us"},
	{name: "write_ack_p50_ms", unit: "ms"},
	{name: "write_visible_p50_ms", unit: "ms"},
	{name: "cache_hit_rate", unit: "ratio"},
}

// calibrationPath is where -calibrate writes its record, relative to
// the repository root it is run from.
const calibrationPath = "benchmark/CALIBRATION.md"

// runCalibration writes the record the bounds in BENCHMARK.json are
// derived from. It runs every workload end to end n times with seed —
// the same inputs every time, so what differs is the host — and n
// times with seeds seed+1..seed+n, which is the driver's acceptance
// test; then one traced process. Each run is a process of its own
// (peak_rss_mb is a per-process high-water mark), and the workloads
// take turns, so a slow quarter of an hour lands on all four and not
// on whichever was being repeated. A metric declared exact must read
// the same in every run of the first set, or the benchmark has a bug.
func runCalibration(n int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type set struct {
		values map[string]map[string][]float64 // workload → metric → one value per run
		wall   map[string][]float64
	}
	measure := func(seedOf func(run int) int64) (set, error) {
		s := set{values: map[string]map[string][]float64{}, wall: map[string][]float64{}}
		for run := 1; run <= n; run++ {
			for _, workload := range workloadNames {
				start := time.Now()
				_, printed, err := childRun(exe, workload, seedOf(run), seconds, 0)
				if err != nil {
					return s, err
				}
				s.wall[workload] = append(s.wall[workload], time.Since(start).Seconds())
				if s.values[workload] == nil {
					s.values[workload] = map[string][]float64{}
				}
				for name, v := range printed[workload] {
					s.values[workload][name] = append(s.values[workload][name], v)
				}
				fmt.Fprintf(os.Stderr, "calibrate: %s seed %d done in %.1f s\n", workload, seedOf(run), time.Since(start).Seconds())
			}
		}
		return s, nil
	}
	repeats, err := measure(func(int) int64 { return seed })
	if err != nil {
		return err
	}
	seeds, err := measure(func(run int) int64 { return seed + int64(run) })
	if err != nil {
		return err
	}
	for _, workload := range workloadNames {
		for _, d := range endToEnd {
			for _, v := range repeats.values[workload][d.name] {
				if d.exact && v != repeats.values[workload][d.name][0] {
					return fmt.Errorf("%s: %s is declared exact but read %v over %d runs of seed %d", workload, d.name, repeats.values[workload][d.name], n, seed)
				}
			}
		}
	}
	start := time.Now()
	traced, _, err := childRun(exe, "", seed, seconds, 1)
	if err != nil {
		return err
	}
	tracedWall := time.Since(start).Seconds()

	var b strings.Builder
	fmt.Fprintf(&b, "# Calibration record\n\n")
	fmt.Fprintf(&b, "`-calibrate %d -seed %d -seconds %g`, %s, one commit, one process per run, the four workloads taking\n", n, seed, seconds, time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(&b, "turns. *Same seed*: %d runs of seed %d — identical inputs, so the spread is the host's. *Other seeds*:\n", n, seed)
	fmt.Fprintf(&b, "seeds %d..%d, the driver's acceptance test. *spread* is (Q3 − Q1) ÷ median with the quartiles of\n", seed+1, seed+int64(n))
	fmt.Fprintf(&b, "Python's `statistics.quantiles(values, n=4)`; *half-range* is (max − min) ÷ 2 ÷ median. Zero failed\n")
	fmt.Fprintf(&b, "operations in all %d runs; exact metrics read the same in every same-seed run. Rows without a bound\n", 2*n*len(workloadNames))
	fmt.Fprintf(&b, "are the window's timings and cache hit rate, which an end-to-end run prints and the traced run\nreports per layer.\n")
	table := func(s set, workload string) {
		fmt.Fprintf(&b, "| metric | unit | bound | median | spread | half-range | values |\n|---|---|---|---|---|---|---|\n")
		for _, d := range append(append([]metricDef{}, endToEnd...), unbounded...) {
			v := s.values[workload][d.name]
			if len(v) == 0 || median(v) == 0 {
				continue // write latencies on one workload only; no cache on some paths
			}
			sorted := sortedCopy(v)
			strs := make([]string, len(v))
			for i, x := range v {
				strs[i] = fmt.Sprintf("%.5g", x)
			}
			bound := "none"
			if d.bound > 0 {
				bound = fmt.Sprint(d.bound)
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %.5g | %.2f%% | %.2f%% | %s |\n", d.name, d.unit, bound, median(v),
				100*quartileSpread(v), 100*(sorted[len(sorted)-1]-sorted[0])/2/median(v), strings.Join(strs, " "))
		}
	}
	for _, workload := range workloadNames {
		fmt.Fprintf(&b, "\n## %s\n\nA run took %.1f s of wall time (median).\n\nSame seed:\n\n", workload, median(append(repeats.wall[workload], seeds.wall[workload]...)))
		table(repeats, workload)
		fmt.Fprintf(&b, "\nOther seeds:\n\n")
		table(seeds, workload)
	}
	// The acceptance test's second half: the two sets are the same
	// code, so their medians must agree within each metric's bound.
	fmt.Fprintf(&b, "\n## Agreement of the two sets\n\nHow much worse the other-seeds median reads than the same-seed median, as a share of the latter\n(negative: it reads better). It must stay within the bound.\n\n")
	fmt.Fprintf(&b, "| metric | bound | %s |\n|---|---|%s\n", strings.Join(workloadNames, " | "), strings.Repeat("---|", len(workloadNames)))
	var disagree []string
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %g |", d.name, d.bound)
		for _, workload := range workloadNames {
			first, second := median(repeats.values[workload][d.name]), median(seeds.values[workload][d.name])
			worse := (second - first) / first
			if d.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(&b, " %+.2f%% |", 100*worse)
			if worse > d.bound {
				disagree = append(disagree, fmt.Sprintf("%s @ %s: %+.2f%%", d.name, workload, 100*worse))
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	if len(disagree) > 0 {
		fmt.Fprintf(&b, "\nOver the bound: %s.\n", strings.Join(disagree, "; "))
	}

	fmt.Fprintf(&b, "\n## Traced run\n\n`--trace 1 --seed %d`, all four workloads in one process (%.1f s of wall time): the build-side and\n", seed, tracedWall)
	fmt.Fprintf(&b, "update-side layers measured once, the serving side on each workload's own requests. One run, so\nread the timings with the host's noise in mind; the counts are exact.\n\n")
	fmt.Fprintf(&b, "| metric | unit | %s |\n|---|---|%s\n", strings.Join(workloadNames, " | "), strings.Repeat("---|", len(workloadNames)))
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s |", d.name, d.unit)
		for i := range workloadNames {
			fmt.Fprintf(&b, " %.5g |", traced[i].Metrics[d.name].Value)
		}
		fmt.Fprintf(&b, "\n")
	}
	return os.WriteFile(calibrationPath, []byte(b.String()), 0o644)
}

// childRun runs one workload (all four when workload is empty) in a
// process of its own. It returns the reports on the last lines of its
// output, one per workload, and every metric line it printed, by
// workload and name: the unbounded figures are only there.
func childRun(exe, workload string, seed int64, seconds float64, trace int) ([]*report, map[string]map[string]float64, error) {
	args := []string{"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
	want := len(workloadNames)
	if workload != "" {
		args, want = append(args, "--workload", workload), 1
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d trace %d: %w\n%s", workload, seed, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < want {
		return nil, nil, fmt.Errorf("%s seed %d trace %d: %d lines of output, want %d reports", workload, seed, trace, len(lines), want)
	}
	printed := map[string]map[string]float64{}
	for _, line := range lines[:len(lines)-want] {
		// printMetrics: workload, kind, name, value, unit.
		if f := strings.Fields(line); len(f) == 5 {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				if printed[f[0]] == nil {
					printed[f[0]] = map[string]float64{}
				}
				printed[f[0]][f[2]] = v
			}
		}
	}
	var reps []*report
	for _, line := range lines[len(lines)-want:] {
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, nil, fmt.Errorf("%s seed %d trace %d: not a report: %w", workload, seed, trace, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			return nil, nil, fmt.Errorf("%s seed %d trace %d: %d of %d operations failed", workload, seed, trace, rep.Failed, rep.Attempted)
		}
		reps = append(reps, &rep)
	}
	return reps, printed, nil
}
