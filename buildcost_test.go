package reachlab

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/pregel"
)

// TestBuildCostRecord: a vertex-centric build's cost is one record, its
// superstep rows and the rows of the phases outside them, and every
// reading of it — BuildStats, the pregel_* series — is their sum,
// exactly. The cluster build runs over two loopback workers whose
// transports drop calls (worker 1) and crash once (worker 0), so that
// retries, a recovery and checkpoints are charged as well.
func TestBuildCostRecord(t *testing.T) {
	clock.Fake(t) // the retries' backoffs, in virtual time
	g, err := GenerateGraph("citation", 600, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g, true); err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	local, err := Build(context.Background(), g, Options{Method: MethodDRLBatch, Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	checkCostRecord(t, "in process", local.BuildStats(), reg)

	addrs := startTestWorkers(t, 2)
	var mu sync.Mutex
	var lossy []*pregel.FaultTransport // worker 1's, whose drops are its retries
	dials := map[string]int{}
	dial := func(addr string) (pregel.Transport, error) {
		inner, err := pregel.DialRPC(addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		dials[addr]++
		plan := pregel.FaultPlan{Seed: int64(dials[addr])}
		switch {
		case addr == addrs[1]:
			plan.DropProb, plan.LostReplyProb = 0.05, 0.05
		case dials[addr] == 1:
			plan.CrashAtCall = 12 // four failed attempts, three of them retries, then a recovery
		}
		ft := pregel.NewFaultTransport(inner, plan)
		if addr == addrs[1] {
			lossy = append(lossy, ft)
		}
		return ft, nil
	}
	reg = NewMetricsRegistry()
	cluster, err := BuildOverCluster(context.Background(), addrs, path, Options{Method: MethodDRLBatch},
		ClusterOptions{CheckpointEvery: 2, Dial: dial, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.BuildStats()
	checkCostRecord(t, "cluster", st, reg)
	retries := int64(3)
	for _, ft := range lossy {
		retries += int64(ft.Stats().Drops + ft.Stats().LostReplies)
	}
	if st.Retries != retries || st.Recoveries != 1 || st.Checkpoints == 0 {
		t.Errorf("cluster: %d retries, %d recoveries, %d checkpoints; want %d retries (3 of the crashed call, the rest worker 1's injected faults), 1 recovery and checkpoints",
			st.Retries, st.Recoveries, st.Checkpoints, retries)
	}
}

// checkCostRecord sums the rows of a build's record itself and requires
// BuildStats and the pregel_* series to hold that sum.
func checkCostRecord(t *testing.T, name string, st BuildStats, reg *MetricsRegistry) {
	t.Helper()
	traces := reg.TraceSnapshot()
	type counts struct {
		supersteps, messages, local, remote, bcast, retries, recoveries, checkpoints, checkpointBytes int64
	}
	var rows counts
	var phases obs.Phases
	gathers := 0
	for _, r := range append(traces["pregel"], traces["pregel_phases"]...) {
		if r.Phase == "" {
			rows.supersteps++
		}
		if r.Phase == pregel.PhaseGather {
			gathers++
			if r.BytesRemote <= 0 {
				t.Errorf("%s: the gather's row carries %d bytes, want its modelled bytes", name, r.BytesRemote)
			}
		}
		rows.messages += r.Messages
		rows.local += r.BytesLocal
		rows.remote += r.BytesRemote
		rows.bcast += r.BcastBytes
		rows.retries += r.Retries
		rows.recoveries += r.Recoveries
		rows.checkpoints += r.Checkpoints
		rows.checkpointBytes += r.CheckpointBytes
		for phase, d := range r.Phases {
			if d < 0 {
				t.Errorf("%s: run %d step %d %q: phase %s is %v", name, r.Run, r.Step, r.Phase, phase, d)
			}
		}
		if got := r.Phases.Total(); got != time.Duration(r.WallNanos) {
			t.Errorf("%s: run %d step %d %q: phases sum to %v, wall is %v", name, r.Run, r.Step, r.Phase, got, time.Duration(r.WallNanos))
		}
		phases.Add(r.Phases)
	}
	if gathers != 1 {
		t.Errorf("%s: %d gather rows, want the one gather", name, gathers)
	}
	met := counts{int64(st.Supersteps), st.Messages, st.BytesLocal, st.BytesRemote, st.BcastBytes,
		st.Retries, st.Recoveries, st.Checkpoints, st.CheckpointBytes}
	series := counts{}
	for _, c := range []struct {
		name string
		n    *int64
	}{
		{"pregel_supersteps_total", &series.supersteps}, {"pregel_messages_total", &series.messages},
		{"pregel_bytes_local_total", &series.local}, {"pregel_bytes_remote_total", &series.remote},
		{"pregel_bcast_bytes_total", &series.bcast}, {"pregel_retries_total", &series.retries},
		{"pregel_recoveries_total", &series.recoveries}, {"pregel_checkpoints_total", &series.checkpoints},
		{"pregel_checkpoint_bytes_total", &series.checkpointBytes},
	} {
		*c.n = reg.CounterValue(c.name)
	}
	if rows != met || rows != series {
		t.Errorf("%s: {supersteps messages local remote bcast retries recoveries checkpoints checkpoint-bytes}:\nrows     %v\nstats    %v\nseries   %v", name, rows, met, series)
	}

	// BuildStats' phases are the rows' and, on a cluster, the master's
	// read of the graph file before it has a record; together they fit
	// in the build's wall time.
	for phase, d := range st.Phases {
		if d < 0 || (phase != pregel.PhaseLoad && d != phases[phase]) {
			t.Errorf("%s: BuildStats has %s %v, the rows %v", name, phase, d, phases[phase])
		}
	}
	if len(phases) == 0 || st.Phases.Total() > st.WallTime {
		t.Errorf("%s: phases %v sum past the build's wall time %v", name, st.Phases, st.WallTime)
	}
}

// The build-cost golden: what one fixed graph costs at each phase of the
// set-up path — generate, label (a full and a capped build), write, read
// — so that an edit to the labeler or the codec moves a number here and
// says where, as TestServingCostGolden does for the serving path. Every
// row but the allocation ones is exact on any host.

// buildAllocsVersion is the toolchain the allocation rows are pinned
// for; the runtime's and the standard library's allocations move between
// versions.
const buildAllocsVersion = "go1.24.0"

// buildCostRow is one phase's cost. Allocations and bytes are the least
// of three runs; the rest are the build's drl_* series, the index's
// entries and the file's bytes.
type buildCostRow struct {
	allocs, bytes  uint64 // heap allocations and bytes
	entries        int64  // label entries of the index the phase built or read
	bfs, visits    int64  // trimmed BFSs run, and the vertices they took in
	tests          int64  // label pruning tests of the trimmed BFSs
	refines, batch int64  // refine rounds and batches
	storeBytes     int64  // the labeler's working lists: bytes their rank slots hold
	fileBytes      int64  // the index file
}

// buildAllocsReason says why this run cannot hold the allocation rows,
// or "" when it can: they are pinned for one toolchain, and the race
// detector, coverage and the labeler's and layout's runtime invariants
// allocate of their own.
func buildAllocsReason() string {
	if v := runtime.Version(); v != buildAllocsVersion {
		return fmt.Sprintf("allocation rows are pinned for %s, this is %s", buildAllocsVersion, v)
	}
	if testing.CoverMode() != "" {
		return "allocation rows do not hold under -cover"
	}
	if invariant.Enabled {
		return "allocation rows do not hold under -tags=invariants"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return "allocation rows do not hold under -race"
			}
		}
	}
	return ""
}

// buildPhases are the golden's phases, in the order they run.
var buildPhases = []string{"generate", "build", "build-budget-8", "write", "read"}

// buildCostRun runs the set-up path once, each phase measured alone on
// one processor with no collection while it runs, and returns its rows.
func buildCostRun(t *testing.T) map[string]buildCostRow {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rows := map[string]buildCostRow{}
	measure := func(phase string, fn func()) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		r := rows[phase]
		r.allocs, r.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		rows[phase] = r
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var g *Graph
	measure("generate", func() {
		var err error
		g, err = GenerateGraph("citation", 20000, 4, 1)
		fail(err)
	})
	var idx *Index
	for _, b := range []struct {
		phase  string
		budget int
	}{{"build", 0}, {"build-budget-8", 8}} {
		reg := NewMetricsRegistry()
		var x *Index
		measure(b.phase, func() {
			var err error
			x, err = Build(context.Background(), g, Options{Method: MethodDRLShared, Workers: 1, LabelBudget: b.budget, Obs: reg})
			fail(err)
		})
		r := rows[b.phase]
		r.entries = x.Stats().Entries
		r.bfs, r.visits = reg.CounterValue("drl_trimmed_bfs_total"), reg.CounterValue("drl_bfs_visits_total")
		r.tests = reg.CounterValue("drl_label_tests_total")
		r.refines, r.batch = reg.CounterValue("drl_refine_rounds_total"), reg.CounterValue("drl_batches_total")
		r.storeBytes = reg.Gauge("drl_store_bytes").Value()
		rows[b.phase] = r
		if b.budget == 0 {
			idx = x
		}
	}
	var file bytes.Buffer
	measure("write", func() {
		_, err := idx.WriteTo(&file)
		fail(err)
	})
	w := rows["write"]
	w.fileBytes = int64(file.Len())
	rows["write"] = w
	measure("read", func() {
		back, err := ReadIndex(bytes.NewReader(file.Bytes()))
		fail(err)
		r := rows["read"]
		r.entries = back.Stats().Entries
		rows["read"] = r
	})
	return rows
}

// TestBuildCostGolden runs GenerateGraph("citation", 20000, 4, 1)
// through a full and a budget-8 build, both drl-shared at Workers 1,
// then WriteTo and ReadIndex, and pins per phase its allocations and
// bytes (on one toolchain), the labeler's exact counts and the file's
// bytes. An edit that makes a phase cheaper edits its row downward.
func TestBuildCostGolden(t *testing.T) {
	want := map[string]buildCostRow{
		"generate":       {allocs: 665, bytes: 4620920},
		"build":          {allocs: 590, bytes: 10662544, entries: 594803, bfs: 40000, visits: 629029, tests: 168161, refines: 14, batch: 14, storeBytes: 1385296},
		"build-budget-8": {allocs: 561, bytes: 8509712, entries: 181099, bfs: 40000, visits: 678515, tests: 196150, refines: 14, batch: 14, storeBytes: 450490},
		"write":          {allocs: 193, bytes: 4688072, fileBytes: 212645},
		"read":           {allocs: 136, bytes: 2239128, entries: 594803},
	}
	skipAllocs := buildAllocsReason()
	got := buildCostRun(t)
	for range 2 {
		again := buildCostRun(t)
		for phase, r := range got {
			a := again[phase]
			r.allocs, r.bytes = min(r.allocs, a.allocs), min(r.bytes, a.bytes)
			if a.allocs, a.bytes = r.allocs, r.bytes; a != r {
				t.Fatalf("%s: the exact rows differ between runs: %+v and %+v", phase, r, a)
			}
			got[phase] = r
		}
	}
	if skipAllocs != "" {
		t.Logf("allocation rows not checked: %s", skipAllocs)
		for _, rows := range []map[string]buildCostRow{got, want} {
			for phase, r := range rows {
				r.allocs, r.bytes = 0, 0
				rows[phase] = r
			}
		}
	}
	for _, phase := range buildPhases {
		if g, w := got[phase], want[phase]; g != w {
			t.Errorf("%s: %+v, want %+v", phase, g, w)
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, phase := range buildPhases {
			r := got[phase]
			fmt.Fprintf(&b, "\t%q: {allocs: %d, bytes: %d, entries: %d, bfs: %d, visits: %d, tests: %d, refines: %d, batch: %d, storeBytes: %d, fileBytes: %d},\n",
				phase, r.allocs, r.bytes, r.entries, r.bfs, r.visits, r.tests, r.refines, r.batch, r.storeBytes, r.fileBytes)
		}
		t.Logf("the rows measured:\n%s", b.String())
	}
}
