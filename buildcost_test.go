package reachlab

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
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
