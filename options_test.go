package reachlab

import (
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// startTestWorkers serves n cluster workers on ephemeral localhost
// ports for the life of the test process.
func startTestWorkers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ready := make(chan string, 1)
		//lint:ignore goleak test worker serves until the process exits; ready (sent inside pregel.ServeWorker) is the only handshake it needs
		go func() {
			if err := ServeWorker("127.0.0.1:0", ready); err != nil {
				t.Log(err)
			}
		}()
		addrs = append(addrs, <-ready)
	}
	return addrs
}

// TestClusterBuildOptions: a cluster build's file is the in-process
// build's, byte for byte, and the cluster refuses the option it cannot
// honour, a graph its master cannot read and a worker it cannot reach
// with an error instead of building something else.
func TestClusterBuildOptions(t *testing.T) {
	g, err := GenerateGraph("web", 400, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g, true); err != nil {
		t.Fatal(err)
	}
	file := func(x *Index) []byte {
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, method := range []Method{MethodDRL, MethodDRLBatch} {
		opts := Options{Method: method, Workers: 2}
		local, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := BuildOverCluster(context.Background(), startTestWorkers(t, 2), path, opts, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file(local), file(cluster)) {
			t.Errorf("%s: the cluster's index file differs from the in-process build's", method)
		}
		if l, c := local.BuildStats(), cluster.BuildStats(); l.Supersteps != c.Supersteps || l.Messages != c.Messages || l.BytesRemote != c.BytesRemote {
			t.Errorf("%s: in process {%d %d %d}, cluster {%d %d %d} supersteps/messages/remote bytes",
				method, l.Supersteps, l.Messages, l.BytesRemote, c.Supersteps, c.Messages, c.BytesRemote)
		}
	}
	if _, err := BuildOverCluster(context.Background(), nil, path, Options{LabelBudget: 8}, ClusterOptions{}); err == nil || !strings.Contains(err.Error(), "LabelBudget") {
		t.Errorf("Options.LabelBudget over a cluster: got %v, want a refusal naming it", err)
	}
	missing := filepath.Join(t.TempDir(), "missing.bin")
	if _, err := BuildOverCluster(context.Background(), nil, missing, Options{}, ClusterOptions{}); err == nil || !strings.Contains(err.Error(), "missing.bin") {
		t.Errorf("a graph the master cannot read: got %v, want an error naming it", err)
	}
	if x, err := BuildOverCluster(context.Background(), []string{"127.0.0.1:1"}, path, Options{}, ClusterOptions{}); err == nil {
		t.Errorf("a worker nobody listens for: got an index (%v), want the dial's error", x != nil)
	}
}

// TestOrderStrategiesAllCorrect: any total order yields a correct
// index; only the size varies, and Build, whatever its method, fixes
// the paper's degree-product order, which beats a random one.
func TestOrderStrategiesAllCorrect(t *testing.T) {
	g, err := GenerateGraph("web", 400, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[order.Strategy]int64{}
	for _, strat := range order.Strategies() {
		ord, err := order.ComputeStrategy(g.d, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		idx := tol.Build(g.d, ord)
		for s := VertexID(0); s < 60; s++ {
			for d := VertexID(340); d < 400; d++ {
				if idx.Reachable(s, d) != g.ReachableBFS(s, d) {
					t.Fatalf("%s: wrong answer for (%d,%d)", strat, s, d)
				}
			}
		}
		sizes[strat] = idx.Entries()
	}
	if sizes[order.StrategyDegreeProduct] > sizes[order.StrategyRandom] {
		t.Errorf("degree-product (%d entries) should beat random order (%d entries)",
			sizes[order.StrategyDegreeProduct], sizes[order.StrategyRandom])
	}
	want := tol.Build(g.d, order.Compute(g.d))
	for _, method := range []Method{MethodTOL, MethodDRL, MethodDRLBatch, MethodDRLShared} {
		idx, err := Build(context.Background(), g, Options{Method: method, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !want.Equal(idx.LabelIndex()) {
			t.Errorf("%s: Build's index is not the degree-product order's: %s", method, want.Diff(idx.LabelIndex()))
		}
	}
	if _, err := order.ComputeStrategy(g.d, "nope"); err == nil {
		t.Error("unknown order strategy should fail")
	}
}

// buildCondensed builds g's SCC condensation, a DAG, and returns its
// index with the component of every vertex of g: the preprocessing the
// condensation ablation measures.
func buildCondensed(t *testing.T, g *Graph, opts Options) (*Index, []int32) {
	t.Helper()
	dag, comp := graph.Condense(g.d)
	idx, err := Build(context.Background(), &Graph{d: dag}, opts)
	if err != nil {
		t.Fatalf("%+v over the condensation: %v", opts, err)
	}
	return idx, comp
}

// TestCondenseSCC: an index of the condensation answers like the raw
// graph's once queries go through the component table, and is smaller
// on cyclic graphs.
func TestCondenseSCC(t *testing.T) {
	g, err := GenerateGraph("social", 1500, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Build(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cond, comp := buildCondensed(t, g, Options{Workers: 2})
	if len(comp) != g.NumVertices() || cond.NumVertices() >= g.NumVertices() {
		t.Errorf("%d components for %d vertices, %d in the table: a social graph must condense",
			cond.NumVertices(), g.NumVertices(), len(comp))
	}
	for s := VertexID(0); s < 80; s++ {
		for d := VertexID(1400); d < 1500; d++ {
			if raw.Reachable(s, d) != cond.Reachable(VertexID(comp[s]), VertexID(comp[d])) {
				t.Fatalf("condensed index disagrees on (%d,%d)", s, d)
			}
		}
	}
	if cond.Stats().Entries >= raw.Stats().Entries {
		t.Errorf("condensation should shrink the label count on a social graph: %d vs %d",
			cond.Stats().Entries, raw.Stats().Entries)
	}
}

// condensedFile is the file an earlier build wrote for the 11-vertex
// example under the removed CondenseSCC option: header, fingerprint,
// the component table, then the lists.
const condensedFile = "3658444e494c524406000000030000000e0000000000000006000000000000000b0000009b4b91d30f000000000000000b0b0b0205050502050201000403060402b3942a0e09010000000077db0a00060700000000005505"

// TestCondensedIndexRoundTrip: an index file that carries a component
// table no longer round-trips. It is a v6 file, and every reader refuses
// it at its header's retired magic, so the file is rebuilt rather than
// misread.
func TestCondensedIndexRoundTrip(t *testing.T) {
	file, err := hex.DecodeString(condensedFile)
	if err != nil {
		t.Fatal(err)
	}
	const want = "retired format; rebuild the index"
	g := NewGraph(11, testEdges())
	path := filepath.Join(t.TempDir(), "cond.idx")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{
		"ReadIndex":  func() error { _, err := ReadIndex(bytes.NewReader(file)); return err },
		"readIndex":  func() error { _, err := readIndex(bytes.NewReader(file), g); return err },
		"OpenIndex":  func() error { _, err := OpenIndex(path, g); return err },
		"label.Read": func() error { _, err := label.Read(bytes.NewReader(file)); return err },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one about %q", name, err, want)
		}
	}
}

// TestReadIndexRejectsGarbage damages, one field at a time, a file that
// has both optional parts — the index of the 11-vertex example, capped
// at one label per list — and the magic of every format before this
// one, and announces the component table of an index over an SCC
// condensation, which no v7 file has (TestCondensedIndexRoundTrip
// reads a v6 one whole). Each must fail for its own reason.
func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("garbage garbage garbage"))); err == nil {
		t.Error("expected error for garbage input")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{LabelBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	if _, err := readIndex(bytes.NewReader(file), g); err != nil {
		t.Fatalf("the undamaged file: %v", err)
	}
	// header [0,32): magic, n at 8, the parts word at 12; fingerprint
	// [32,48): its n at 32; then the cap at 48 and two bitset blocks of
	// two bytes each for the 11 vertices: entries, bytes, flags at 49–52
	// and 53–56.
	if len(file) < 57 || file[12] != 5 {
		t.Fatalf("fixture moved: %d bytes, parts %#x", len(file), file[12])
	}
	damaged := func(at int, b byte) []byte {
		bad := append([]byte(nil), file...)
		bad[at] = b
		return bad
	}
	retired := func(magic string) []byte {
		bad := append([]byte(nil), file...)
		for i := range magic { // the magics read as text in a big-endian word
			bad[7-i] = magic[i]
		}
		return bad
	}
	for name, c := range map[string]struct {
		file []byte
		want string
	}{
		"the format before this one":    {retired("DRLINDX6"), "rebuild the index"},
		"the format of one hub a list":  {retired("DRLINDX5"), "rebuild the index"},
		"the format of lists alone":     {retired("DRLINDX4"), "rebuild the index"},
		"the byte-aligned format":       {retired("DRLINDX3"), "rebuild the index"},
		"the one before that":           {retired("DRLINDX2"), "rebuild the index"},
		"its envelope":                  {retired("RLIXNVE2"), "rebuild the index"},
		"the fixed-width format":        {retired("DRLINDEX"), "rebuild the index"},
		"the fixed-width envelope":      {retired("RLIXNVE1"), "rebuild the index"},
		"an SCC condensation's table":   {damaged(12, 7), "implausible index header"},
		"a fourth optional part":        {damaged(12, 13), "implausible index header"},
		"a budget and no fingerprint":   {damaged(12, 4), "implausible index header"},
		"fingerprint cut short":         {file[:40], "graph fingerprint: unexpected EOF"},
		"fingerprint of the wrong n":    {damaged(32, 12), "graph fingerprint: it is of a graph of 12 vertices, the index covers 11"},
		"budget announced and absent":   {file[:48], "label budget: unexpected EOF"},
		"a cap of zero":                 {damaged(48, 0), "label budget: implausible cap 0"},
		"flags cut short":               {file[:51], "label budget: block payload: unexpected EOF"},
		"second flags absent":           {file[:53], "label budget: block header: unexpected EOF"},
		"flags longer than claimed":     {damaged(49, 0), "label budget: corrupt block: 0 entries in 2 bytes of flags"},
		"flags' byte length lied about": {damaged(50, 3), "label budget: corrupt block: 2 entries in 3 bytes of flags"},
		"a flag for a vertex ≥ n":       {damaged(56, file[56]|0x80), "label budget: corrupt block: a flag is set for a vertex that is not below"},
	} {
		if _, err := readIndex(bytes.NewReader(c.file), g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", name, err, c.want)
		}
	}
}
