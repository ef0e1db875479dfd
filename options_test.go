package reachlab

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
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

// TestClusterBuildOptions: a cluster build honours Options.Order — its
// file is the in-process build's, byte for byte — and refuses the
// options it cannot honour by name instead of building something else.
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
		opts := Options{Method: method, Order: "degree-sum", Workers: 2}
		local, err := Build(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := BuildOverCluster(startTestWorkers(t, 2), path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file(local), file(cluster)) {
			t.Errorf("%s under degree-sum: the cluster's index file differs from the in-process build's", method)
		}
		if l, c := local.BuildStats(), cluster.BuildStats(); l.Supersteps != c.Supersteps || l.Messages != c.Messages || l.BytesRemote != c.BytesRemote {
			t.Errorf("%s: in process {%d %d %d}, cluster {%d %d %d} supersteps/messages/remote bytes",
				method, l.Supersteps, l.Messages, l.BytesRemote, c.Supersteps, c.Messages, c.BytesRemote)
		}
	}
	for name, opts := range map[string]Options{
		"CondenseSCC": {CondenseSCC: true},
		"LabelBudget": {LabelBudget: 8},
	} {
		if _, err := BuildOverCluster(nil, path, opts); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Options.%s over a cluster: got %v, want a refusal naming it", name, err)
		}
	}
}

// TestOrderStrategiesAllCorrect: any total order yields a correct
// index; only the size varies.
func TestOrderStrategiesAllCorrect(t *testing.T) {
	g, err := GenerateGraph("web", 400, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, strat := range []string{"", "degree-product", "degree-sum", "out-degree", "id", "random"} {
		idx, err := Build(context.Background(), g, Options{Order: strat, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for s := VertexID(0); s < 60; s++ {
			for d := VertexID(340); d < 400; d++ {
				if idx.Reachable(s, d) != g.ReachableBFS(s, d) {
					t.Fatalf("%s: wrong answer for (%d,%d)", strat, s, d)
				}
			}
		}
		sizes[strat] = idx.Stats().Entries
	}
	if sizes["degree-product"] > sizes["random"] {
		t.Errorf("degree-product (%d entries) should beat random order (%d entries)",
			sizes["degree-product"], sizes["random"])
	}
	if _, err := Build(context.Background(), g, Options{Order: "nope"}); err == nil {
		t.Error("unknown order strategy should fail")
	}
}

// TestCondenseSCC: the condensed index answers like the raw one and
// is smaller on cyclic graphs.
func TestCondenseSCC(t *testing.T) {
	g, err := GenerateGraph("social", 1500, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Build(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := Build(context.Background(), g, Options{Workers: 2, CondenseSCC: true})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumVertices() != g.NumVertices() {
		t.Errorf("condensed index must still cover %d vertices, got %d",
			g.NumVertices(), cond.NumVertices())
	}
	for s := VertexID(0); s < 80; s++ {
		for d := VertexID(1400); d < 1500; d++ {
			if raw.Reachable(s, d) != cond.Reachable(s, d) {
				t.Fatalf("condensed index disagrees on (%d,%d)", s, d)
			}
		}
	}
	if cond.Stats().Entries >= raw.Stats().Entries {
		t.Errorf("condensation should shrink the label count on a social graph: %d vs %d",
			cond.Stats().Entries, raw.Stats().Entries)
	}
}

// TestCondensedIndexRoundTrip: the envelope carries the component
// table through serialization.
func TestCondensedIndexRoundTrip(t *testing.T) {
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{CondenseSCC: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	file := buf.Bytes()
	got, err := ReadIndex(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	for s := VertexID(0); s < 11; s++ {
		for d := VertexID(0); d < 11; d++ {
			want := g.ReachableBFS(s, d)
			if got.Reachable(s, d) != want {
				t.Fatalf("loaded condensed index wrong on (%d,%d)", s, d)
			}
		}
	}

	// The table is one block at byte 16: 11 values in 11 bytes, the
	// first component ID at byte 18.
	damaged := func(at int, b byte) []byte {
		bad := append([]byte(nil), file...)
		bad[at] = b
		return bad
	}
	for name, c := range map[string]struct {
		file []byte
		want string
	}{
		"component ID out of range":  {damaged(18, 0x7f), "corrupt component table"},
		"table longer than claimed":  {damaged(8, 10), "component table"},
		"table shorter than claimed": {damaged(8, 12), "component table"},
		"retired envelope":           {damaged(0, '1'), "rebuild the index"},
	} {
		if _, err := ReadIndex(bytes.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", name, err, c.want)
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("garbage garbage garbage"))); err == nil {
		t.Error("expected error for garbage input")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}
