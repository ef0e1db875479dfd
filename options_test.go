package reachlab

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/label"
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

// TestCondensedIndexRoundTrip: the index file carries the component
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

	// Behind the 32-byte header and the 16-byte fingerprint, the table is
	// its length at byte 48 and one block: 11 values in 11 bytes, the
	// first component ID at byte 51.
	damaged := func(at int, b byte) []byte {
		bad := append([]byte(nil), file...)
		bad[at] = b
		return bad
	}
	for name, c := range map[string]struct {
		file []byte
		want string
	}{
		"component ID out of range":  {damaged(51, 0x7f), "component table: corrupt block: value"},
		"table longer than claimed":  {damaged(48, 10), "component table: corrupt block: 11 values where 10 belong"},
		"table shorter than claimed": {damaged(48, 12), "component table: corrupt block: 11 values where 12 belong"},
		"table cut short":            {file[:55], "component table: block payload: unexpected EOF"},
		"table announced and absent": {file[:48], "component table: unexpected EOF"},
		"to label.Read":              {file, "reachlab.ReadIndex"},
	} {
		_, err := ReadIndex(bytes.NewReader(c.file))
		if name == "to label.Read" {
			_, err = label.Read(bytes.NewReader(c.file))
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", name, err, c.want)
		}
	}
}

// TestReadIndexRejectsGarbage damages, one field at a time, a file that
// has all three optional parts — the index of the 11-vertex example's
// condensation, capped at one label per list — and the magic of every
// format before this one. Each must fail for its own reason.
func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("garbage garbage garbage"))); err == nil {
		t.Error("expected error for garbage input")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
	g := NewGraph(11, testEdges())
	idx, err := Build(context.Background(), g, Options{CondenseSCC: true, LabelBudget: 1})
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
	// [32,48): its n at 32; table [48,62); then the cap at 62 and two
	// bitset blocks of one byte each for the comps ≤ 8 components:
	// entries, bytes, flags at 63–65 and 66–68.
	comps := idx.LabelIndex().NumVertices()
	if comps > 8 || len(file) < 69 {
		t.Fatalf("fixture moved: %d components, %d bytes", comps, len(file))
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
		"the format before this one":    {retired("DRLINDX5"), "rebuild the index"},
		"the format of lists alone":     {retired("DRLINDX4"), "rebuild the index"},
		"the byte-aligned format":       {retired("DRLINDX3"), "rebuild the index"},
		"the one before that":           {retired("DRLINDX2"), "rebuild the index"},
		"its envelope":                  {retired("RLIXNVE2"), "rebuild the index"},
		"the fixed-width format":        {retired("DRLINDEX"), "rebuild the index"},
		"the fixed-width envelope":      {retired("RLIXNVE1"), "rebuild the index"},
		"a fourth optional part":        {damaged(12, 15), "implausible index header"},
		"a budget and no fingerprint":   {damaged(12, 6), "implausible index header"},
		"fingerprint cut short":         {file[:40], "graph fingerprint: unexpected EOF"},
		"fingerprint of the wrong n":    {damaged(32, 12), "graph fingerprint: it is of a graph of 12 vertices, the index covers 11"},
		"budget announced and absent":   {file[:62], "label budget: unexpected EOF"},
		"a cap of zero":                 {damaged(62, 0), "label budget: implausible cap 0"},
		"flags cut short":               {file[:65], "label budget: block payload: unexpected EOF"},
		"second flags absent":           {file[:66], "label budget: block header: unexpected EOF"},
		"flags longer than claimed":     {damaged(63, 0), "label budget: corrupt block: 0 entries in 1 bytes of flags"},
		"flags' byte length lied about": {damaged(64, 2), "label budget: corrupt block: 1 entries in 2 bytes of flags"},
		"a flag for a vertex ≥ n":       {damaged(68, file[68]|0x80), "label budget: corrupt block: a flag is set for a vertex that is not below"},
	} {
		if _, err := readIndex(bytes.NewReader(c.file), g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one about %q", name, err, c.want)
		}
	}
}
