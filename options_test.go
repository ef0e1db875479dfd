package reachlab

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

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
