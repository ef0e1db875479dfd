package reachlab

import (
	"bytes"
	"testing"

	"repro/internal/tol"
)

func TestDynamicIndexPublicAPI(t *testing.T) {
	g := NewGraph(11, testEdges())
	d, err := NewDynamicIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reachable(1, 6) || d.Reachable(9, 0) {
		t.Fatal("initial answers wrong")
	}
	if err := d.InsertEdge(9, 0); err != nil { // v10 → v1
		t.Fatal(err)
	}
	if !d.Reachable(9, 8) { // v10 → v1 → v8 → v9
		t.Error("insert not reflected")
	}
	if err := d.DeleteEdge(9, 0); err != nil {
		t.Fatal(err)
	}
	if d.Reachable(9, 0) {
		t.Error("delete not reflected")
	}
	cur := d.Graph()
	for s := VertexID(0); s < 11; s++ {
		for x := VertexID(0); x < 11; x++ {
			if d.Reachable(s, x) != cur.ReachableBFS(s, x) {
				t.Fatalf("divergence at (%d,%d)", s, x)
			}
		}
	}
	// Snapshot serializes like a static index.
	snap := d.Snapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Reachable(9, 0) != d.Reachable(9, 0) {
		t.Error("snapshot round trip diverged")
	}
	if _, err := NewDynamicIndex(nil); err == nil {
		t.Error("nil graph should fail")
	}
}

// TestSeededMaintainerMatchesSerialConstructor: the maintainer seeded
// with the parallel batch labeler's index is the one tol.NewDynamic
// builds serially — same snapshot at construction, and the same after
// identical updates (the repair sweeps start from identical labels).
func TestSeededMaintainerMatchesSerialConstructor(t *testing.T) {
	for _, family := range []string{"citation", "social"} {
		g, err := GenerateGraph(family, 400, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := newDynamic(g.d)
		if err != nil {
			t.Fatal(err)
		}
		serial := tol.NewDynamic(g.d)
		if a, b := serial.Snapshot(), seeded.Snapshot(); !a.Equal(b) {
			t.Fatalf("%s: seeded maintainer differs from the serial constructor: %s", family, a.Diff(b))
		}
		for i := 0; i < 20; i++ {
			u, v := VertexID((i*37)%400), VertexID((i*91+13)%400)
			for _, d := range []*tol.DynamicIndex{serial, seeded} {
				if err := d.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a, b := serial.Snapshot(), seeded.Snapshot(); !a.Equal(b) {
			t.Fatalf("%s: maintainers diverged after updates: %s", family, a.Diff(b))
		}
	}
}
