package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestOverlayAgainstModel drives a MutableOverlay with seeded edits
// beside a plain per-vertex model, freezing every few edits, and checks
// at the end that every frozen view still reads as the model did when
// it was taken, that the live overlay reads as the model does now, and
// that the size accounting holds throughout.
func TestOverlayAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 130 // over two bitset words
	base := make([][]int32, n)
	for v := range base {
		for x := int32(0); x < 20; x++ {
			if rng.Intn(3) == 0 {
				base[v] = append(base[v], x)
			}
		}
	}
	baseOf := func(v VertexID) []int32 { return base[v] }
	model := make([][]int32, n)
	for v := range model {
		model[v] = slices.Clone(base[v])
	}
	m := NewMutableOverlay[int32](n)
	read := func(get func(VertexID) ([]int32, bool), v VertexID) []int32 {
		if l, ok := get(v); ok {
			return l
		}
		return base[v]
	}

	type frozen struct {
		view *Overlay[int32]
		want [][]int32
	}
	var views []frozen
	for step := 0; step < 4000; step++ {
		v := VertexID(rng.Intn(n))
		x := int32(rng.Intn(20))
		cur := read(m.Get, v)
		i, has := slices.BinarySearch(cur, x)
		if has {
			m.Remove(v, cur, i)
			model[v] = slices.Delete(slices.Clone(model[v]), i, i+1)
		} else {
			m.Insert(v, cur, i, x)
			model[v] = slices.Insert(slices.Clone(model[v]), i, x)
		}
		if step%37 == 0 {
			want := make([][]int32, n)
			copy(want, model) // the model replaces lists, never edits them
			views = append(views, frozen{m.Freeze(baseOf), want})
			if again := m.Freeze(baseOf); again != views[len(views)-1].view {
				t.Fatalf("step %d: a second Freeze with no edit between made a new view", step)
			}
		}
	}

	for k, f := range views {
		differ, entries, shadowed := 0, 0, 0
		for v := VertexID(0); v < n; v++ {
			got := read(f.view.Get, v)
			if !slices.Equal(got, f.want[v]) {
				t.Fatalf("view %d, vertex %d: reads %v, was %v when frozen", k, v, got, f.want[v])
			}
			if f.view.Has(v) {
				if slices.Equal(f.want[v], base[v]) {
					t.Fatalf("view %d holds vertex %d, whose list equals the base's", k, v)
				}
				differ++
				entries += len(got)
				shadowed += len(base[v])
			}
		}
		if f.view.Len() != differ || f.view.Entries() != entries || f.view.Shadowed() != shadowed {
			t.Fatalf("view %d: Len/Entries/Shadowed = %d/%d/%d, counted %d/%d/%d",
				k, f.view.Len(), f.view.Entries(), f.view.Shadowed(), differ, entries, shadowed)
		}
	}
	for v := VertexID(0); v < n; v++ {
		if got := read(m.Get, v); !slices.Equal(got, model[v]) {
			t.Fatalf("live overlay, vertex %d: reads %v, model has %v", v, got, model[v])
		}
	}

	// Undo every difference: what is left compacts to nothing.
	for v := VertexID(0); v < n; v++ {
		for x := int32(0); x < 20; x++ {
			cur := read(m.Get, v)
			i, has := slices.BinarySearch(cur, x)
			_, want := slices.BinarySearch(base[v], x)
			switch {
			case has && !want:
				m.Remove(v, cur, i)
			case !has && want:
				m.Insert(v, cur, i, x)
			}
		}
	}
	if view := m.Freeze(baseOf); view != nil || m.Len() != 0 || m.Entries() != 0 {
		t.Fatalf("after undoing every edit: view %v, %d lists, %d entries", view, m.Len(), m.Entries())
	}
	var none *Overlay[int32]
	if none.Has(3) || none.Len() != 0 || none.Entries() != 0 || none.Shadowed() != 0 {
		t.Fatal("the nil overlay is not empty")
	}
}
