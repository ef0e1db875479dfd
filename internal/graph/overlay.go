package graph

import "slices"

// Copy-on-write per-vertex lists over a packed, immutable base.
//
// Lists packed back to back behind offsets (this package's CSR
// adjacency, the label package's half-word chunks) cannot change one
// vertex's list without rewriting everything behind it. An overlay
// holds the few lists that differ from such a base; a reader takes the
// overlay's list where it has one and the base's everywhere else. One
// bit per vertex says "no override" without touching the map, so a
// vertex nobody edited costs a reader two loads.
//
// MutableOverlay is the single writer's side and Overlay the frozen
// view it hands to readers. The two share list storage: Freeze copies
// the map but not the lists, and the writer copies a list again before
// the first edit that follows a Freeze. A frozen view therefore never
// changes, however many edits and later views come after it.

// Overlay is an immutable set of per-vertex list overrides. The nil
// Overlay holds none. Safe for concurrent readers.
type Overlay[T comparable] struct {
	touched  []uint64 // bit v set ⇔ lists has v
	lists    map[VertexID][]T
	entries  int
	shadowed int
}

func hasBit(bits []uint64, v VertexID) bool {
	return bits[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

// Has reports whether v's list is overridden.
func (o *Overlay[T]) Has(v VertexID) bool { return o != nil && hasBit(o.touched, v) }

// Get returns v's override, or ok == false where the base's list
// stands. The list is read-only.
func (o *Overlay[T]) Get(v VertexID) (list []T, ok bool) {
	if !o.Has(v) {
		return nil, false
	}
	return o.lists[v], true
}

// Len returns the number of overridden lists.
func (o *Overlay[T]) Len() int {
	if o == nil {
		return 0
	}
	return len(o.lists)
}

// Entries returns the total length of the overriding lists, and
// Shadowed that of the base lists they stand in for: a base of b
// entries under this overlay reads as b − Shadowed + Entries.
func (o *Overlay[T]) Entries() int {
	if o == nil {
		return 0
	}
	return o.entries
}

func (o *Overlay[T]) Shadowed() int {
	if o == nil {
		return 0
	}
	return o.shadowed
}

// MutableOverlay accumulates list edits for one writer. It is not safe
// for concurrent use; readers on other goroutines get a Freeze.
type MutableOverlay[T comparable] struct {
	touched  []uint64
	lists    map[VertexID]cowList[T]
	entries  int
	shadowed int

	// A list copied at the current generation is private: no frozen
	// view holds it, so it is edited in place. Freeze starts the next
	// generation, which shares every list at once.
	gen   uint64
	dirty []VertexID  // vertices whose lists are private
	view  *Overlay[T] // the last Freeze, until an edit is compacted in
}

type cowList[T any] struct {
	list []T
	gen  uint64
}

// NewMutableOverlay returns an empty overlay over a base of n vertices.
func NewMutableOverlay[T comparable](n int) *MutableOverlay[T] {
	return &MutableOverlay[T]{
		touched: make([]uint64, (n+63)/64),
		lists:   make(map[VertexID]cowList[T]),
		gen:     1,
	}
}

// Get returns v's override, or ok == false where the base's list
// stands. The list is valid until the next edit of v.
func (m *MutableOverlay[T]) Get(v VertexID) (list []T, ok bool) {
	if !hasBit(m.touched, v) {
		return nil, false
	}
	return m.lists[v].list, true
}

// Len, Entries: as on Overlay, for the lists held right now —
// including any that an edit has brought back to the base's value and
// the next Freeze will drop.
func (m *MutableOverlay[T]) Len() int     { return len(m.lists) }
func (m *MutableOverlay[T]) Entries() int { return m.entries }

// Insert puts x at position i of v's list and Remove takes position i
// out. cur is v's list as a reader sees it now — Get's, or the base's
// where Get has none — and is copied before the edit unless this
// overlay alone holds it.
func (m *MutableOverlay[T]) Insert(v VertexID, cur []T, i int, x T) {
	m.store(v, slices.Insert(m.private(v, cur), i, x))
}

func (m *MutableOverlay[T]) Remove(v VertexID, cur []T, i int) {
	m.store(v, slices.Delete(m.private(v, cur), i, i+1))
}

func (m *MutableOverlay[T]) private(v VertexID, cur []T) []T {
	e, held := m.lists[v]
	if held && e.gen == m.gen {
		return e.list
	}
	// A quarter's head room: a list that is edited once tends to be
	// edited again.
	list := append(make([]T, 0, len(cur)+len(cur)/4+4), cur...)
	if !held {
		m.touched[uint32(v)>>6] |= 1 << (uint32(v) & 63)
		m.shadowed += len(cur)
		m.entries += len(cur)
	}
	m.lists[v] = cowList[T]{list, m.gen}
	m.dirty = append(m.dirty, v)
	return list
}

func (m *MutableOverlay[T]) store(v VertexID, list []T) {
	m.entries += len(list) - len(m.lists[v].list)
	m.lists[v] = cowList[T]{list, m.gen}
}

// Compact drops the lists that edits have brought back to the base's
// value (base(v)), so an edit and its inverse leave no trace. It costs
// a comparison per list edited since the last Compact or Freeze.
func (m *MutableOverlay[T]) Compact(base func(VertexID) []T) {
	if len(m.dirty) == 0 {
		return
	}
	for _, v := range m.dirty {
		if b := base(v); slices.Equal(m.lists[v].list, b) {
			delete(m.lists, v)
			m.touched[uint32(v)>>6] &^= 1 << (uint32(v) & 63)
			m.entries -= len(b)
			m.shadowed -= len(b)
		}
	}
	// The next generation: whatever is left may be about to be shared.
	m.dirty = m.dirty[:0]
	m.gen++
	m.view = nil
}

// Freeze compacts and returns the overrides as they then stand, nil if
// there are none. The cost is Compact's plus one map entry per
// override, and nothing when no edit has happened since the last
// Freeze.
func (m *MutableOverlay[T]) Freeze(base func(VertexID) []T) *Overlay[T] {
	m.Compact(base)
	if m.view == nil && len(m.lists) > 0 {
		m.view = &Overlay[T]{
			touched:  slices.Clone(m.touched),
			lists:    make(map[VertexID][]T, len(m.lists)),
			entries:  m.entries,
			shadowed: m.shadowed,
		}
		for v, e := range m.lists {
			m.view.lists[v] = e.list
		}
	}
	return m.view
}
