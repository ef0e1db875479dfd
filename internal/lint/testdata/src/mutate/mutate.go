package mutate

// The mutation driver's fixture: TestMutantsFixture pins the mutants
// enumerated here, in order.

const kindFwd, kindBwd = 0, 1 // declared: not swapped

type index struct {
	inFull, outFull []bool // declared: not swapped
}

type graph struct{ inv *graph }

func (g *graph) Inverse() *graph { return g.inv }

func (x *index) direction(v int, fwd bool) int {
	if fwd && x.outFull[v] {
		return kindFwd
	}
	if err := check(v); err != nil { // has an init clause: not mutated
		return -1
	}
	for i := 0; i < v; i++ {
		if i >= len(x.inFull) {
			break
		}
	}
	return kindBwd
}

func check(v int) error { return nil }

func walk(g *graph, v int) *graph {
	if v > 0 {
		return g.Inverse()
	}
	return g
}

func reset(g *graph) { g.inv = nil }

func split(v int) (lo, hi int) { return v / 2, v - v/2 }

func (x *index) pair(v int) (*index, error) { return x, check(v) }

func noop() {} // an empty body: not mutated

func first(vs []int) (int, error) {
	for _, v := range vs {
		if v < 0 {
			continue
		}
		err := check(v)
		if err != nil {
			return 0, err
		}
		return vs[v&1], nil
	}
	return 0, nil // its last result is not err: not dropped
}

// over's condition mentions drops: its mutants are if→ and boundary
// ones all the same, and a filter on the operator must not pick them.
func over(drops, limit int) bool {
	if drops > limit {
		return true
	}
	return false
}
