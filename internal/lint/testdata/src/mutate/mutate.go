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
