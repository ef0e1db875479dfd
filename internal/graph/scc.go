package graph

// Strongly connected components via an iterative Tarjan algorithm.
// The labeling algorithms never require an acyclic input (§II-C of the
// paper), but component structure drives the dataset statistics in
// Table V and the generators use it to validate the structural regime
// of each synthetic family.

// SCCResult describes the strongly connected components of a graph.
type SCCResult struct {
	// Component[v] is the component index of vertex v. Components are
	// numbered in reverse topological order of the condensation (i.e.
	// component 0 is a sink component).
	Component []int32
	// Sizes[c] is the number of vertices in component c.
	Sizes []int32
}

// NumComponents returns the number of strongly connected components.
func (r *SCCResult) NumComponents() int { return len(r.Sizes) }

// LargestComponent returns the size of the largest SCC.
func (r *SCCResult) LargestComponent() int {
	best := 0
	for _, s := range r.Sizes {
		if int(s) > best {
			best = int(s)
		}
	}
	return best
}

// SCC computes the strongly connected components of g.
func SCC(g *Digraph) *SCCResult {
	n := g.NumVertices()
	const unvisited = int32(-1)
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var sizes []int32
	var counter int32
	stack := make([]VertexID, 0, 64)

	type frame struct {
		v    VertexID
		next int
	}
	call := make([]frame, 0, 64)

	for root := VertexID(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call, frame{v: root})
		index[root] = counter
		lowlink[root] = counter
		counter++
		onStack[root] = true
		stack = append(stack, root)

		for len(call) > 0 {
			top := &call[len(call)-1]
			nbrs := g.OutNeighbors(top.v)
			recursed := false
			for top.next < len(nbrs) {
				w := nbrs[top.next]
				top.next++
				if index[w] == unvisited {
					index[w] = counter
					lowlink[w] = counter
					counter++
					onStack[w] = true
					stack = append(stack, w)
					call = append(call, frame{v: w})
					recursed = true
					break
				}
				if onStack[w] && index[w] < lowlink[top.v] {
					lowlink[top.v] = index[w]
				}
			}
			if recursed {
				continue
			}
			v := top.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				c := int32(len(sizes))
				var size int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = c
					size++
					if w == v {
						break
					}
				}
				sizes = append(sizes, size)
			}
		}
	}
	return &SCCResult{Component: comp, Sizes: sizes}
}
