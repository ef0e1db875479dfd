package graph

// Traversal helpers. These are the index-free oracles used throughout
// the test suite and the primitives BFL's fallback search builds on.

// Visitor is called for every vertex discovered by a traversal. If it
// returns false the traversal stops early.
type Visitor func(v VertexID) bool

// BFS runs a breadth-first search from src over out-edges, invoking
// visit for every discovered vertex including src.
func BFS(g *Digraph, src VertexID, visit Visitor) {
	seen := make([]bool, g.NumVertices())
	queue := make([]VertexID, 0, 64)
	seen[src] = true
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if !visit(u) {
			return
		}
		for _, w := range g.OutNeighbors(u) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
}

// Reachable reports whether s can reach t by an online BFS. It is the
// ground-truth oracle for every reachability index in this repository.
func Reachable(g *Digraph, s, t VertexID) bool {
	if s == t {
		return true
	}
	found := false
	BFS(g, s, func(v VertexID) bool {
		if v == t {
			found = true
			return false
		}
		return true
	})
	return found
}

// Descendants returns DES(v): every vertex v can reach, including v.
// Over g.Inverse() it is ANC(v), every vertex that can reach v.
func Descendants(g *Digraph, v VertexID) []VertexID {
	var out []VertexID
	BFS(g, v, func(u VertexID) bool {
		out = append(out, u)
		return true
	})
	return out
}

// PostOrder returns the vertices of g in DFS finishing order, running
// the DFS from every root in increasing ID order. The traversal is
// iterative so deep graphs cannot overflow the goroutine stack. BFL's
// interval labels are assigned from this order.
func PostOrder(g *Digraph) []VertexID {
	n := g.NumVertices()
	order := make([]VertexID, 0, n)
	seen := make([]bool, n)
	type frame struct {
		v    VertexID
		next int
	}
	stack := make([]frame, 0, 64)
	for root := VertexID(0); int(root) < n; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{v: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			nbrs := g.OutNeighbors(top.v)
			advanced := false
			for top.next < len(nbrs) {
				w := nbrs[top.next]
				top.next++
				if !seen[w] {
					seen[w] = true
					stack = append(stack, frame{v: w})
					advanced = true
					break
				}
			}
			if advanced {
				continue
			}
			order = append(order, top.v)
			stack = stack[:len(stack)-1]
		}
	}
	return order
}
