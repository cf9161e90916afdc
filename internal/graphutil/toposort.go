package graphutil

// TopoSort returns a topological order of the nodes, or ok=false if the
// graph contains a directed cycle. Execution graphs (Definition 1 of the
// paper) are DAGs — messages cannot be sent backwards in time — and several
// packages rely on processing events in causal order.
func (g *Digraph) TopoSort() (order []int, ok bool) {
	indeg := make([]int, g.n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	adj := g.adjacency()
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ei := range adj[v] {
			w := g.edges[ei].To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// IsDAG reports whether the graph is acyclic.
func (g *Digraph) IsDAG() bool {
	_, ok := g.TopoSort()
	return ok
}
