// Package graphutil provides a small generic directed graph for tests and
// tooling: an edge-list digraph with parallel edges, topological sorting
// (the causality tests' independent acyclicity oracle), and DOT export
// for debugging space–time diagrams. The admissibility checker of
// internal/check does not use it; it solves its difference constraints on
// its own CSR layout, and its tests keep a Digraph-based reference solver.
package graphutil

import "fmt"

// Edge is a weighted, labelled edge in a Digraph. Label is caller-defined
// and is preserved verbatim; internal/check uses it to map constraint edges
// back to messages and local edges of the execution graph.
type Edge struct {
	From, To int
	Weight   int64
	Label    int32
}

// Digraph is a directed multigraph over nodes 0..n-1 with int64 edge
// weights. Parallel edges and self-loops are allowed. The zero value is an
// empty graph with no nodes; use New to create a graph with nodes.
type Digraph struct {
	n     int
	edges []Edge
}

// New returns a digraph with n nodes and no edges.
// It panics if n is negative.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative node count %d", n))
	}
	return &Digraph{n: n}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// AddEdge appends an edge from -> to with the given weight and label.
// It panics if either endpoint is out of range.
func (g *Digraph) AddEdge(from, to int, weight int64, label int32) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graphutil: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight, Label: label})
}

// Edges returns the edge list. The caller must not modify the result.
func (g *Digraph) Edges() []Edge { return g.edges }

// adjacency returns per-node outgoing edge index lists.
func (g *Digraph) adjacency() [][]int32 {
	adj := make([][]int32, g.n)
	counts := make([]int32, g.n)
	for _, e := range g.edges {
		counts[e.From]++
	}
	for i := range adj {
		adj[i] = make([]int32, 0, counts[i])
	}
	for i, e := range g.edges {
		adj[e.From] = append(adj[e.From], int32(i))
	}
	return adj
}
