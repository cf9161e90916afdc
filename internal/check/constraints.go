package check

import (
	"fmt"
	"math"

	"repro/internal/causality"
)

// constraint arc label encoding: label = 3*edgeID + kind.
const (
	labelUpper = 0 // message upper bound, traversed forward
	labelLower = 1 // message lower bound, traversed backward
	labelLocal = 2 // local edge, traversed backward
)

// constraints is the difference-constraint digraph of one execution graph
// in CSR form. A message edge (u, v) contributes an upper-bound arc u→v
// and a lower-bound arc v→u; a local edge (u, v) contributes one arc v→u.
// Arcs carry no weight: every arc of one kind weighs the same in a probe,
// so the kernel looks the weight up by the label's kind. The arcs leaving
// each node are split by direction in the node order — targets >= the
// node in fwd, below it in bwd — and keep execution-edge order within a
// node's run.
type constraints struct {
	// edges are the execution edges the labels index; they give each arc's
	// endpoints back for the negative-cycle walk.
	edges    []causality.Edge
	fwd, bwd arcRuns
}

// arcRuns holds one direction's arcs: those leaving u are
// tgt[off[u]:off[u+1]], with labels in the parallel lab.
type arcRuns struct {
	off, tgt, lab []int32
}

// fitsInt32 reports whether a graph with v nodes and e edges fits the
// int32 arc layout: node IDs, arc offsets (at most 2e) and labels (at most
// 3e+2) must all be representable.
func fitsInt32(v, e int) error {
	if v < 0 || e < 0 || int64(v) > math.MaxInt32 || int64(e) > (math.MaxInt32-2)/3 {
		return fmt.Errorf("check: graph too large for the int32 constraint layout (V=%d, E=%d)", v, e)
	}
	return nil
}

// newConstraints builds the constraint digraph over nodes 0..n-1 at exact
// size: a count pass sizes every array, a fill pass writes the arcs.
func newConstraints(n int, edges []causality.Edge) (*constraints, error) {
	if err := fitsInt32(n, len(edges)); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e.Kind != causality.Message && e.Kind != causality.Local {
			return nil, fmt.Errorf("check: unknown edge kind %v", e.Kind)
		}
	}
	c := &constraints{edges: edges, fwd: arcRuns{off: make([]int32, n+1)}, bwd: arcRuns{off: make([]int32, n+1)}}
	eachArc := func(visit func(r *arcRuns, from, to, label int32)) {
		for i, e := range edges {
			// A message contributes its upper- then its lower-bound arc,
			// a local edge its one arc.
			first, last := int32(3*i+labelUpper), int32(3*i+labelLower)
			if e.Kind == causality.Local {
				first, last = int32(3*i+labelLocal), int32(3*i+labelLocal)
			}
			for l := first; l <= last; l++ {
				from, to := c.ends(l)
				r := &c.fwd
				if to < from {
					r = &c.bwd
				}
				visit(r, from, to, l)
			}
		}
	}
	eachArc(func(r *arcRuns, from, _, _ int32) { r.off[from+1]++ })
	for _, r := range []*arcRuns{&c.fwd, &c.bwd} {
		for u := 0; u < n; u++ {
			r.off[u+1] += r.off[u]
		}
		r.tgt, r.lab = make([]int32, r.off[n]), make([]int32, r.off[n])
	}
	// The fill pass uses off[u] as u's write cursor, which leaves it at
	// u's end (= u+1's start); shifting the array by one restores it.
	eachArc(func(r *arcRuns, from, to, label int32) {
		k := r.off[from]
		r.tgt[k], r.lab[k] = to, label
		r.off[from]++
	})
	for _, r := range []*arcRuns{&c.fwd, &c.bwd} {
		copy(r.off[1:], r.off[:n])
		r.off[0] = 0
	}
	return c, nil
}

// ends returns the source and target nodes of the arc with the given
// label.
func (c *constraints) ends(label int32) (from, to int32) {
	e := c.edges[label/3]
	if label%3 == labelUpper {
		return int32(e.From), int32(e.To)
	}
	return int32(e.To), int32(e.From)
}

// solve runs Bellman–Ford under arc weights w (w[kind] for every arc of
// that kind), starting from the labels in dist and leaving the distances
// there; pred is scratch of the same length. It returns nil when the
// system is feasible — dist then satisfies every constraint — and
// otherwise the labels of a negative cycle in forward order.
//
// Starting from dist is equivalent to a virtual super-source with an edge
// of weight dist[v] to every node v, so any initial labels are sound; ones
// close to a feasible solution (the previous probe's, under nearby
// weights) converge in far fewer passes. The caller must leave int64
// headroom for path sums: |dist| + (n+1)·max|w| must not overflow.
//
// Each pass follows Yen's two-sweep order (DESIGN.md decision 3): fwd
// arcs in ascending, then bwd arcs in descending node order. It converges
// within ⌈n/2⌉+1 passes when no negative cycle exists, so a relaxation in
// pass n+1 certifies one, which predecessor-walking extracts.
func (c *constraints) solve(w *[3]int64, dist []int64, pred []int32) []int32 {
	n := len(c.fwd.off) - 1
	for i := range pred {
		pred[i] = -1
	}
	wt := *w
	fwd, bwd := &c.fwd, &c.bwd
	var last int32 = -1
	for iter := 0; iter <= n; iter++ {
		last = -1
		for u := 0; u < n; u++ {
			du := dist[u]
			tgt, lab := fwd.tgt[fwd.off[u]:fwd.off[u+1]], fwd.lab[fwd.off[u]:fwd.off[u+1]]
			lab = lab[:len(tgt)]
			for j, v := range tgt {
				l := lab[j]
				if nd := du + wt[uint32(l)%3]; nd < dist[v] {
					dist[v], pred[v], last = nd, l, l
				}
			}
		}
		for u := n - 1; u >= 0; u-- {
			du := dist[u]
			tgt, lab := bwd.tgt[bwd.off[u]:bwd.off[u+1]], bwd.lab[bwd.off[u]:bwd.off[u+1]]
			lab = lab[:len(tgt)]
			for j, v := range tgt {
				l := lab[j]
				if nd := du + wt[uint32(l)%3]; nd < dist[v] {
					dist[v], pred[v], last = nd, l, l
				}
			}
		}
		if last == -1 {
			return nil
		}
	}

	// An arc relaxed in pass n+1: a negative cycle is reachable from the
	// predecessor chain of that arc's head. Walk back n steps to land
	// inside the cycle, then collect it, head to tail.
	_, v := c.ends(last)
	for i := 0; i < n; i++ {
		v, _ = c.ends(pred[v])
	}
	start := v
	var cycle []int32
	for {
		l := pred[v]
		cycle = append(cycle, l)
		if v, _ = c.ends(l); v == start {
			break
		}
	}
	for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return cycle
}
