// Package check decides ABC admissibility (Definition 4) of execution
// graphs and produces certificates either way:
//
//   - when the graph is admissible, a normalized delay assignment τ with
//     1 < τ(message) < Ξ and τ(local) > 0 whose existence is the content of
//     Theorem 7/Theorem 12 — returned as concrete exact rationals;
//   - when it is not, a violating relevant cycle Z with |Z−|/|Z+| >= Ξ.
//
// The checker avoids enumerating the exponentially many cycles by the
// observation (proved in the paper via Farkas' lemma, and elementary in the
// converse direction) that the ABC condition holds if and only if the
// strict difference-constraint system over event occurrence times
//
//	1 < t(v) − t(u) < Ξ   for every message edge (u, v)
//	0 < t(v) − t(u)       for every local edge (u, v)
//
// is feasible. Feasibility of difference constraints is the absence of a
// negative cycle in the constraint digraph. Strict inequalities and the
// rational Ξ = a/b are handled exactly by scaling: all times are multiplied
// by b·(E+1), where E is the number of constraint-relevant edges, making
// every constant an integer, and each strict bound is tightened by 1. Any
// simple cycle has at most E edges, so the accumulated tightenings (at most
// E) can never flip the sign of a scaled integer sum (multiples of E+1).
//
// A negative cycle in the constraint digraph maps back to a relevant cycle
// violating Definition 4: upper-bound edges are its forward messages,
// lower-bound edges its backward messages, and local edges are only ever
// traversable backward — precisely the relevance condition of Definition 3.
package check

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/rat"
)

// ErrXiOutOfRange is returned when Ξ <= 1 (the ABC model requires Ξ > 1;
// see footnote 16 of the paper).
var ErrXiOutOfRange = errors.New("check: Ξ must be a rational > 1")

// Verdict is the outcome of an admissibility check.
type Verdict struct {
	// Admissible reports whether every relevant cycle Z satisfies
	// |Z−|/|Z+| < Ξ.
	Admissible bool
	// Witness is a violating relevant cycle when Admissible is false.
	Witness *cycles.Cycle
	// WitnessClass is the Definition 3 classification of Witness.
	WitnessClass cycles.Class
	// Assignment is a normalized delay assignment when Admissible is true
	// (Theorem 7).
	Assignment *Assignment
}

// ABC checks the execution graph against the ABC synchrony condition for
// the given Ξ. It runs in O(V·E) time and is exact.
func ABC(g *causality.Graph, xi rat.Rat) (Verdict, error) {
	if !xi.Greater(rat.One) {
		return Verdict{}, ErrXiOutOfRange
	}
	a, b := xi.Num(), xi.Den()
	p, err := newProber(g)
	if err != nil {
		return Verdict{}, err
	}
	return p.probe(a, b, true)
}

// prober is a reusable admissibility oracle for one execution graph. The
// constraint digraph topology does not depend on the probed ratio — only
// the three per-kind arc weights do — so it is built once and each probe
// sets the weights. This matters for the Stern–Brocot critical-ratio
// search, which issues O(log² K) probes against the same graph.
type prober struct {
	g  *causality.Graph
	cs *constraints
	e  int64 // constraint-relevant execution edges
	v  int64 // execution nodes
	// dist is the distance vector of the most recent feasible probe,
	// reused to warm-start the next probe's Bellman–Ford: consecutive
	// Stern–Brocot candidates are close, so the previous solution is
	// nearly feasible for the new weights and the sweep count collapses.
	// nil until a probe is feasible.
	dist []int64
	// work and pred are the solver's buffers, reused across probes; a
	// feasible probe swaps work with dist.
	work []int64
	pred []int32
}

// newProber validates the execution graph and builds its constraint
// digraph. The DAG check runs directly on the execution graph's CSR
// adjacency.
func newProber(g *causality.Graph) (*prober, error) {
	if !g.IsDAG() {
		return nil, errors.New("check: execution graph is not a DAG")
	}
	edges := g.Edges()
	cs, err := newConstraints(g.NumNodes(), edges)
	if err != nil {
		return nil, err
	}
	return &prober{g: g, cs: cs, e: int64(len(edges)), v: int64(g.NumNodes()), pred: make([]int32, g.NumNodes())}, nil
}

// probe solves the scaled constraint system for Ξ = a/b. wantCerts
// controls whether certificates (assignment/witness) are built.
func (p *prober) probe(a, b int64, wantCerts bool) (Verdict, error) {
	s := p.e + 1 // strictness scale
	// Overflow guard: the largest |path sum| is bounded by (V+1)·max|w|,
	// with max|w| <= max(a,b)·S + 1. Guard the guard's own products too:
	// maxW·s+1 must not wrap before it is used as a divisor.
	maxW := max(a, b)
	if maxW > 0 && (maxW > (math.MaxInt64-1)/s || (p.v+2) > math.MaxInt64/(maxW*s+1)) {
		return Verdict{}, fmt.Errorf("check: graph too large for exact int64 arithmetic (V=%d, E=%d, Ξ=%d/%d)", p.v, p.e, a, b)
	}

	weights := [3]int64{
		labelUpper: a*s - 1,  // t(v) - t(u) < a/b  =>  T(v) - T(u) <= a·S − 1
		labelLower: -b*s - 1, // t(v) - t(u) > 1    =>  T(u) - T(v) <= −b·S − 1
		labelLocal: -1,       // t(v) - t(u) > 0    =>  T(u) - T(v) <= −1
	}

	// Warm start from the previous feasible probe's distances when their
	// magnitude leaves overflow headroom for this probe's path sums
	// (|init| + (V+2)·(max|w|+1), with the second term already certified
	// finite by the guard above); cold start from zero otherwise.
	if p.work == nil {
		p.work = make([]int64, p.v)
	}
	dist := p.work
	clear(dist)
	if p.dist != nil {
		var maxInit int64
		for _, d := range p.dist {
			maxInit = max(maxInit, d, -d)
		}
		if maxInit <= math.MaxInt64-(p.v+2)*(maxW*s+1) {
			copy(dist, p.dist)
		}
	}

	g := p.g
	neg := p.cs.solve(&weights, dist, p.pred)
	if neg == nil {
		p.dist, p.work = dist, p.dist
		verdict := Verdict{Admissible: true}
		if wantCerts {
			verdict.Assignment = newAssignment(g, dist, b*s)
		}
		return verdict, nil
	}

	verdict := Verdict{Admissible: false}
	if wantCerts {
		w, err := witnessFromNegativeCycle(g, neg)
		if err != nil {
			return Verdict{}, err
		}
		verdict.Witness = &w
		verdict.WitnessClass = cycles.Classify(w)
	}
	return verdict, nil
}

// witnessFromNegativeCycle maps a negative cycle of the constraint digraph
// (arc labels in forward order) back to a violating relevant cycle of the
// execution graph.
func witnessFromNegativeCycle(g *causality.Graph, neg []int32) (cycles.Cycle, error) {
	c, err := cycles.NewCycle(g, cycleSteps(neg))
	if err != nil {
		return cycles.Cycle{}, fmt.Errorf("check: internal error mapping witness: %w", err)
	}
	if cl := cycles.Classify(c); !cl.Relevant {
		return cycles.Cycle{}, fmt.Errorf("check: internal error: witness cycle not relevant: %v", c)
	}
	return c, nil
}

// cycleSteps maps constraint arc labels to execution-graph cycle steps:
// an upper-bound arc traverses its message forward, lower-bound and local
// arcs traverse their edge backward.
func cycleSteps(labels []int32) []cycles.Step {
	steps := make([]cycles.Step, len(labels))
	for i, label := range labels {
		steps[i] = cycles.Step{Edge: causality.EdgeID(label / 3), Forward: label%3 == labelUpper}
	}
	return steps
}
