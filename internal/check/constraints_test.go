package check

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/causality"
	"repro/internal/graphutil"
	"repro/internal/rat"
	"repro/internal/sim"
)

// refResult is the outcome of the reference Bellman–Ford.
type refResult struct {
	feasible bool
	dist     []int64
	cycle    []graphutil.Edge
}

// refBellmanFord is the generic Digraph Bellman–Ford the checker ran before
// the constraint CSR, kept as the differential reference: Yen's two-sweep
// order over a direction-partitioned plan of edge indices, warm-started
// from init (nil means all zero).
func refBellmanFord(g *graphutil.Digraph, init []int64) refResult {
	n, edges := g.N(), g.Edges()
	dist := make([]int64, n)
	copy(dist, init)
	pred := make([]int32, n)
	for i := range pred {
		pred[i] = -1
	}
	adjF := make([][]int32, n)
	adjB := make([][]int32, n)
	for i, e := range edges {
		if e.To >= e.From {
			adjF[e.From] = append(adjF[e.From], int32(i))
		} else {
			adjB[e.From] = append(adjB[e.From], int32(i))
		}
	}
	relax := func(u int, adj []int32, last *int32) {
		du := dist[u]
		for _, ei := range adj {
			e := edges[ei]
			if nd := du + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				pred[e.To] = ei
				*last = ei
			}
		}
	}
	var last int32 = -1
	for iter := 0; iter <= n; iter++ {
		last = -1
		for u := 0; u < n; u++ {
			relax(u, adjF[u], &last)
		}
		for u := n - 1; u >= 0; u-- {
			relax(u, adjB[u], &last)
		}
		if last == -1 {
			return refResult{feasible: true, dist: dist}
		}
	}
	v := edges[last].To
	for i := 0; i < n; i++ {
		v = edges[pred[v]].From
	}
	start := v
	var rev []graphutil.Edge
	for {
		e := edges[pred[v]]
		rev = append(rev, e)
		v = e.From
		if v == start {
			break
		}
	}
	cycle := make([]graphutil.Edge, len(rev))
	for i, e := range rev {
		cycle[len(rev)-1-i] = e
	}
	return refResult{feasible: false, cycle: cycle}
}

// refDigraph builds the constraint digraph the way the Digraph path did:
// arcs in execution-edge order, weight w[kind], label 3·edgeID+kind.
func refDigraph(n int, edges []causality.Edge, w [3]int64) *graphutil.Digraph {
	d := graphutil.New(n)
	for i, e := range edges {
		if e.Kind == causality.Message {
			d.AddEdge(int(e.From), int(e.To), w[labelUpper], int32(3*i+labelUpper))
			d.AddEdge(int(e.To), int(e.From), w[labelLower], int32(3*i+labelLower))
		} else {
			d.AddEdge(int(e.To), int(e.From), w[labelLocal], int32(3*i+labelLocal))
		}
	}
	return d
}

func refLabels(cycle []graphutil.Edge) []int32 {
	out := make([]int32, len(cycle))
	for i, e := range cycle {
		out[i] = e.Label
	}
	return out
}

// solveFrom runs the kernel from init (nil means all zero) on fresh
// buffers.
func solveFrom(t testing.TB, n int, edges []causality.Edge, w [3]int64, init []int64) (*constraints, []int64, []int32) {
	t.Helper()
	c, err := newConstraints(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int64, n)
	copy(dist, init)
	return c, dist, c.solve(&w, dist, make([]int32, n))
}

// checkPotential asserts dist satisfies every constraint arc.
func checkPotential(t testing.TB, c *constraints, w [3]int64, dist []int64) {
	t.Helper()
	for i := range c.edges {
		for _, kind := range []int{labelUpper, labelLower, labelLocal} {
			if (kind == labelLocal) != (c.edges[i].Kind == causality.Local) {
				continue
			}
			l := int32(3*i + kind)
			if u, v := c.ends(l); dist[v] > dist[u]+w[kind] {
				t.Fatalf("dist violates arc %d: %d -> %d: %d > %d + %d", l, u, v, dist[v], dist[u], w[kind])
			}
		}
	}
}

// checkNegativeCycle asserts neg is a closed arc walk of negative weight.
func checkNegativeCycle(t testing.TB, c *constraints, w [3]int64, neg []int32) {
	t.Helper()
	if len(neg) == 0 {
		t.Fatal("empty negative cycle")
	}
	var sum int64
	for i, l := range neg {
		sum += w[l%3]
		_, head := c.ends(l)
		if next, _ := c.ends(neg[(i+1)%len(neg)]); head != next {
			t.Fatalf("witness not closed at position %d: arc %d ends at %d, the next arc starts at %d", i, l, head, next)
		}
	}
	if sum >= 0 {
		t.Fatalf("witness cycle weight %d is not negative", sum)
	}
}

func msg(from, to causality.NodeID) causality.Edge {
	return causality.Edge{From: from, To: to, Kind: causality.Message}
}

func local(from, to causality.NodeID) causality.Edge {
	return causality.Edge{From: from, To: to, Kind: causality.Local, Msg: -1}
}

func TestBellmanFordFeasible(t *testing.T) {
	// x1−x0 <= 3, x0−x1 <= −1, x1−x2 <= −1, x2−x0 <= 3, x0−x2 <= −1.
	edges := []causality.Edge{msg(0, 1), local(1, 2), msg(0, 2)}
	w := [3]int64{3, -1, -1}
	c, dist, neg := solveFrom(t, 3, edges, w, nil)
	if neg != nil {
		t.Fatalf("feasible system reported infeasible: %v", neg)
	}
	checkPotential(t, c, w, dist)
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	// The message 1→2 closes the cycle 1→2→1 of weight 1 + (−3) = −2.
	edges := []causality.Edge{msg(0, 1), msg(1, 2), local(2, 3)}
	w := [3]int64{1, -3, 5}
	c, _, neg := solveFrom(t, 4, edges, w, nil)
	if neg == nil {
		t.Fatal("negative cycle not detected")
	}
	checkNegativeCycle(t, c, w, neg)
}

func TestBellmanFordZeroCycleFeasible(t *testing.T) {
	// A zero-weight cycle is not negative; the system remains feasible.
	_, _, neg := solveFrom(t, 2, []causality.Edge{msg(0, 1)}, [3]int64{2, -2, 0}, nil)
	if neg != nil {
		t.Error("zero-weight cycle incorrectly reported as negative")
	}
}

func TestBellmanFordSelfLoop(t *testing.T) {
	w := [3]int64{0, 0, -1}
	c, _, neg := solveFrom(t, 1, []causality.Edge{local(0, 0)}, w, nil)
	if neg == nil {
		t.Fatal("negative self-loop not detected")
	}
	if len(neg) != 1 {
		t.Errorf("self-loop witness has %d arcs, want 1", len(neg))
	}
	checkNegativeCycle(t, c, w, neg)
}

func TestBellmanFordEmpty(t *testing.T) {
	if _, _, neg := solveFrom(t, 0, nil, [3]int64{}, nil); neg != nil {
		t.Error("empty graph infeasible")
	}
	_, dist, neg := solveFrom(t, 5, nil, [3]int64{}, nil)
	if neg != nil || len(dist) != 5 {
		t.Error("edgeless graph mishandled")
	}
}

// randomEdges draws m execution edges of random kind over n nodes with no
// structural constraint: cycles, self-loops and parallel edges occur.
func randomEdges(rng *rand.Rand, n, m int) []causality.Edge {
	edges := make([]causality.Edge, m)
	for i := range edges {
		from, to := causality.NodeID(rng.Intn(n)), causality.NodeID(rng.Intn(n))
		if rng.Intn(2) == 0 {
			edges[i] = msg(from, to)
		} else {
			edges[i] = local(from, to)
		}
	}
	return edges
}

// randomDAGEdges draws an execution-graph-shaped DAG — each node gets a
// local edge from an earlier node and sometimes a message — and then
// relabels the nodes by a random permutation, so the node order is not
// causal: some messages point backward in node order and some lower-bound
// and local arcs point forward.
func randomDAGEdges(rng *rand.Rand, n int) []causality.Edge {
	perm := rng.Perm(n)
	id := func(v int) causality.NodeID { return causality.NodeID(perm[v]) }
	var edges []causality.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, local(id(rng.Intn(v)), id(v)))
		if rng.Intn(2) == 0 {
			edges = append(edges, msg(id(rng.Intn(v)), id(v)))
		}
	}
	return edges
}

func randomWeights(rng *rand.Rand) [3]int64 {
	return [3]int64{rng.Int63n(21) - 10, rng.Int63n(21) - 10, rng.Int63n(21) - 10}
}

// Property: on random graphs, the kernel either returns distances
// satisfying every constraint arc, or a genuinely negative witness cycle.
func TestBellmanFordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		edges := randomEdges(rng, n, rng.Intn(3*n))
		w := randomWeights(rng)
		c, dist, neg := solveFrom(t, n, edges, w, nil)
		if neg == nil {
			checkPotential(t, c, w, dist)
		} else {
			checkNegativeCycle(t, c, w, neg)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBellmanFordFromAgreesWithCold runs warm-started solves from
// arbitrary (even adversarial) initial labels: feasibility verdicts must
// match the cold run, warm distances must still satisfy every constraint,
// and negative-cycle witnesses must still sum negative.
func TestBellmanFordFromAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		edges := randomDAGEdges(rng, n)
		// Upper bounds in [−1, 7], lower and local bounds in [−4, 1]: both
		// feasible and infeasible systems occur.
		w := [3]int64{rng.Int63n(9) - 1, rng.Int63n(6) - 4, rng.Int63n(6) - 4}
		c, cold, coldNeg := solveFrom(t, n, edges, w, nil)

		for warmTrial := 0; warmTrial < 3; warmTrial++ {
			init := make([]int64, n)
			for i := range init {
				init[i] = rng.Int63n(41) - 20
			}
			_, warm, warmNeg := solveFrom(t, n, edges, w, init)
			if (warmNeg == nil) != (coldNeg == nil) {
				t.Fatalf("trial %d: warm feasible=%v, cold=%v", trial, warmNeg == nil, coldNeg == nil)
			}
			if warmNeg == nil {
				checkPotential(t, c, w, warm)
			} else {
				checkNegativeCycle(t, c, w, warmNeg)
			}
		}
		if coldNeg == nil {
			feasible++
			checkPotential(t, c, w, cold)
			// Re-solving warm from the solution itself must converge
			// immediately to the same verdict.
			_, again, againNeg := solveFrom(t, n, edges, w, cold)
			if againNeg != nil {
				t.Fatalf("trial %d: solution-warmed solve infeasible", trial)
			}
			checkPotential(t, c, w, again)
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate sweep: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// TestSolveReusesBuffers pins that solves sharing one constraint digraph
// and one pair of buffers (as a prober's probes do) match solves on fresh
// buffers: a feasible, an infeasible and a feasible weighting in turn, with
// the distance buffer warm from the previous solve.
func TestSolveReusesBuffers(t *testing.T) {
	edges := []causality.Edge{msg(0, 1), msg(1, 2), local(0, 1), local(2, 3), msg(3, 1)}
	c, err := newConstraints(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	dist, pred := make([]int64, 4), make([]int32, 4)
	for i, w := range [][3]int64{{5, 1, -1}, {1, -3, -1}, {9, 1, 0}} {
		init := append([]int64(nil), dist...)
		neg := c.solve(&w, dist, pred)
		if wantFeasible := i != 1; (neg == nil) != wantFeasible {
			t.Fatalf("w=%v: feasible=%v, want %v", w, neg == nil, wantFeasible)
		}
		_, freshDist, freshNeg := solveFrom(t, 4, edges, w, init)
		if !reflect.DeepEqual(neg, freshNeg) {
			t.Fatalf("w=%v: reused-buffer cycle %v, fresh %v", w, neg, freshNeg)
		}
		if neg == nil && !reflect.DeepEqual(dist, freshDist) {
			t.Fatalf("w=%v: reused-buffer dist %v, fresh %v", w, dist, freshDist)
		}
		if neg != nil {
			copy(dist, init) // a prober warm-starts only from feasible probes
		}
	}
}

// assertMatchesReference runs the kernel and the Digraph reference on one
// system and requires the same feasibility, bit-identical distances and
// the same witness steps.
func assertMatchesReference(t testing.TB, n int, edges []causality.Edge, w [3]int64, init []int64) {
	t.Helper()
	_, dist, neg := solveFrom(t, n, edges, w, init)
	ref := refBellmanFord(refDigraph(n, edges, w), init)
	if (neg == nil) != ref.feasible {
		t.Fatalf("feasible=%v, reference %v (n=%d edges=%v w=%v)", neg == nil, ref.feasible, n, edges, w)
	}
	if ref.feasible {
		if !reflect.DeepEqual(dist, ref.dist) {
			t.Fatalf("dist %v, reference %v (n=%d edges=%v w=%v)", dist, ref.dist, n, edges, w)
		}
		return
	}
	if got, want := cycleSteps(neg), cycleSteps(refLabels(ref.cycle)); !reflect.DeepEqual(got, want) {
		t.Fatalf("witness steps %v, reference %v (n=%d edges=%v w=%v)", got, want, n, edges, w)
	}
}

// TestConstraintKernelMatchesReference is the differential test of the
// constraint CSR against the Digraph Bellman–Ford it replaced, on
// unstructured graphs and on relabeled (non-causally-ordered) DAGs, cold
// and warm-started.
func TestConstraintKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(24)
		var edges []causality.Edge
		if trial%2 == 0 {
			edges = randomEdges(rng, n, rng.Intn(3*n+1))
		} else {
			edges = randomDAGEdges(rng, n)
		}
		w := randomWeights(rng)
		var init []int64
		if rng.Intn(2) == 0 {
			init = make([]int64, n)
			for i := range init {
				init[i] = rng.Int63n(41) - 20
			}
		}
		assertMatchesReference(t, n, edges, w, init)
		if ref := refBellmanFord(refDigraph(n, edges, w), init); ref.feasible {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate sweep: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// FuzzConstraintKernel drives the differential test from raw bytes:
// byte 0 sizes the node set, bytes 1–3 are the signed per-kind weights,
// byte 4 selects a warm start, and each following byte triple is one edge
// (from, to, kind).
func FuzzConstraintKernel(f *testing.F) {
	f.Add([]byte{3, 3, 0xff, 0xff, 0, 0, 1, 1, 1, 2, 0, 0, 2, 1})
	f.Add([]byte{4, 1, 0xfd, 5, 1, 0, 1, 1, 1, 2, 1, 2, 3, 0})
	f.Add([]byte{1, 0, 0, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + int(data[0])%16
		w := [3]int64{int64(int8(data[1])), int64(int8(data[2])), int64(int8(data[3]))}
		var init []int64
		if data[4]%2 == 1 {
			init = make([]int64, n)
			for i := range init {
				init[i] = int64(int8(data[4] + byte(7*i)))
			}
		}
		var edges []causality.Edge
		for rest := data[5:]; len(rest) >= 3 && len(edges) < 64; rest = rest[3:] {
			from, to := causality.NodeID(int(rest[0])%n), causality.NodeID(int(rest[1])%n)
			if rest[2]%2 == 0 {
				edges = append(edges, msg(from, to))
			} else {
				edges = append(edges, local(from, to))
			}
		}
		assertMatchesReference(t, n, edges, w, init)
	})
}

func TestFitsInt32(t *testing.T) {
	maxE := (math.MaxInt32 - 2) / 3
	for _, tc := range []struct {
		v, e int
		ok   bool
	}{
		{0, 0, true},
		{math.MaxInt32, maxE, true},
		{math.MaxInt32, maxE + 1, false},
		{math.MaxInt32 + 1, 0, false},
		{-1, 0, false},
		{0, -1, false},
	} {
		if err := fitsInt32(tc.v, tc.e); (err == nil) != tc.ok {
			t.Errorf("fitsInt32(%d, %d) = %v, want ok=%v", tc.v, tc.e, err, tc.ok)
		}
	}
}

// refProber is the checker's probe logic over the Digraph reference: the
// same scaling, weights and warm-start rule.
type refProber struct {
	g    *causality.Graph
	dist []int64
}

func (p *refProber) probe(a, b int64) refResult {
	e, v := int64(p.g.NumEdges()), int64(p.g.NumNodes())
	s := e + 1
	maxW := max(a, b)
	var init []int64
	if p.dist != nil {
		var maxInit int64
		for _, d := range p.dist {
			maxInit = max(maxInit, d, -d)
		}
		if maxInit <= math.MaxInt64-(v+2)*(maxW*s+1) {
			init = p.dist
		}
	}
	res := refBellmanFord(refDigraph(int(v), p.g.Edges(), [3]int64{a*s - 1, -b*s - 1, -1}), init)
	if res.feasible {
		p.dist = res.dist
	}
	return res
}

// reinterleave returns tr with its events merged across processes in a
// random order that keeps each process's own order but not causal
// delivery order, so batch Build numbers some senders after receivers.
func reinterleave(t *testing.T, tr *sim.Trace, rng *rand.Rand) *sim.Trace {
	t.Helper()
	per := make([][]sim.Event, tr.N)
	for _, ev := range tr.Events {
		per[ev.Proc] = append(per[ev.Proc], ev)
	}
	events := make([]sim.Event, 0, len(tr.Events))
	for len(events) < len(tr.Events) {
		p := rng.Intn(tr.N)
		if len(per[p]) > 0 {
			events = append(events, per[p][0])
			per[p] = per[p][1:]
		}
	}
	out, err := sim.Reassemble(tr.N, events, tr.Msgs, tr.Faulty)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProberMatchesReference runs one prober through a sequence of probes
// (so warm starts and buffer reuse come into play) on simulator graphs in
// trace order and reinterleaved, and requires the verdicts, assignments
// and witnesses the Digraph reference implies.
func TestProberMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ratios := [][2]int64{{3, 2}, {2, 1}, {3, 1}, {7, 3}, {5, 4}, {2, 1}, {9, 8}, {4, 1}}
	backward, admissible, violated := 0, 0, 0
	for seed := int64(0); seed < 24; seed++ {
		res, err := sim.Run(sim.Config{
			N: 3 + int(seed%2),
			Spawn: func(sim.ProcessID) sim.Process {
				return sim.ProcessFunc(func(env *sim.Env, _ sim.Message) {
					if env.StepIndex() < 4 {
						env.Broadcast(env.StepIndex())
					}
				})
			},
			Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(4)},
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if seed%4 >= 2 {
			tr = reinterleave(t, tr, rng)
		}
		g := causality.Build(tr, causality.Options{})
		for _, e := range g.Edges() {
			if e.From > e.To {
				backward++
			}
		}
		p, err := newProber(g)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refProber{g: g}
		for _, r := range ratios {
			a, b := r[0], r[1]
			v, err := p.probe(a, b, true)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.probe(a, b)
			if v.Admissible != want.feasible {
				t.Fatalf("seed %d Ξ=%d/%d: admissible=%v, reference %v", seed, a, b, v.Admissible, want.feasible)
			}
			if v.Admissible {
				admissible++
				scale := b * int64(g.NumEdges()+1)
				for n, d := range want.dist {
					if got := v.Assignment.Time(causality.NodeID(n)); !got.Equal(rat.New(d, scale)) {
						t.Fatalf("seed %d Ξ=%d/%d: node %d time %v, reference %v", seed, a, b, n, got, rat.New(d, scale))
					}
				}
				continue
			}
			violated++
			if got, wantSteps := v.Witness.Steps(), cycleSteps(refLabels(want.cycle)); !reflect.DeepEqual(got, wantSteps) {
				t.Fatalf("seed %d Ξ=%d/%d: witness %v, reference %v", seed, a, b, got, wantSteps)
			}
		}
	}
	if backward == 0 || admissible == 0 || violated == 0 {
		t.Fatalf("degenerate sweep: %d backward edges, %d admissible, %d violated probes", backward, admissible, violated)
	}
}
