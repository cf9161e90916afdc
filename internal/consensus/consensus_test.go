package consensus

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/sim"
)

// runConsensus runs a consensus app over lock-step rounds and returns the
// deciders (nil for faulty slots) plus the trace.
func runConsensus(t *testing.T, n, f, rounds int, inputs []int,
	mkApp func(p sim.ProcessID) lockstep.App,
	faults map[sim.ProcessID]sim.Fault, seed int64) ([]Decider, *sim.Trace) {
	t.Helper()
	m := core.MustModel(rat.FromInt(2))
	res, err := sim.Run(sim.Config{
		N:         n,
		Spawn:     lockstep.Spawner(m, n, f, mkApp),
		Faults:    faults,
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      seed,
		Until:     lockstep.AllReachedRound(rounds, faults),
		MaxEvents: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("truncated before deciding")
	}
	apps := make([]Decider, n)
	for id, pr := range res.Procs {
		if _, bad := faults[sim.ProcessID(id)]; bad {
			continue
		}
		apps[id] = pr.(*lockstep.Proc).App().(Decider)
	}
	return apps, res.Trace
}

func spec(inputs []int, faults map[sim.ProcessID]sim.Fault) Spec {
	init := make(map[sim.ProcessID]int, len(inputs))
	for i, v := range inputs {
		init[sim.ProcessID(i)] = v
	}
	return Spec{Initial: init, Faults: faults}
}

func TestFloodSetCrash(t *testing.T) {
	cases := []struct {
		name   string
		n, f   int
		inputs []int
		faults map[sim.ProcessID]sim.Fault
		seed   int64
	}{
		{"fault-free", 4, 1, []int{3, 1, 2, 5}, nil, 1},
		{"one crash", 4, 1, []int{3, 1, 2, 5}, map[sim.ProcessID]sim.Fault{2: sim.Crash(3)}, 2},
		// The lock-step substrate is Algorithm 1, so n >= 3f+1 is needed
		// even though FloodSet alone would tolerate any n > f crashes.
		{"two crashes", 7, 2, []int{4, 4, 1, 2, 9, 4, 8},
			map[sim.ProcessID]sim.Fault{0: sim.Crash(2), 4: sim.Crash(5)}, 3},
		{"unanimous", 4, 1, []int{7, 7, 7, 7}, map[sim.ProcessID]sim.Fault{1: sim.Crash(4)}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apps, _ := runConsensus(t, tc.n, tc.f, FloodSetRounds(tc.f), tc.inputs,
				func(p sim.ProcessID) lockstep.App { return NewFloodSet(tc.f, tc.inputs[p]) },
				tc.faults, tc.seed)
			if err := spec(tc.inputs, tc.faults).Check(apps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEIGByzantine(t *testing.T) {
	m := core.MustModel(rat.FromInt(2))
	cases := []struct {
		name   string
		n, f   int
		inputs []int
		mkByz  func(n, f int, id sim.ProcessID) sim.Process
		seed   int64
	}{
		{
			"fault-free", 4, 1, []int{1, 0, 1, 0},
			nil, 1,
		},
		{
			"silent", 4, 1, []int{1, 0, 1, 1},
			func(n, f int, id sim.ProcessID) sim.Process { return nil }, // silent via Crash
			2,
		},
		{
			"equivocator", 4, 1, []int{1, 1, 0, 1},
			func(n, f int, id sim.ProcessID) sim.Process {
				return NewTwoFaced(m, n, f, SplitEIG(n, id, 0, 1))
			},
			3,
		},
		{
			"n7f2 mixed", 7, 2, []int{1, 0, 1, 0, 1, 0, 1},
			func(n, f int, id sim.ProcessID) sim.Process {
				if id%2 == 0 {
					return nil
				}
				return NewTwoFaced(m, n, f, SplitEIG(n, id, 0, 1))
			},
			4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := map[sim.ProcessID]sim.Fault{}
			for i := 0; i < tc.f; i++ {
				id := sim.ProcessID(tc.n - 1 - i)
				if tc.mkByz == nil {
					continue
				}
				if tc.mkByz(tc.n, tc.f, id) != nil {
					faults[id] = sim.ByzantineFault(func() sim.Process { return tc.mkByz(tc.n, tc.f, id) })
				} else {
					faults[id] = sim.Silent()
				}
			}
			apps, _ := runConsensus(t, tc.n, tc.f, EIGRounds(tc.f), tc.inputs,
				func(p sim.ProcessID) lockstep.App { return NewEIG(tc.n, tc.f, tc.inputs[p]) },
				faults, tc.seed)
			if err := spec(tc.inputs, faults).Check(apps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEIGUnanimousValidityUnderAttack(t *testing.T) {
	// All correct processes start with 1; the equivocator must not be able
	// to force 0.
	m := core.MustModel(rat.FromInt(2))
	n, f := 4, 1
	inputs := []int{1, 1, 1, 1}
	faults := map[sim.ProcessID]sim.Fault{
		3: sim.ByzantineFault(func() sim.Process { return NewTwoFaced(m, n, f, SplitEIG(n, 3, 0, 0)) }),
	}
	apps, _ := runConsensus(t, n, f, EIGRounds(f), inputs,
		func(p sim.ProcessID) lockstep.App { return NewEIG(n, f, inputs[p]) },
		faults, 5)
	if err := spec(inputs, faults).Check(apps); err != nil {
		t.Fatal(err)
	}
	for id, app := range apps {
		if app != nil && app.Decision() != 1 {
			t.Fatalf("p%d decided %d despite unanimous correct input 1", id, app.Decision())
		}
	}
}

func TestPhaseKingByzantine(t *testing.T) {
	m := core.MustModel(rat.FromInt(2))
	cases := []struct {
		name   string
		n, f   int
		inputs []int
		seed   int64
	}{
		{"n5f1", 5, 1, []int{1, 0, 1, 0, 1}, 1},
		{"n9f2", 9, 2, []int{1, 0, 1, 0, 1, 0, 1, 1, 0}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := map[sim.ProcessID]sim.Fault{}
			for i := 0; i < tc.f; i++ {
				id := sim.ProcessID(tc.n - 1 - i)
				faults[id] = sim.ByzantineFault(func() sim.Process { return NewTwoFaced(m, tc.n, tc.f, SplitVotes(0, 1)) })
			}
			apps, _ := runConsensus(t, tc.n, tc.f, PhaseKingRounds(tc.f), tc.inputs,
				func(p sim.ProcessID) lockstep.App { return NewPhaseKing(tc.n, tc.f, tc.inputs[p]) },
				faults, tc.seed)
			if err := spec(tc.inputs, faults).Check(apps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPhaseKingResilienceGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPhaseKing(4, 1, 0) did not panic (needs n > 4f)")
		}
	}()
	NewPhaseKing(4, 1, 0)
}

func TestConsensusExecutionAdmissible(t *testing.T) {
	// The whole stack — consensus over lock-step over clock sync — still
	// produces ABC-admissible executions.
	n, f := 4, 1
	inputs := []int{1, 0, 0, 1}
	apps, trace := runConsensus(t, n, f, EIGRounds(f), inputs,
		func(p sim.ProcessID) lockstep.App { return NewEIG(n, f, inputs[p]) },
		nil, 6)
	if err := spec(inputs, nil).Check(apps); err != nil {
		t.Fatal(err)
	}
	g := causality.Build(trace, causality.Options{})
	v, err := check.ABC(g, rat.FromInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("consensus execution not admissible: %v", v.Witness)
	}
}

func TestSpecDetectsViolations(t *testing.T) {
	s := Spec{Initial: map[sim.ProcessID]int{0: 1, 1: 1}}
	mk := func(decided bool, v int) Decider { return &fakeDecider{decided, v} }
	if err := s.Check([]Decider{mk(true, 1), mk(true, 0)}); err == nil {
		t.Error("disagreement not caught")
	}
	if err := s.Check([]Decider{mk(true, 1), mk(false, 0)}); err == nil {
		t.Error("non-termination not caught")
	}
	if err := s.Check([]Decider{mk(true, 0), mk(true, 0)}); err == nil {
		t.Error("validity violation not caught")
	}
	if err := s.Check([]Decider{mk(true, 1), mk(true, 1)}); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
}

type fakeDecider struct {
	d bool
	v int
}

func (f *fakeDecider) Decided() bool { return f.d }
func (f *fakeDecider) Decision() int { return f.v }

func TestSpecCheckEdgeCases(t *testing.T) {
	mk := func(decided bool, v int) Decider { return &fakeDecider{decided, v} }
	byz := map[sim.ProcessID]sim.Fault{0: sim.Silent(), 1: sim.Silent()}

	t.Run("zero correct", func(t *testing.T) {
		s := Spec{Initial: map[sim.ProcessID]int{0: 1, 1: 0}, Faults: byz}
		err := s.Check([]Decider{nil, nil})
		if err == nil || err.Error() != "consensus: no correct processes" {
			t.Errorf("got %v, want the no-correct-processes error", err)
		}
	})
	t.Run("single correct decides", func(t *testing.T) {
		s := Spec{Initial: map[sim.ProcessID]int{0: 1, 1: 0, 2: 7}, Faults: byz}
		if err := s.Check([]Decider{nil, nil, mk(true, 7)}); err != nil {
			t.Errorf("single deciding correct process rejected: %v", err)
		}
		if err := s.Check([]Decider{nil, nil, mk(false, 0)}); err == nil {
			t.Error("single non-deciding correct process accepted")
		}
	})
	t.Run("byzantine entries in Initial ignored", func(t *testing.T) {
		// Faulty inputs are present in Initial (the registry reconstructs
		// inputs for every ID) but must not weaken unanimity: the correct
		// processes are unanimous on 1, so deciding 0 is a violation even
		// though the Byzantine entries held 0.
		s := Spec{
			Initial: map[sim.ProcessID]int{0: 0, 1: 0, 2: 1, 3: 1},
			Faults:  byz,
		}
		if err := s.Check([]Decider{nil, nil, mk(true, 0), mk(true, 0)}); err == nil {
			t.Error("validity violation masked by Byzantine inputs")
		}
		if err := s.Check([]Decider{nil, nil, mk(true, 1), mk(true, 1)}); err != nil {
			t.Errorf("valid outcome rejected: %v", err)
		}
	})
	t.Run("agreement names lowest pair", func(t *testing.T) {
		s := Spec{Initial: map[sim.ProcessID]int{0: 5, 1: 5, 2: 5}}
		err := s.Check([]Decider{mk(true, 5), mk(true, 5), mk(true, 4)})
		want := "consensus: agreement violated: p0 decided 5, p2 decided 4"
		if err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	})
}

// TestSpecCheckDeterministicErrors pins the satellite-1 fix: Check
// examines processes in ascending ID order and names the lowest
// disagreeing pair, so identical inputs give byte-identical error
// strings on every call — the property the registry conformance suite
// relies on when comparing fleet CheckErr text across worker counts.
func TestSpecCheckDeterministicErrors(t *testing.T) {
	mk := func(v int) Decider { return &fakeDecider{true, v} }
	s := Spec{Initial: map[sim.ProcessID]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}}
	apps := []Decider{mk(1), mk(0), mk(1), mk(0), mk(2)}
	want := "consensus: agreement violated: p0 decided 1, p1 decided 0"
	for i := 0; i < 100; i++ {
		err := s.Check(apps)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
	// Validity error is equally pinned.
	sv := Spec{Initial: map[sim.ProcessID]int{0: 3, 1: 3}}
	wantV := "consensus: validity violated: unanimous input 3 but decided 0"
	for i := 0; i < 100; i++ {
		err := sv.Check([]Decider{mk(0), mk(0)})
		if err == nil || err.Error() != wantV {
			t.Fatalf("call %d: got %v, want %q", i, err, wantV)
		}
	}
}

// TestAdversaryDeterministicPerSeed pins that the Byzantine consensus
// adversaries produce bit-identical executions per seed: TwoFaced with
// both split payloads, across each supported algorithm.
func TestAdversaryDeterministicPerSeed(t *testing.T) {
	m := core.MustModel(rat.FromInt(2))
	run := func(seed int64, algo string) uint64 {
		n, f := 5, 1
		inputs := []int{1, 0, 1, 0, 1}
		var byz func() sim.Process
		var mkApp func(p sim.ProcessID) lockstep.App
		rounds := 0
		switch algo {
		case "eig":
			byz = func() sim.Process { return NewTwoFaced(m, n, f, SplitEIG(n, 4, 0, 1)) }
			mkApp = func(p sim.ProcessID) lockstep.App { return NewEIG(n, f, inputs[p]) }
			rounds = EIGRounds(f)
		case "phaseking":
			byz = func() sim.Process { return NewTwoFaced(m, n, f, SplitVotes(0, 1)) }
			mkApp = func(p sim.ProcessID) lockstep.App { return NewPhaseKing(n, f, inputs[p]) }
			rounds = PhaseKingRounds(f)
		}
		faults := map[sim.ProcessID]sim.Fault{4: sim.ByzantineFault(byz)}
		_, trace := runConsensus(t, n, f, rounds, inputs, mkApp, faults, seed)
		return trace.Hash()
	}
	for _, algo := range []string{"eig", "phaseking"} {
		for seed := int64(1); seed <= 3; seed++ {
			a, b := run(seed, algo), run(seed, algo)
			if a != b {
				t.Errorf("%s seed %d: trace hashes differ (%016x vs %016x)", algo, seed, a, b)
			}
		}
		if run(1, algo) == run(2, algo) {
			t.Errorf("%s: seeds 1 and 2 produced identical traces — seed not applied", algo)
		}
	}
}
