package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

// causallyOrdered reports whether every message the execution graph keeps
// (a correct sender's, sent at a step) is received after its sending
// event in trace order — the precondition of causality.Builder.
func causallyOrdered(tr *sim.Trace) bool {
	seen := make([]int, tr.N)
	for _, ev := range tr.Events {
		m := tr.Msgs[ev.Trigger]
		if m.SendStep >= 0 && !tr.Faulty[m.From] && m.SendStep >= seen[m.From] {
			return false
		}
		seen[ev.Proc]++
	}
	return true
}

// FuzzReadJSON feeds arbitrary bytes to the trace reader, the external
// input boundary of cmd/abccheck. ReadJSON must return an error or a
// trace both checkers can consume: the batch check (causality.Build +
// check.ABC) and the incremental one must not panic, and they must agree
// on every trace in causal delivery order. On traces out of that order
// the incremental checker must report its precondition as an error.
func FuzzReadJSON(f *testing.F) {
	for _, tc := range sim.MalformedTraces {
		f.Add([]byte(tc.JSON))
	}
	res, err := sim.Run(sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			steps := 0
			return sim.ProcessFunc(func(env *sim.Env, m sim.Message) {
				if steps++; steps <= 3 {
					env.Broadcast(steps)
				}
			})
		},
		Faults: map[sim.ProcessID]sim.Fault{2: sim.Crash(2)},
		Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)},
		Seed:   1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	xi := rat.New(3, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := sim.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		bv, berr := check.ABC(causality.Build(tr, causality.Options{}), xi)
		inc, err := check.NewIncremental(tr, xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		iv, ierr := inc.Step()
		if !causallyOrdered(tr) {
			if ierr == nil {
				t.Fatal("incremental checker accepted a trace out of causal delivery order")
			}
			return
		}
		if (berr == nil) != (ierr == nil) {
			t.Fatalf("batch error %v, incremental error %v", berr, ierr)
		}
		if berr == nil && bv.Admissible != iv.Admissible {
			t.Fatalf("batch admissible=%v, incremental admissible=%v", bv.Admissible, iv.Admissible)
		}
	})
}

// FuzzParseTopology feeds arbitrary specs to the topology parser, the
// external input behind every topology= workload parameter. For any n in
// [1, 256] it must return an error, the fully connected nil topology, or
// links over exactly n processes — never panic or exhaust memory.
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{
		"full", "ring", "torus", "torus/2x4", "regular/3", "scalefree/2", "islands/4",
		"torus/3x6148914691236517208", "scalefree/1000000000000", "regular/-1", "islands/9",
	} {
		f.Add(spec, 8, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, n int, seed int64) {
		n = 1 + int(uint(n)%256)
		l, err := sim.ParseTopology(spec, n, seed)
		if err == nil && l != nil && l.N() != n {
			t.Fatalf("ParseTopology(%q, %d) spans %d processes", spec, n, l.N())
		}
	})
}
