package clocksync

import (
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

// Direct unit tests for the Byzantine adversaries: before this file their
// behavior was pinned only indirectly, through the E-experiments that use
// them.

// sink is a correct process that never sends.
func sink() sim.Process {
	return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {})
}

// adversaryTicks runs one adversary as the single Byzantine process among
// sinks and returns, per computing step of the adversary, the tick values
// it sent (in send order).
func adversaryTicks(t *testing.T, n int, adv sim.Process) [][]int {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N:         n,
		Spawn:     func(sim.ProcessID) sim.Process { return sink() },
		Faults:    map[sim.ProcessID]sim.Fault{0: sim.ByzantineFault(func() sim.Process { return adv })},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      1,
		MaxEvents: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	bySend := make(map[int][]int)
	maxStep := -1
	for _, m := range res.Trace.Msgs {
		if m.IsWakeup() || m.From != 0 {
			continue
		}
		tick, ok := m.Payload.(Tick)
		if !ok {
			continue
		}
		bySend[m.SendStep] = append(bySend[m.SendStep], tick.K)
		if m.SendStep > maxStep {
			maxStep = m.SendStep
		}
	}
	out := make([][]int, maxStep+1)
	for step, ks := range bySend {
		out[step] = ks
	}
	return out
}

func TestRusherBroadcastsAheadUntilBudget(t *testing.T) {
	const n, budget, ahead = 2, 3, 5
	steps := adversaryTicks(t, n, &Rusher{Ahead: ahead, Budget: budget})
	active := 0
	for _, ks := range steps {
		if len(ks) == 0 {
			continue
		}
		active++
		if len(ks) != n {
			t.Errorf("rusher broadcast reached %d processes, want %d", len(ks), n)
		}
		want := active * ahead
		for _, k := range ks {
			if k != want {
				t.Errorf("rusher step %d sent tick %d, want %d", active, k, want)
			}
		}
	}
	if active != budget {
		t.Errorf("rusher took %d sending steps, budget is %d", active, budget)
	}
}

func TestEquivocatorSendsDifferentTicksPerRecipient(t *testing.T) {
	steps := adversaryTicks(t, 3, &Equivocator{Seed: 7, Budget: 4})
	split := false
	sending := 0
	for _, ks := range steps {
		if len(ks) == 0 {
			continue
		}
		sending++
		for _, k := range ks[1:] {
			if k != ks[0] {
				split = true
			}
		}
	}
	if sending != 4 {
		t.Errorf("equivocator took %d sending steps, budget is 4", sending)
	}
	if !split {
		t.Error("equivocator never sent different ticks to different processes")
	}

	// Deterministic per seed, distinct across seeds.
	flatten := func(steps [][]int) []int {
		var out []int
		for _, ks := range steps {
			out = append(out, ks...)
		}
		return out
	}
	a := flatten(adversaryTicks(t, 3, &Equivocator{Seed: 9, Budget: 4}))
	b := flatten(adversaryTicks(t, 3, &Equivocator{Seed: 9, Budget: 4}))
	c := flatten(adversaryTicks(t, 3, &Equivocator{Seed: 10, Budget: 4}))
	if len(a) == 0 {
		t.Fatal("equivocator sent nothing")
	}
	same := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Errorf("equivocator not deterministic for one seed:\n%v\n%v", a, b)
	}
	if same(a, c) {
		t.Errorf("distinct seeds produced identical tick sequences: %v", a)
	}
}

func TestLaggardReplaysTickZero(t *testing.T) {
	steps := adversaryTicks(t, 2, &Laggard{Budget: 3})
	sending := 0
	for _, ks := range steps {
		for _, k := range ks {
			sending++
			if k != 0 {
				t.Errorf("laggard sent tick %d, want 0", k)
			}
		}
	}
	if sending == 0 {
		t.Error("laggard sent nothing")
	}
}

// TestMalformedSenderIsIgnored pins the input validation of Algorithm 1:
// negative ticks and junk payloads from a Byzantine process neither crash
// a correct process nor advance its clock.
func TestMalformedSenderIsIgnored(t *testing.T) {
	var correct *Proc
	res, err := sim.Run(sim.Config{
		N: 2,
		Spawn: func(p sim.ProcessID) sim.Process {
			// Thresholds of a 4-process system: no single sender can ever
			// form a quorum, so only malformed input reaches the process.
			pr := New(4, 1)
			if p == 1 {
				correct = pr
			}
			return pr
		},
		Faults:    map[sim.ProcessID]sim.Fault{0: sim.ByzantineFault(func() sim.Process { return &MalformedSender{Budget: 5} })},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      2,
		MaxEvents: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("run truncated: malformed traffic never quiesced")
	}
	if got := correct.Clock(); got != 0 {
		t.Errorf("correct clock moved to %d on malformed input alone", got)
	}
}

// TestCorrectClocksProgressUnderEachAdversary runs Algorithm 1 to a
// target against every adversary kind individually: none may prevent
// progress or real-time precision.
func TestCorrectClocksProgressUnderEachAdversary(t *testing.T) {
	const n, f, target = 4, 1, 5
	advs := map[string]func() sim.Process{
		"rusher":      func() sim.Process { return &Rusher{Ahead: 5, Budget: 60} },
		"equivocator": func() sim.Process { return &Equivocator{Seed: 3, Budget: 60} },
		"laggard":     func() sim.Process { return &Laggard{Budget: 60} },
		"malformed":   func() sim.Process { return &MalformedSender{Budget: 60} },
	}
	for name, adv := range advs {
		t.Run(name, func(t *testing.T) {
			faults := map[sim.ProcessID]sim.Fault{n - 1: sim.ByzantineFault(adv)}
			res, err := sim.Run(sim.Config{
				N:         n,
				Spawn:     Spawner(n, f),
				Faults:    faults,
				Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Seed:      4,
				Until:     AllReached(target, faults),
				MaxEvents: 100000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("truncated before reaching the target")
			}
			if err := CheckProgress(res.Trace, target); err != nil {
				t.Errorf("progress: %v", err)
			}
			if err := CheckMonotone(res.Trace); err != nil {
				t.Errorf("monotonicity: %v", err)
			}
		})
	}
}

// TestAdversariesAssortment pins the deterministic assortment used by the
// experiments: f entries on the top process IDs, cycling through the four
// adversary kinds, all Byzantine.
func TestAdversariesAssortment(t *testing.T) {
	const n, f = 13, 4
	faults := Adversaries(n, f, 9)
	if len(faults) != f {
		t.Fatalf("got %d faults, want %d", len(faults), f)
	}
	wantKinds := []any{
		&Equivocator{}, &Rusher{}, &Laggard{}, &MalformedSender{},
	}
	for i := 0; i < f; i++ {
		id := sim.ProcessID(n - 1 - i)
		fault, ok := faults[id]
		if !ok {
			t.Fatalf("no fault for process %d", id)
		}
		if fault.Byzantine == nil {
			t.Fatalf("process %d fault is not Byzantine", id)
		}
		adv := fault.Byzantine()
		switch wantKinds[i%4].(type) {
		case *Equivocator:
			if _, ok := adv.(*Equivocator); !ok {
				t.Errorf("process %d: got %T, want *Equivocator", id, adv)
			}
		case *Rusher:
			if _, ok := adv.(*Rusher); !ok {
				t.Errorf("process %d: got %T, want *Rusher", id, adv)
			}
		case *Laggard:
			if _, ok := adv.(*Laggard); !ok {
				t.Errorf("process %d: got %T, want *Laggard", id, adv)
			}
		case *MalformedSender:
			if _, ok := adv.(*MalformedSender); !ok {
				t.Errorf("process %d: got %T, want *MalformedSender", id, adv)
			}
		}
	}
}

// TestAdversariesShardedMatchesSerial runs the Byzantine assortment with
// no Until predicate on the sharded engine. Each run builds its own
// adversaries, so they step in the parallel drain like correct
// processes, and the trace must equal the serial one at every shard
// count.
func TestAdversariesShardedMatchesSerial(t *testing.T) {
	const n, f = 7, 2
	cfg := sim.Config{
		N:       n,
		Spawn:   Spawner(n, f),
		Faults:  Adversaries(n, f, 5),
		Delays:  sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:    3,
		MaxTime: rat.FromInt(30),
	}
	serial, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		cfg.Shards = shards
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards > 1 && res.Shards <= 1 {
			t.Fatalf("shards=%d: fell back to the serial engine", shards)
		}
		if res.Trace.Hash() != serial.Trace.Hash() {
			t.Errorf("shards=%d: trace differs from the serial run (%d vs %d events)",
				shards, res.Trace.TotalEvents(), serial.Trace.TotalEvents())
		}
	}
}
