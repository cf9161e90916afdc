package sim

import (
	"testing"

	"repro/internal/rat"
)

// engineTestConfigs is a set of deliberately heterogeneous configurations:
// different N (larger and smaller than each other, to exercise both growth
// and shrinking of the pooled arrays), different delay policies (uniform,
// growing, per-link, override), faults (crash, silent, Byzantine script,
// a stateful Byzantine adversary), topology restrictions, and staggered
// start times.
func engineTestConfigs() map[string]Config {
	broadcast := func(steps int) func(ProcessID) Process {
		return func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		}
	}
	return map[string]Config{
		"uniform-n6": {
			N: 6, Spawn: broadcast(8),
			Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Seed:   11, MaxEvents: 50000,
		},
		"growing-n3-faults": {
			N: 3, Spawn: broadcast(6),
			Faults: map[ProcessID]Fault{
				1: Crash(3),
				2: {CrashAfter: NeverCrash, Script: []ScriptedSend{
					{At: rat.New(5, 2), To: 0, Payload: "forged"},
				}},
			},
			Delays: GrowingDelay{Base: rat.One, Rate: rat.New(1, 10), Spread: rat.New(5, 4)},
			Seed:   7, MaxEvents: 20000,
		},
		"byzantine-n5": {
			N: 5, Spawn: broadcast(6),
			// Stateful: each adversary forges a countdown of four
			// broadcasts, so one reused across runs would fall silent.
			Faults: map[ProcessID]Fault{4: ByzantineFault(func() Process {
				left := 4
				return ProcessFunc(func(env *Env, msg Message) {
					if left > 0 {
						left--
						env.Broadcast(-left)
					}
				})
			})},
			Delays: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Seed:   5, MaxEvents: 20000,
		},
		"perlink-ring-n5": {
			N: 5, Spawn: broadcast(5),
			Delays: PerLinkDelay{
				Default: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
				Links: map[Link]DelayPolicy{
					{From: 0, To: 1}: ConstantDelay{D: rat.New(1, 2)},
				},
			},
			Topology: Ring(5),
			Seed:     3, MaxEvents: 20000,
		},
		"override-stagger-n4": {
			N: 4, Spawn: broadcast(7),
			Delays: OverrideDelay{
				Base: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Match: func(m Message) bool {
					v, ok := m.Payload.(int)
					return ok && v == 2
				},
				Override: UniformDelay{Min: rat.FromInt(4), Max: rat.FromInt(6)},
			},
			StartTimes: []Time{rat.Zero, rat.One, rat.New(1, 2), rat.FromInt(2)},
			Seed:       42, MaxEvents: 20000,
		},
	}
}

// TestEngineMatchesRun pins the wrapper contract: for every configuration,
// an Engine produces a trace bit-identical to the one-shot sim.Run.
func TestEngineMatchesRun(t *testing.T) {
	e := NewEngine()
	for name, cfg := range engineTestConfigs() {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		pooled, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: Engine.Run: %v", name, err)
		}
		if fresh.Trace.Hash() != pooled.Trace.Hash() {
			t.Errorf("%s: engine trace differs from sim.Run trace", name)
		}
		if fresh.Truncated != pooled.Truncated {
			t.Errorf("%s: truncated %v vs %v", name, fresh.Truncated, pooled.Truncated)
		}
	}
}

// TestEngineReuseHermetic is the pooling-hermeticity property: running
// config A, then any interfering config B, then A again on the same Engine
// yields a trace identical to a fresh run of A. Every ordered pair of the
// heterogeneous test configs is exercised, so the pooled arrays shrink,
// grow, and change delay policy, fault set, and topology between the two
// A runs.
func TestEngineReuseHermetic(t *testing.T) {
	cfgs := engineTestConfigs()
	for nameA, cfgA := range cfgs {
		fresh, err := Run(cfgA)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", nameA, err)
		}
		want := fresh.Trace.Hash()
		for nameB, cfgB := range cfgs {
			e := NewEngine()
			first, err := e.Run(cfgA)
			if err != nil {
				t.Fatalf("%s then %s: first A: %v", nameA, nameB, err)
			}
			if _, err := e.Run(cfgB); err != nil {
				t.Fatalf("%s then %s: B: %v", nameA, nameB, err)
			}
			second, err := e.Run(cfgA)
			if err != nil {
				t.Fatalf("%s then %s: second A: %v", nameA, nameB, err)
			}
			if h := first.Trace.Hash(); h != want {
				t.Errorf("A=%s B=%s: first engine run of A differs from fresh run", nameA, nameB)
			}
			if h := second.Trace.Hash(); h != want {
				t.Errorf("A=%s B=%s: A after B differs from fresh run of A (state leak)", nameA, nameB)
			}
		}
	}
}

// TestEngineShardModeSwitchHermetic extends the reuse-hermeticity suite
// across execution modes: running config A serial, then B sharded, then A
// serial again (and the mirrored parallel→serial→parallel order) on one
// pooled Engine must reproduce a fresh run of A exactly. The sharded
// mode's pooled state — shard queues, inboxes, window buffers, the
// lookahead — must be as invisible between runs as the serial pools are.
func TestEngineShardModeSwitchHermetic(t *testing.T) {
	cfgs := engineTestConfigs()
	for nameA, cfgA := range cfgs {
		for _, aShards := range []int{1, 4} {
			a := cfgA
			a.Shards = aShards
			fresh, err := Run(a)
			if err != nil {
				t.Fatalf("%s: fresh run: %v", nameA, err)
			}
			want := fresh.Trace.Hash()
			for nameB, cfgB := range cfgs {
				// B runs in the opposite mode of A, forcing a mode switch
				// both into and out of the sharded engine.
				b := cfgB
				if aShards == 1 {
					b.Shards = 4
				} else {
					b.Shards = 1
				}
				e := NewEngine()
				first, err := e.Run(a)
				if err != nil {
					t.Fatalf("A=%s(x%d) B=%s: first A: %v", nameA, aShards, nameB, err)
				}
				if _, err := e.Run(b); err != nil {
					t.Fatalf("A=%s(x%d) B=%s: B: %v", nameA, aShards, nameB, err)
				}
				second, err := e.Run(a)
				if err != nil {
					t.Fatalf("A=%s(x%d) B=%s: second A: %v", nameA, aShards, nameB, err)
				}
				if first.Trace.Hash() != want {
					t.Errorf("A=%s(x%d) B=%s: first engine run of A differs from fresh run", nameA, aShards, nameB)
				}
				if second.Trace.Hash() != want {
					t.Errorf("A=%s(x%d) B=%s: A after mode-switched B differs from fresh run (state leak)", nameA, aShards, nameB)
				}
			}
		}
	}
}

// TestEngineResultsDoNotAlias asserts that results of consecutive runs
// share no mutable state: the first run's trace must be unchanged (same
// hash) after the engine has executed a different configuration.
func TestEngineResultsDoNotAlias(t *testing.T) {
	cfgs := engineTestConfigs()
	e := NewEngine()
	a, err := e.Run(cfgs["uniform-n6"])
	if err != nil {
		t.Fatal(err)
	}
	before := a.Trace.Hash()
	if _, err := e.Run(cfgs["growing-n3-faults"]); err != nil {
		t.Fatal(err)
	}
	if a.Trace.Hash() != before {
		t.Error("first result's trace mutated by a later engine run")
	}
}

// TestEngineRecoversFromConfigError verifies an Engine stays usable after
// a rejected configuration.
func TestEngineRecoversFromConfigError(t *testing.T) {
	e := NewEngine()
	if _, err := e.Run(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	cfg := engineTestConfigs()["uniform-n6"]
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.Hash() != fresh.Trace.Hash() {
		t.Error("engine run after config error differs from fresh run")
	}
}
