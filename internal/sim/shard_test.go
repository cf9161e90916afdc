package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// shardCounts is the determinism grid's shard axis (ISSUE 10 acceptance:
// byte-identical traces for shards ∈ {1, 2, 4, 8} and vs serial).
var shardCounts = []int{1, 2, 4, 8}

// TestShardedMatchesSerial is the core byte-identity contract: for every
// heterogeneous engine config, every shard count produces exactly the
// serial engine's trace, truncation flag, and hash — on a fresh engine
// and on one pooled engine that hops between modes.
func TestShardedMatchesSerial(t *testing.T) {
	pooled := NewEngine()
	for name, cfg := range engineTestConfigs() {
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		want := serial.Trace.Hash()
		if serial.Shards != 1 {
			t.Fatalf("%s: serial run reports Shards = %d", name, serial.Shards)
		}
		for _, shards := range shardCounts {
			scfg := cfg
			scfg.Shards = shards
			for runner, eng := range map[string]*Engine{"fresh": NewEngine(), "pooled": pooled} {
				res, err := eng.Run(scfg)
				if err != nil {
					t.Fatalf("%s shards=%d %s: %v", name, shards, runner, err)
				}
				if h := res.Trace.Hash(); h != want {
					t.Errorf("%s shards=%d %s: trace hash %x, serial %x", name, shards, runner, h, want)
				}
				if res.Truncated != serial.Truncated {
					t.Errorf("%s shards=%d %s: truncated %v, serial %v", name, shards, runner, res.Truncated, serial.Truncated)
				}
			}
		}
	}
}

// TestShardedRetention pins retention equivalence under sharding: for each
// retention mode, the stream hash and totals at every shard count equal
// the serial run's, and the full-retention stream hash agrees with the
// bounded modes (the retention-equivalence property, on the sharded
// path).
func TestShardedRetention(t *testing.T) {
	base := Config{
		N: 64,
		Spawn: func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < 6 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:   UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Topology: Ring(64),
		Seed:     5,
	}
	rets := map[string]Retention{"full": {}, "window": RetainWindow(32), "none": RetainNone()}
	for mode, ret := range rets {
		cfg := base
		cfg.Retention = ret
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", mode, err)
		}
		for _, shards := range shardCounts[1:] {
			scfg := cfg
			scfg.Shards = shards
			res, err := Run(scfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", mode, shards, err)
			}
			if res.Shards != shards {
				t.Fatalf("%s shards=%d: ran with Shards = %d (unexpected fallback)", mode, shards, res.Shards)
			}
			if res.Trace.StreamHash() != serial.Trace.StreamHash() {
				t.Errorf("%s shards=%d: stream hash differs from serial", mode, shards)
			}
			if res.Trace.TotalEvents() != serial.Trace.TotalEvents() || res.Trace.TotalMsgs() != serial.Trace.TotalMsgs() {
				t.Errorf("%s shards=%d: totals %d/%d, serial %d/%d", mode, shards,
					res.Trace.TotalEvents(), res.Trace.TotalMsgs(), serial.Trace.TotalEvents(), serial.Trace.TotalMsgs())
			}
		}
	}
}

// TestShardedNetFaults drives the message-level fault plane (drop, dup,
// spike, a transient partition) and crash-recovery (durable, both
// in-flight policies) through the sharded engine: every RNG draw happens
// at the serial merge, so the faulty traces must be byte-identical too.
func TestShardedNetFaults(t *testing.T) {
	spawn := func(ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			if env.StepIndex() < 8 {
				env.Broadcast(env.StepIndex())
			}
		})
	}
	cfgs := map[string]Config{
		"lossy": {
			N: 24, Spawn: spawn,
			Delays: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Net: &NetFaults{
				Drop: 0.15, Dup: 0.1,
				Spike: SpikeRule{Prob: 0.2, Extra: rat.FromInt(3)},
			},
			Topology: Ring(24), Seed: 9,
		},
		"partition": {
			N: 16, Spawn: spawn,
			Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Net: &NetFaults{
				Partitions: []Partition{{
					From: rat.FromInt(2), Until: rat.FromInt(5),
					A: []ProcessID{0, 1, 2, 3, 4, 5, 6, 7},
				}},
			},
			Topology: Ring(16), Seed: 13,
		},
		"recovery-hold": {
			N: 12, Spawn: spawn,
			Faults: map[ProcessID]Fault{
				3: {CrashAfter: NeverCrash, Inflight: InflightHold,
					Down: []Interval{{From: rat.FromInt(2), Until: rat.FromInt(6)}}},
				7: {CrashAfter: NeverCrash, Inflight: InflightDrop,
					Down: []Interval{{From: rat.One, Until: rat.FromInt(4)}}},
			},
			Delays:   UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Topology: Ring(12), Seed: 21,
		},
	}
	for name, cfg := range cfgs {
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		want := serial.Trace.Hash()
		for _, shards := range shardCounts[1:] {
			scfg := cfg
			scfg.Shards = shards
			res, err := Run(scfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if res.Shards != shards {
				t.Fatalf("%s shards=%d: ran with Shards = %d (unexpected fallback)", name, shards, res.Shards)
			}
			if res.Trace.Hash() != want {
				t.Errorf("%s shards=%d: trace differs from serial", name, shards)
			}
		}
	}
}

// TestShardedTruncation pins the truncation byte-identity: a MaxEvents
// budget that lands mid-run (the serial-tail path) and a MaxTime horizon
// must stop a sharded run at exactly the serial engine's event.
func TestShardedTruncation(t *testing.T) {
	base := Config{
		N: 50,
		Spawn: func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < 20 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:   UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Topology: Ring(50),
		Seed:     17,
	}
	cases := map[string]func(*Config){
		"max-events": func(c *Config) { c.MaxEvents = 777 },
		"max-time":   func(c *Config) { c.MaxTime = rat.FromInt(5) },
		"both":       func(c *Config) { c.MaxEvents = 500; c.MaxTime = rat.FromInt(4) },
	}
	for name, tweak := range cases {
		cfg := base
		tweak(&cfg)
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if !serial.Truncated {
			t.Fatalf("%s: serial run did not truncate; the case tests nothing", name)
		}
		for _, shards := range []int{2, 8} {
			scfg := cfg
			scfg.Shards = shards
			res, err := Run(scfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if !res.Truncated {
				t.Errorf("%s shards=%d: not truncated", name, shards)
			}
			if res.Trace.Hash() != serial.Trace.Hash() {
				t.Errorf("%s shards=%d: truncated trace differs from serial", name, shards)
			}
			if res.Trace.TotalEvents() != serial.Trace.TotalEvents() {
				t.Errorf("%s shards=%d: %d events, serial %d", name, shards,
					res.Trace.TotalEvents(), serial.Trace.TotalEvents())
			}
		}
	}
}

// TestShardedFallbacks pins every serial-fallback gate: configurations
// the conservative window cannot execute must run serially
// (Result.Shards == 1) and still produce the serial trace. The
// zero-lookahead case — a delay policy with no positive minimum — is the
// ISSUE's named CI case.
func TestShardedFallbacks(t *testing.T) {
	spawn := func(ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			if env.StepIndex() < 4 {
				env.Broadcast(env.StepIndex())
			}
		})
	}
	base := Config{
		N: 8, Spawn: spawn,
		Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   3, Shards: 4,
	}
	cases := map[string]func(*Config){
		"zero-bound-constant": func(c *Config) { c.Delays = ConstantDelay{D: rat.Zero} },
		"zero-bound-uniform":  func(c *Config) { c.Delays = UniformDelay{Min: rat.Zero, Max: rat.One} },
		"zero-bound-override": func(c *Config) {
			c.Delays = OverrideDelay{
				Base:     UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
				Match:    func(m Message) bool { return false },
				Override: ConstantDelay{D: rat.Zero},
			}
		},
		"opaque-policy": func(c *Config) {
			c.Delays = DelayFunc(func(m Message, rng *rand.Rand) Time { return rat.One })
		},
		"until":   func(c *Config) { c.Until = func([]Process) bool { return false } },
		"monitor": func(c *Config) { c.Monitor = func(*Trace) error { return nil } },
		"amnesia": func(c *Config) {
			c.Faults = map[ProcessID]Fault{2: {CrashAfter: NeverCrash, Recovery: RecoverAmnesia,
				Down: []Interval{{From: rat.One, Until: rat.FromInt(2)}}}}
		},
		"negative-start": func(c *Config) {
			st := make([]Time, c.N)
			st[0] = rat.FromInt(-1)
			c.StartTimes = st
		},
		"shards-one":  func(c *Config) { c.Shards = 1 },
		"shards-zero": func(c *Config) { c.Shards = 0 },
	}
	for name, tweak := range cases {
		cfg := base
		tweak(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Shards != 1 {
			t.Errorf("%s: ran sharded (Shards = %d), want serial fallback", name, res.Shards)
		}
		serial := cfg
		serial.Shards = 0
		want, err := Run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if res.Trace.Hash() != want.Trace.Hash() {
			t.Errorf("%s: fallback trace differs from serial", name)
		}
	}
	// Sanity: the base config itself (positive bound, no callbacks) does
	// NOT fall back — otherwise every case above passes vacuously.
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Fatalf("eligible base config ran with Shards = %d, want 4", res.Shards)
	}
}

// TestShardedQueueMatchesSerial: per-shard calendar queues, each sized to
// its shard's population, reproduce the serial engine's trace.
func TestShardedQueueMatchesSerial(t *testing.T) {
	cfg := Config{
		N: 40,
		Spawn: func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < 6 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:   GrowingDelay{Base: rat.One, Rate: rat.New(1, 20), Spread: rat.New(6, 5)},
		Topology: Torus(8, 5),
		Seed:     23,
	}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Trace.Hash()
	for _, shards := range []int{2, 4} {
		scfg := cfg
		scfg.Shards = shards
		res, err := Run(scfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Shards != shards {
			t.Fatalf("shards=%d: ran with Shards = %d", shards, res.Shards)
		}
		if res.Trace.Hash() != want {
			t.Errorf("shards=%d: trace differs from serial", shards)
		}
	}
}

// TestShardRanges pins the partitioner's contract: p contiguous,
// non-empty, exhaustive ranges for any n >= p, with and without a CSR
// topology (degree-weighted cuts).
func TestShardRanges(t *testing.T) {
	check := func(name string, n, p int, links *Links) {
		t.Helper()
		bounds := shardRanges(n, p, links)
		if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != n {
			t.Fatalf("%s: bounds %v do not span [0, %d]", name, bounds, n)
		}
		for i := 1; i <= p; i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("%s: empty shard %d in %v", name, i-1, bounds)
			}
		}
	}
	check("uniform", 100, 8, nil)
	check("n-equals-p", 8, 8, nil)
	check("ring", 1000, 8, Ring(1000))
	check("scalefree", 500, 4, ScaleFree(500, 2, 1))
	check("hubs-first", 64, 8, ScaleFree(64, 4, 7))
}

// TestShardedPanicPropagates verifies a panic inside a process step on a
// worker shard surfaces on the Run caller, and the engine remains usable
// afterwards.
func TestShardedPanicPropagates(t *testing.T) {
	e := NewEngine()
	cfg := Config{
		N: 8,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if p == 7 && env.StepIndex() == 1 {
					panic("boom")
				}
				if env.StepIndex() < 4 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   1, Shards: 4,
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("worker panic did not propagate")
			} else if fmt.Sprint(r) != "boom" {
				t.Errorf("panic = %v, want boom", r)
			}
		}()
		_, _ = e.Run(cfg)
	}()
	// The engine must still run cleanly after the aborted sharded run.
	clean := engineTestConfigs()["uniform-n6"]
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.Hash() != fresh.Trace.Hash() {
		t.Error("engine run after sharded panic differs from fresh run")
	}
}

// TestMinDelayBound pins the lookahead derivation per policy class.
func TestMinDelayBound(t *testing.T) {
	half := rat.New(1, 2)
	cases := []struct {
		name string
		p    DelayPolicy
		want Time
		ok   bool
	}{
		{"constant", ConstantDelay{D: half}, half, true},
		{"constant-zero", ConstantDelay{D: rat.Zero}, rat.Zero, true},
		{"constant-negative", ConstantDelay{D: rat.FromInt(-1)}, rat.Zero, false},
		{"uniform", UniformDelay{Min: rat.One, Max: rat.FromInt(2)}, rat.One, true},
		{"uniform-inverted", UniformDelay{Min: rat.FromInt(2), Max: rat.One}, rat.One, true},
		{"growing", GrowingDelay{Base: half, Rate: rat.New(1, 10), Spread: rat.New(6, 5)}, half, true},
		{"growing-negative-rate", GrowingDelay{Base: half, Rate: rat.FromInt(-1)}, rat.Zero, false},
		{"perlink", PerLinkDelay{
			Default: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Links:   map[Link]DelayPolicy{{0, 1}: ConstantDelay{D: half}},
		}, half, true},
		{"override", OverrideDelay{
			Base:     UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Override: ConstantDelay{D: half},
		}, half, true},
		{"opaque", DelayFunc(func(Message, *rand.Rand) Time { return rat.One }), rat.Zero, false},
	}
	for _, c := range cases {
		// The engine sees compiled policies; the bound must agree on both.
		for _, variant := range []DelayPolicy{c.p, compileDelays(c.p)} {
			got, ok := minDelayBound(variant)
			if ok != c.ok {
				t.Errorf("%s: ok = %v, want %v", c.name, ok, c.ok)
				continue
			}
			if ok && !got.Equal(c.want) {
				t.Errorf("%s: bound = %v, want %v", c.name, got, c.want)
			}
		}
	}
}
