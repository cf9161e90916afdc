package all_test

import (
	"fmt"
	"testing"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// TestFaultGrammarMatchesHandBuiltFaults pins the fault convention the
// paper's algorithms are reproduced under: the shared grammar's
// faults=byz/f faultseed=S builds exactly the Byzantine map of
// clocksync.Adversaries(n, f, S), and faults=crash/K exactly K processes
// silent from the start, both claiming IDs n-1 downward. The registry job
// must produce the same digests as a config built by hand from the
// package-level constructors.
func TestFaultGrammarMatchesHandBuiltFaults(t *testing.T) {
	delays := sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)}
	silent := func(n, k int) map[sim.ProcessID]sim.Fault {
		m := make(map[sim.ProcessID]sim.Fault, k)
		for i := 0; i < k; i++ {
			m[sim.ProcessID(n-1-i)] = sim.Silent()
		}
		return m
	}
	type tc struct {
		source string
		n, f   int
		params map[string]string
		build  func(n, f int, seed int64) (sim.Config, error)
	}
	clockSync := func(fseed uint64) func(n, f int, seed int64) (sim.Config, error) {
		return func(n, f int, seed int64) (sim.Config, error) {
			faults := clocksync.Adversaries(n, f, fseed)
			return sim.Config{N: n, Spawn: clocksync.Spawner(n, f), Faults: faults, Delays: delays,
				Seed: seed, Until: clocksync.AllReached(10, faults), MaxEvents: 200000}, nil
		}
	}
	lockStep := func(fseed uint64) func(n, f int, seed int64) (sim.Config, error) {
		return func(n, f int, seed int64) (sim.Config, error) {
			faults := clocksync.Adversaries(n, f, fseed)
			spawn := lockstep.Spawner(core.MustModel(rat.FromInt(2)), n, f,
				func(sim.ProcessID) lockstep.App { return lockstep.EchoApp{} })
			return sim.Config{N: n, Spawn: spawn, Faults: faults, Delays: delays,
				Seed: seed, Until: lockstep.AllReachedRound(6, faults), MaxEvents: 300000}, nil
		}
	}
	deadModules := func(k int) func(n, f int, seed int64) (sim.Config, error) {
		return func(n, f int, seed int64) (sim.Config, error) {
			chip, err := vlsi.NewChip(n, rat.One, rat.New(3, 2))
			if err != nil {
				return sim.Config{}, err
			}
			faults := silent(n, k)
			return sim.Config{N: n, Spawn: clocksync.Spawner(n, f), Faults: faults, Delays: chip.DelayPolicy(),
				Seed: seed, Until: clocksync.AllReached(10, faults), MaxEvents: 400000}, nil
		}
	}
	cases := []tc{
		{"clocksync", 4, 1, map[string]string{"faults": "byz/1", "faultseed": "42"}, clockSync(42)},
		{"clocksync", 7, 2, map[string]string{"faults": "byz/2", "faultseed": "42"}, clockSync(42)},
		{"lockstep", 4, 1, map[string]string{"faults": "byz/1", "faultseed": "7"}, lockStep(7)},
		{"lockstep", 7, 2, map[string]string{"faults": "byz/2", "faultseed": "7"}, lockStep(7)},
		{"vlsi", 4, 1, map[string]string{"faults": "crash/1"}, deadModules(1)},
		{"vlsi", 7, 2, map[string]string{"faults": "crash/2"}, deadModules(2)},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d/%s", c.source, c.n, c.params["faults"]), func(t *testing.T) {
			params := map[string]string{"n": fmt.Sprint(c.n), "f": fmt.Sprint(c.f)}
			for k, v := range c.params {
				params[k] = v
			}
			s := source(t, c.source)
			v, err := s.Resolve(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2} {
				jobs, err := s.Jobs(v, []int64{seed}, workload.JobOptions{NoVerdict: true})
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := c.build(c.n, c.f, seed)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, runner.Job{Cfg: &cfg})
				results := run(t, jobs, 1)
				for _, r := range results {
					if r.Err != nil {
						t.Fatalf("seed %d: %v", seed, r.Err)
					}
				}
				got, want := results[0].Trace, results[1].Trace
				if got.StreamHash() != want.StreamHash() || got.Hash() != want.Hash() || got.TotalEvents() != want.TotalEvents() {
					t.Errorf("seed %d: registry %016x (%d events), hand-built %016x (%d events)", seed,
						got.StreamHash(), got.TotalEvents(), want.StreamHash(), want.TotalEvents())
				}
			}
		})
	}
}
