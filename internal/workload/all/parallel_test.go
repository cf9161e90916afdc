// The registry-wide shard-invisibility suite: the sharded engine
// (sim.Config.Shards > 1) must be observationally indistinguishable from
// the serial one for every registered simulation workload — identical
// trace hashes, stream digests, ABC verdicts, critical ratios, domain
// checks, and truncation flags at every shard count. Sharding is an
// execution knob, never a model parameter; any source whose results move
// under it has a determinism bug in the engine, not a new behavior.
package all_test

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// shardCounts spans the acceptance grid: 1 must pin the serial path,
// the rest the parallel engine (where the source's config permits it).
var shardCounts = []int{1, 2, 4, 8}

// runSharded runs jobs on the fleet with the given per-job shard count
// (runner.Options.Shards: 0 and 1 keep the serial engine).
func runSharded(t *testing.T, jobs []runner.Job, workers, shards int) []runner.JobResult {
	t.Helper()
	results, _, err := runner.Run(context.Background(), jobs, runner.Options{Workers: workers, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestShardInvisibilityAllSources runs every registered simulation source
// (those whose jobs carry a sim.Config) at each fleet shard count and
// requires result fingerprints — trace hash, verdict, ratio, first
// violation, domain-check error — identical to the serial baseline.
// Domain verdicts stay enabled: a shard-dependent theorem check would be
// the worst possible regression, so it must be part of the fingerprint.
func TestShardInvisibilityAllSources(t *testing.T) {
	seeds := []int64{1, 2}
	for _, name := range workload.Names() {
		s := source(t, name)
		v, err := s.Resolve(nil)
		if err != nil {
			t.Fatalf("%s: defaults do not resolve: %v", name, err)
		}
		jobs, err := s.Jobs(v, seeds, workload.JobOptions{Ratio: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if jobs[0].Cfg == nil {
			continue // trace-replay source, nothing to shard
		}
		t.Run(name, func(t *testing.T) {
			baseline := run(t, jobs, 1)
			for _, r := range baseline {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
			}
			for _, shards := range shardCounts {
				results := runSharded(t, jobs, 2, shards)
				for i, r := range results {
					if got, want := fingerprint(r), fingerprint(baseline[i]); got != want {
						t.Errorf("shards=%d: %s:\n got %s\nwant %s", shards, r.Key, got, want)
					}
				}
			}
		})
	}
}

// TestShardInvisibilityFaultPlane is the fault-plane half of the
// acceptance bar: under message drops, duplicates, delay spikes, a
// transient partition, and recovering processes — the rows that draw
// hardest on the per-message fault stream — the sharded engine must
// reproduce the serial stream digest and totals exactly. Uses the same
// fault specs as the retention-equivalence suite so the two invisibility
// planes (retention, shards) are pinned on identical configurations.
func TestShardInvisibilityFaultPlane(t *testing.T) {
	s := source(t, "broadcast")
	for _, spec := range []string{
		"drop/0.3",
		"dup/0.25+spike/0.2@2",
		"partition/halves@2..5",
		"recover/1@2..4+drop/0.2+dup/0.15",
	} {
		t.Run(spec, func(t *testing.T) {
			v, err := s.Resolve(map[string]string{"faults": spec})
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := s.Jobs(v, []int64{7}, workload.JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			base := runSharded(t, jobs, 1, 1)
			for _, r := range base {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
			}
			for _, shards := range shardCounts[1:] {
				results := runSharded(t, jobs, 1, shards)
				for i, r := range results {
					if got, want := fingerprint(r), fingerprint(base[i]); got != want {
						t.Errorf("shards=%d: %s:\n got %s\nwant %s", shards, r.Key, got, want)
					}
					bt, ft := r.Trace, base[i].Trace
					if bt.StreamHash() != ft.StreamHash() {
						t.Errorf("shards=%d: stream hash %016x, want %016x", shards, bt.StreamHash(), ft.StreamHash())
					}
					if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() {
						t.Errorf("shards=%d: totals (%d, %d), want (%d, %d)",
							shards, bt.TotalEvents(), bt.TotalMsgs(), ft.TotalEvents(), ft.TotalMsgs())
					}
				}
			}
		})
	}
}
