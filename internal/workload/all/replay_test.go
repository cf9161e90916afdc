// The registry-wide replay suite: a generated job is a value, so running
// the same []runner.Job again — at any worker count — must reproduce the
// first run exactly. Byzantine adversaries are the stateful objects most
// at risk: the engine must build them per run, never reuse a spent one.
package all_test

import (
	"fmt"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// replayPoints are the parameter points of the replay suite: every
// registered source at its defaults, every fault case of the protocol
// conformance table, and the multi-adversary byz/2 points of the
// benchmark's protocol mix.
func replayPoints(t *testing.T) map[string][]string {
	t.Helper()
	points := faultCases(t)
	for _, name := range workload.Names() {
		points[name] = []string{name}
	}
	points["clocksync-byz2"] = []string{"clocksync", "n=7", "f=2", "faults=byz/2"}
	points["consensus-eig-byz2"] = []string{"consensus", "algo=eig", "n=7", "f=2", "faults=byz/2"}
	points["lockstep-byz2"] = []string{"lockstep", "n=7", "f=2", "faults=byz/2"}
	return points
}

// TestReplaySameJobs runs one job batch, then the very same jobs again at
// workers 1 and 4, batch-checked and (where the source declares a Ξ)
// watched, and requires identical fingerprints: trace hash, stream
// digest, verdict, critical ratio, first violation and domain-check
// error.
func TestReplaySameJobs(t *testing.T) {
	for name, spec := range replayPoints(t) {
		t.Run(name, func(t *testing.T) {
			batches := [][]runner.Job{overrideJobs(t, spec, workload.JobOptions{Ratio: true})}
			if j := batches[0][0]; j.Cfg != nil && j.Xi.Sign() > 0 {
				batches = append(batches, overrideJobs(t, spec, workload.JobOptions{Watch: true}))
			}
			for _, jobs := range batches {
				first := run(t, jobs, 1)
				for _, workers := range []int{1, 4} {
					for i, r := range run(t, jobs, workers) {
						want, got := fingerprint(first[i]), fingerprint(r)
						if r.Trace != nil {
							want += fmt.Sprintf(" stream=%016x", first[i].Trace.StreamHash())
							got += fmt.Sprintf(" stream=%016x", r.Trace.StreamHash())
						}
						if got != want {
							t.Errorf("watch=%v replay at workers=%d diverged:\n first: %s\n again: %s",
								jobs[i].Watch, workers, want, got)
						}
					}
				}
			}
		})
	}
}
