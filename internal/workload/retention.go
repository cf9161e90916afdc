package workload

import (
	"fmt"

	"repro/internal/sim"
)

// TraceParams returns the shared trace-retention parameter declaration.
// Simulation sources append it to their parameter space (like
// TopologyParams); the sweep decoration then sets the corresponding
// sim.Retention on every generated job's Config:
//
//	trace=full      — keep the complete trace (the default)
//	trace=window/K  — sliding window of the last K events (feeds the
//	                  incremental watcher; batch analyses unavailable)
//	trace=none      — counters and stream digest only (throughput mode)
//
// Sources whose domain verdict reads the recorded events declare
// VerdictNeedsTrace, and Resolve rejects bounded retention for them.
func TraceParams() []Param {
	return []Param{{
		Name: "trace", Kind: String, Default: "full",
		Doc: "trace retention: full, window/K (last K events), or none (counters+hash only)",
	}}
}

// ResolveRetention parses the source's resolved "trace" parameter into a
// retention policy. Sources without the parameter get full retention.
func ResolveRetention(v Values) (sim.Retention, error) {
	if !v.Has("trace") {
		return sim.Retention{}, nil
	}
	r, err := sim.ParseRetention(v.String("trace"))
	if err != nil {
		return sim.Retention{}, fmt.Errorf("workload: %w", err)
	}
	return r, nil
}
