package main

import (
	"fmt"
	"strconv"

	"repro/internal/runner"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// A part is one registered source at one parameter point, expanded over a
// contiguous run of seeds.
type part struct {
	source string
	params map[string]string
	seeds  int
	watch  bool
}

// A spec is one benchmark workload: the parts whose jobs form one
// runner.Run batch.
type spec struct {
	name  string
	parts []part
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"checked-full", "watched-ring", "ring-none", "protocol-mix"}

// sourceNames are the registry sources the workloads draw on; each gets a
// runner.busy_s.<source> metric on every workload (zero where unused).
var sourceNames = []string{"broadcast", "clocksync", "consensus", "lockstep", "omega"}

// specFor returns the named workload. reduced shrinks every size for the
// self-test while keeping each workload's shape (topology, retention,
// watch, fault mix).
func specFor(name string, reduced bool) (spec, error) {
	size := func(full, small int) string {
		if reduced {
			return strconv.Itoa(small)
		}
		return strconv.Itoa(full)
	}
	seeds := func(full, small int) int {
		if reduced {
			return small
		}
		return full
	}
	// Every workload runs at delays [1, 3/2] against Ξ = 2, and the
	// broadcast ones lift the event budget far above their event count so
	// that no run truncates.
	model := func(kv ...string) map[string]string {
		p := map[string]string{"xi": "2", "min": "1", "max": "3/2"}
		for i := 0; i+1 < len(kv); i += 2 {
			p[kv[i]] = kv[i+1]
		}
		return p
	}
	const budget = "4000000"
	switch name {
	case "checked-full":
		return spec{name, []part{{source: "broadcast", seeds: seeds(16, 2),
			params: model("n", size(100, 40), "target", "5", "topology", "full", "trace", "full", "maxevents", budget)}}}, nil
	case "watched-ring":
		return spec{name, []part{{source: "broadcast", seeds: 1, watch: true,
			params: model("n", size(50000, 3000), "target", "3", "topology", "ring", "trace", "window/4096", "maxevents", budget)}}}, nil
	case "ring-none":
		return spec{name, []part{{source: "broadcast", seeds: 1,
			params: model("n", size(100000, 6000), "target", "3", "topology", "ring", "trace", "none", "maxevents", budget)}}}, nil
	case "protocol-mix":
		k := seeds(40, 2)
		return spec{name, []part{
			{source: "clocksync", seeds: k, params: model("n", "7", "f", "2", "faults", "byz/2")},
			{source: "consensus", seeds: k, params: model("algo", "eig", "n", "7", "f", "2", "faults", "byz/2")},
			{source: "lockstep", seeds: k, params: model("n", "7", "f", "2", "faults", "byz/2")},
			{source: "omega", seeds: k, params: model("n", "16", "topology", "ring", "faults", "crash/1@0")},
		}}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// jobs generates a fresh batch the way cmd/abcsim does: Lookup, Resolve,
// then Jobs with the ratio search on. It returns each job's source name
// alongside. A batch is single-use: byz/K faults instantiate stateful
// adversaries when the job is generated, so a second runner.Run over the
// same jobs replays spent adversaries and diverges. Every pass therefore
// calls jobs again.
func (s spec) jobs(seed int64) ([]runner.Job, []string, error) {
	var jobs []runner.Job
	var sources []string
	for _, p := range s.parts {
		src, ok := workload.Lookup(p.source)
		if !ok {
			return nil, nil, fmt.Errorf("%s: source %q is not registered", s.name, p.source)
		}
		v, err := src.Resolve(p.params)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		js, err := src.Jobs(v, runner.Seeds(1+seed*int64(p.seeds), p.seeds), workload.JobOptions{Watch: p.watch, Ratio: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		jobs = append(jobs, js...)
		for range js {
			sources = append(sources, p.source)
		}
	}
	return jobs, sources, nil
}
