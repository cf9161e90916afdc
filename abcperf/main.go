// Command abcperf is the repository benchmark. It runs registered workloads
// end to end the way cmd/abcsim executes them — workload.Lookup,
// Source.Resolve, Source.Jobs with the ratio search on, then runner.Run on
// GOMAXPROCS workers with auto-sized shards — checks every job's output,
// and splits the same work across the repository's layers in a separate
// traced pass.
//
// Each run makes passes over freshly generated batches for --seconds (at
// least minPasses untraced ones):
//
//   - an untraced pass, timed only from outside runner.Run, gives the
//     end-to-end metrics;
//   - a traced pass repeats runner.execute's per-job pipeline from this
//     package, timing each call into sim, the online and batch checkers,
//     causality and the domain verdicts, and gives the per-layer metrics.
//
// Each pass runs in a fresh child process, as each abcsim call is one.
// With --trace 0 only the first untraced pass is followed by a traced one,
// which serves the output check alone; with --trace 1 the two alternate.
// Every job of every pass must finish without an error, a failed domain
// check or truncation, and must match the first untraced pass in stream
// digest, verdict, first violation and critical ratio.
//
// Usage, from the repository root:
//
//	bash abcperf/run.sh --workload checked-full --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 0 when every
// job passed, 1 when some failed (the result is still printed), and 2
// without a result when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// minPasses is the fewest passes of each kind a run makes, however short
// its --seconds.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 0, "input seed; the same seed gives the same jobs")
	seconds := fs.Float64("seconds", 15, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	child := fs.String("child", "", "run one untraced or traced pass and print it as JSON (used by the command itself)")
	shards := fs.Int("shards", 1, "per-job shard count of a traced child pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "abcperf: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	s, err := specFor(*name, false)
	if err != nil {
		fmt.Fprintln(stderr, "abcperf:", err)
		return 2
	}
	if *child != "" {
		if err := printPass(stdout, *child, s, *seed, *shards); err != nil {
			fmt.Fprintln(stderr, "abcperf:", err)
			return 2
		}
		return 0
	}
	seedArg := strconv.FormatInt(*seed, 10)
	untraced := func() (fleetStats, error) {
		var fs fleetStats
		return fs, childPass(&fs, "--child", "untraced", "--workload", s.name, "--seed", seedArg)
	}
	traced := func(shards int) (layerTimes, error) {
		var lt layerTimes
		return lt, childPass(&lt, "--child", "traced", "--workload", s.name, "--seed", seedArg, "--shards", strconv.Itoa(shards))
	}
	m, err := measure(time.Duration(*seconds*float64(time.Second)), *trace == 1, untraced, traced)
	if err != nil {
		fmt.Fprintln(stderr, "abcperf:", err)
		return 2
	}
	if err := m.report(stdout, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "abcperf:", err)
		return 2
	}
	if m.check.failed > 0 {
		for _, reason := range m.check.reasons {
			fmt.Fprintln(stderr, "abcperf: FAILED:", reason)
		}
		return 1
	}
	return 0
}

// printPass runs one pass of the given kind and writes it as one JSON
// line, for the parent process reading it in childPass.
func printPass(w io.Writer, kind string, s spec, seed int64, shards int) error {
	var pass any
	var err error
	switch kind {
	case "untraced":
		pass, err = fleetPass(s, seed)
	case "traced":
		pass, err = tracedPass(s, seed, shards)
	default:
		return fmt.Errorf("--child %q, want untraced or traced", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(pass)
}

// measurement is everything one run observed.
type measurement struct {
	fleet  []fleetStats
	layers []layerTimes
	check  checker
}

// measure makes the run's passes within budget: untraced ones, each
// followed by a traced one when traced is set; otherwise only the first is,
// and that traced pass serves the output check alone. It stops before a
// pass that would overrun the budget, once it has made minPasses.
func measure(budget time.Duration, traced bool, untraced func() (fleetStats, error), tracedPass func(shards int) (layerTimes, error)) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	var last time.Duration
	for len(m.fleet) < minPasses || time.Since(start)+last <= budget {
		t0 := time.Now()
		fs, err := untraced()
		if err != nil {
			return nil, err
		}
		m.check.pass("untraced", fs.Outcomes)
		fs.Outcomes = nil
		m.fleet = append(m.fleet, fs)
		if traced || len(m.fleet) == 1 {
			lt, err := tracedPass(fs.Shards)
			if err != nil {
				return nil, err
			}
			m.check.pass("traced", lt.Outcomes)
			lt.Outcomes = nil
			m.layers = append(m.layers, lt)
		}
		last = time.Since(t0)
	}
	return m, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics of the untraced passes, as a user of abcsim
// sees them, in BENCHMARK.json order.
func (m *measurement) endToEnd() []named {
	f := m.fleet
	return []named{
		{"setup_s", "s", samplesOf(f, func(p fleetStats) float64 { return p.Setup.Seconds() })},
		{"wall_s", "s", samplesOf(f, func(p fleetStats) float64 { return p.Wall.Seconds() })},
		{"events_per_s", "events/s", samplesOf(f, func(p fleetStats) float64 { return float64(p.Events) / p.Wall.Seconds() })},
		{"alloc_mb", "MB", samplesOf(f, func(p fleetStats) float64 { return mb(p.Alloc) })},
		{"allocs", "count", samplesOf(f, func(p fleetStats) float64 { return float64(p.Mallocs) })},
		{"peak_rss_mb", "MB", samplesOf(f, func(p fleetStats) float64 { return p.PeakRSS })},
		{"ok_frac", "ratio", []float64{1 - float64(m.check.failed)/float64(m.check.attempted)}},
	}
}

// perLayer are the metrics of the traced passes, plus the fleet and Go
// runtime figures of the untraced passes, in BENCHMARK.json order.
func (m *measurement) perLayer() []named {
	f, l := m.fleet, m.layers
	lay := func(get func(layerTimes) float64) []float64 { return samplesOf(l, get) }
	sec := func(get func(layerTimes) time.Duration) []float64 {
		return lay(func(t layerTimes) float64 { return get(t).Seconds() })
	}
	perCall := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	busy := samplesOf(f, func(p fleetStats) float64 { return p.Busy.Seconds() })
	tracedWall := sec(func(t layerTimes) time.Duration { return t.Wall })
	out := []named{
		{"workload.jobs_s", "s", sec(func(t layerTimes) time.Duration { return t.Gen })},
		{"runner.workers", "count", []float64{float64(f[0].Workers)}},
		{"runner.shards", "count", []float64{float64(f[0].Shards)}},
		{"runner.busy_s", "s", busy},
		{"runner.worker_util", "ratio", samplesOf(f, func(p fleetStats) float64 {
			return p.Busy.Seconds() / (float64(p.Workers) * p.Wall.Seconds())
		})},
	}
	for _, src := range sourceNames {
		out = append(out, named{"runner.busy_s." + src, "s", samplesOf(f, func(p fleetStats) float64 { return p.BusyBy[src].Seconds() })})
	}
	return append(out,
		named{"sim.run_s", "s", sec(func(t layerTimes) time.Duration { return t.Sim })},
		named{"sim.events", "count", lay(func(t layerTimes) float64 { return float64(t.Events) })},
		named{"sim.msgs", "count", lay(func(t layerTimes) float64 { return float64(t.Msgs) })},
		named{"sim.ns_per_event", "ns", lay(func(t layerTimes) float64 { return perCall(t.Sim, t.Events) })},
		named{"sim.shards_used", "count", lay(func(t layerTimes) float64 { return float64(t.ShardsUsed) })},
		named{"sim.alloc_mb", "MB", lay(func(t layerTimes) float64 { return mb(t.SimAlloc) })},
		named{"check.watch_s", "s", sec(func(t layerTimes) time.Duration { return t.Watch })},
		named{"check.watch_calls", "count", lay(func(t layerTimes) float64 { return float64(t.WatchCalls) })},
		named{"check.watch_ns_per_call", "ns", lay(func(t layerTimes) float64 { return perCall(t.Watch, t.WatchCalls) })},
		named{"causality.build_s", "s", sec(func(t layerTimes) time.Duration { return t.Build })},
		named{"causality.nodes", "count", lay(func(t layerTimes) float64 { return float64(t.Nodes) })},
		named{"causality.edges", "count", lay(func(t layerTimes) float64 { return float64(t.Edges) })},
		named{"check.abc_s", "s", sec(func(t layerTimes) time.Duration { return t.ABC })},
		named{"check.ratio_s", "s", sec(func(t layerTimes) time.Duration { return t.Ratio })},
		named{"check.ratio_found", "count", lay(func(t layerTimes) float64 { return float64(t.RatioFound) })},
		named{"verdict.post_s", "s", sec(func(t layerTimes) time.Duration { return t.Post })},
		named{"verdict.failed", "count", lay(func(t layerTimes) float64 { return float64(t.PostFailed) })},
		named{"go.gc_cycles", "count", samplesOf(f, func(p fleetStats) float64 { return float64(p.GCCycles) })},
		named{"go.gc_pause_s", "s", samplesOf(f, func(p fleetStats) float64 { return p.GCPause.Seconds() })},
		named{"trace.wall_s", "s", tracedWall},
		named{"trace.coverage", "ratio", lay(func(t layerTimes) float64 { return t.covered().Seconds() / t.Wall.Seconds() })},
		// The traced pass runs its jobs on one goroutine, so it is set
		// against the untraced pass's worker time, not its wall time; with
		// one worker the two are the same.
		named{"trace.overhead", "ratio", []float64{median(tracedWall)/median(busy) - 1}},
	)
}

// named is one metric with its per-pass samples; the reported value is
// their median.
type named struct {
	name, unit string
	samples    []float64
}

// report prints the host block, one line per metric with its samples, and
// the result object as the last line.
func (m *measurement) report(w io.Writer, traced bool) error {
	hb, err := json.Marshal(hostInfo())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hb)
	ms := m.endToEnd()
	if traced {
		ms = m.perLayer()
	}
	res := result{
		Correct:   m.check.failed == 0,
		Attempted: m.check.attempted,
		Failed:    m.check.failed,
		Metrics:   make(map[string]metric, len(ms)),
	}
	for _, x := range ms {
		v := median(x.samples)
		q := quartiles(x.samples)
		fmt.Fprintf(w, "%-28s %14.6g %-8s median of %d, quartiles %.6g %.6g\n", x.name, v, x.unit, len(x.samples), q[0], q[1])
		res.Metrics[x.name] = metric{Value: v, Unit: x.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// samplesOf maps get over the passes, giving one metric's samples.
func samplesOf[T any](passes []T, get func(T) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = get(p)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs, the lower and
// upper median halves' medians.
func quartiles(xs []float64) [2]float64 {
	if len(xs) < 2 {
		return [2]float64{xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	return [2]float64{median(s[:h]), median(s[len(s)-h:])}
}
