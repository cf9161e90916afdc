package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// testSeed is the input seed of the self-test's reduced workloads.
const testSeed = 3

// measureReduced runs a reduced workload with minPasses passes, all in
// this process.
func measureReduced(t *testing.T, name string, traced bool) *measurement {
	t.Helper()
	s, err := specFor(name, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(0, traced,
		func() (fleetStats, error) { return fleetPass(s, testSeed) },
		func(shards int) (layerTimes, error) { return tracedPass(s, testSeed, shards) })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reportResult renders m and decodes its last line.
func reportResult(t *testing.T, m *measurement, traced bool) result {
	t.Helper()
	var buf bytes.Buffer
	if err := m.report(&buf, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

// TestMetricsAsDeclared runs every workload reduced, in both modes, and
// checks that the result names exactly the declared metrics with their
// units and that every job passed.
func TestMetricsAsDeclared(t *testing.T) {
	workloads, endToEnd, perLayer := declared(t)
	if strings.Join(workloads, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", workloads, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := reportResult(t, measureReduced(t, name, traced), traced)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				if got, ok := res.Metrics[n]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, n, got, unit)
				}
			}
			if !traced && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v, want 1", name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestLayerPredictions pins the layer-to-workload map recorded in
// BENCHMARK.json and README.md: which layers are idle where, which
// workloads the serial engine runs, and that the traced layer calls
// account for the traced wall time.
func TestLayerPredictions(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames {
		res := reportResult(t, measureReduced(t, name, true), true)
		layers[name] = map[string]float64{}
		for n, m := range res.Metrics {
			layers[name][n] = m.Value
		}
	}
	for _, n := range []string{"causality.build_s", "check.abc_s", "check.ratio_s", "check.watch_s"} {
		if v := layers["ring-none"][n]; v != 0 {
			t.Errorf("ring-none %s = %v, want 0", n, v)
		}
	}
	for _, w := range []string{"checked-full", "watched-ring", "ring-none"} {
		if v := layers[w]["verdict.post_s"]; v != 0 {
			t.Errorf("%s verdict.post_s = %v, want 0", w, v)
		}
	}
	for _, w := range []string{"watched-ring", "protocol-mix"} {
		if v := layers[w]["sim.shards_used"]; v != 1 {
			t.Errorf("%s sim.shards_used = %v, want 1", w, v)
		}
	}
	for _, n := range []string{"causality.build_s", "check.abc_s", "check.ratio_s"} {
		if v := layers["checked-full"][n]; v <= 0 {
			t.Errorf("checked-full %s = %v, want > 0", n, v)
		}
	}
	if v := layers["watched-ring"]["check.watch_calls"]; v != layers["watched-ring"]["sim.events"] {
		t.Errorf("watched-ring: %v monitor calls for %v events", v, layers["watched-ring"]["sim.events"])
	}
	if v := layers["protocol-mix"]["verdict.post_s"]; v <= 0 {
		t.Errorf("protocol-mix verdict.post_s = %v, want > 0", v)
	}
	for _, w := range workloadNames {
		if v := layers[w]["trace.coverage"]; v < 0.9 || v > 1 {
			t.Errorf("%s trace.coverage = %v, want within [0.9, 1]", w, v)
		}
	}
}

// TestFreshPassesAgree checks that two passes over freshly generated
// protocol-mix batches, Byzantine adversaries included, give identical
// per-job digests.
func TestFreshPassesAgree(t *testing.T) {
	s, err := specFor("protocol-mix", true)
	if err != nil {
		t.Fatal(err)
	}
	var c checker
	for range 2 {
		fs, err := fleetPass(s, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		c.pass("untraced", fs.Outcomes)
	}
	if c.attempted != 2*len(c.ref) || c.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", c.attempted, c.failed, c.reasons)
	}
}

// TestCheckerCountsFailures checks that a job's own failure and a digest
// differing from the first pass both count as failed.
func TestCheckerCountsFailures(t *testing.T) {
	ok := []outcome{{Digest: digest{Key: "a", Stream: 1}}, {Digest: digest{Key: "b", Stream: 2}}}
	var c checker
	c.pass("untraced", ok)
	c.pass("traced", []outcome{ok[0], {Digest: digest{Key: "b", Stream: 3}}})
	c.pass("untraced", []outcome{{Digest: ok[0].Digest, Failure: "truncated"}, ok[1]})
	c.pass("untraced", ok[:1])
	if c.attempted != 7 || c.failed != 3 || len(c.reasons) != 3 {
		t.Fatalf("attempted %d, failed %d, reasons %q", c.attempted, c.failed, c.reasons)
	}
}

// TestRunRejectsBadArguments checks that bad arguments exit non-zero
// without printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ring-none", "--trace", "2"},
		{"--workload", "ring-none", "--child", "bogus"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, printed %q", args, code, out.String())
		}
	}
}
