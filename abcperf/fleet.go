package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/runner"
)

// fleetOptions are cmd/abcsim's defaults: one worker per usable core and
// auto-sized shards, never more workers than the host has cores.
func fleetOptions() runner.Options {
	return runner.Options{Workers: min(runtime.GOMAXPROCS(0), runtime.NumCPU()), Shards: runner.ShardsAuto}
}

// fleetStats is one untraced pass.
type fleetStats struct {
	Setup, Wall     time.Duration
	Events          int
	Alloc, Mallocs  uint64
	GCCycles        uint32
	GCPause         time.Duration
	Busy            time.Duration
	BusyBy          map[string]time.Duration
	Workers, Shards int
	PeakRSS         float64 // MB
	Outcomes        []outcome
}

// fleetPass generates a fresh batch and runs it through runner.Run with
// nothing inside the run instrumented.
func fleetPass(s spec, seed int64) (fleetStats, error) {
	var fs fleetStats
	start := time.Now()
	jobs, sources, err := s.jobs(seed)
	fs.Setup = time.Since(start)
	if err != nil {
		return fs, err
	}
	opts := fleetOptions()
	fs.Workers, fs.Shards = opts.Plan(len(jobs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	results, stats, err := runner.Run(context.Background(), jobs, opts)
	fs.Wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fs, err
	}
	if fs.PeakRSS, err = peakRSSMB(); err != nil {
		return fs, err
	}
	fs.Events = stats.Events
	fs.Alloc = after.TotalAlloc - before.TotalAlloc
	fs.Mallocs = after.Mallocs - before.Mallocs
	fs.GCCycles = after.NumGC - before.NumGC
	fs.GCPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	fs.BusyBy = make(map[string]time.Duration)
	for i, r := range results {
		fs.Busy += r.Elapsed
		fs.BusyBy[sources[i]] += r.Elapsed
	}
	fs.Outcomes = outcomes(results)
	return fs, nil
}

// childPass runs one pass in a fresh process, as each abcsim call is one,
// so that every pass starts from an empty heap and reports its own
// resident-set high-water mark. The child prints the pass as JSON into
// out; childPass waits for it to exit.
func childPass(out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("pass %q: %w", args, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(b), out); err != nil {
		return fmt.Errorf("pass %q: %w", args, err)
	}
	return nil
}
