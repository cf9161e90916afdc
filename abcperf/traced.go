package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/runner"
	"repro/internal/sim"
)

// layerTimes is one traced pass: what it spent in each layer, and its
// jobs' outcomes. Times are self times: Sim excludes the Monitor callbacks
// that run inside Engine.Run, which count as Watch.
type layerTimes struct {
	Gen, Wall                           time.Duration
	Sim, Watch, Build, ABC, Ratio, Post time.Duration
	WatchCalls                          int
	Events, Msgs                        int
	Nodes, Edges                        int
	RatioFound, PostFailed              int
	ShardsUsed                          int
	SimAlloc                            uint64
	Outcomes                            []outcome
}

// covered is the summed time of the timed layer calls.
func (l *layerTimes) covered() time.Duration {
	return l.Sim + l.Watch + l.Build + l.ABC + l.Ratio + l.Post
}

// tracedPass generates a fresh batch and runs it job by job on one
// goroutine, repeating runner.execute's per-job pipeline with each call
// into a layer's public function timed. shards is the per-job shard count
// runner.Options.Plan gave the untraced pass, so both passes take the same
// engine path. Jobs run serially so that the MemStats brackets around
// Engine.Run see that call's allocations alone.
func tracedPass(s spec, seed int64, shards int) (layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	jobs, _, err := s.jobs(seed)
	lt.Gen = time.Since(start)
	if err != nil {
		return lt, err
	}
	results := make([]runner.JobResult, len(jobs))
	engine := sim.NewEngine()
	start = time.Now()
	for i, job := range jobs {
		results[i] = tracedJob(engine, i, job, shards, &lt)
	}
	lt.Wall = time.Since(start)
	lt.Outcomes = outcomes(results)
	return lt, nil
}

// tracedJob is runner.execute for one simulation job, with every layer
// call timed into lt.
func tracedJob(engine *sim.Engine, index int, job runner.Job, shards int, lt *layerTimes) runner.JobResult {
	res := runner.JobResult{Index: index, Key: job.Key, Xi: job.Xi, FirstViolation: -1}
	fail := func(err error) runner.JobResult {
		res.Err = fmt.Errorf("traced job %d (%s): %w", index, job.Key, err)
		return res
	}
	if job.Cfg == nil {
		return fail(errors.New("not a simulation job"))
	}
	cfg := *job.Cfg
	if shards > 1 && cfg.Shards == 0 {
		cfg.Shards = shards
	}
	var watcher *check.Watcher
	var watch time.Duration
	if job.Watch {
		if cfg.Monitor != nil {
			return fail(errors.New("Watch conflicts with Cfg.Monitor"))
		}
		w, err := check.NewWatcher(job.Xi, causality.Options{})
		if err != nil {
			return fail(err)
		}
		watcher = w
		cfg.Monitor = func(t *sim.Trace) error {
			start := time.Now()
			err := w.Monitor(t)
			watch += time.Since(start)
			lt.WatchCalls++
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sr, err := engine.Run(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	lt.Sim += elapsed - watch
	lt.Watch += watch
	lt.SimAlloc += after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return fail(err)
	}
	if sr.MonitorErr != nil && !errors.Is(sr.MonitorErr, check.ErrInadmissible) {
		return fail(fmt.Errorf("watch: %w", sr.MonitorErr))
	}
	res.Sim, res.Trace = sr, sr.Trace
	lt.Events += sr.Trace.TotalEvents()
	lt.Msgs += sr.Trace.TotalMsgs()
	lt.ShardsUsed = max(lt.ShardsUsed, sr.Shards)

	build := func() {
		start := time.Now()
		res.Graph = causality.Build(res.Trace, causality.Options{})
		lt.Build += time.Since(start)
	}
	if watcher != nil {
		v := watcher.Verdict()
		res.Verdict = &v
		res.FirstViolation = watcher.FirstViolation()
		if res.Graph = watcher.Graph(); res.Graph == nil {
			build()
		}
	} else if job.Xi.Sign() > 0 || job.Ratio {
		if !res.Trace.Complete() {
			return fail(fmt.Errorf("batch analysis needs a complete trace, got %v retention", res.Trace.Retention()))
		}
		build()
	}
	if res.Graph != nil {
		lt.Nodes += res.Graph.NumNodes()
		lt.Edges += res.Graph.NumEdges()
	}
	if job.Xi.Sign() > 0 && watcher == nil {
		start := time.Now()
		v, err := check.ABC(res.Graph, job.Xi)
		lt.ABC += time.Since(start)
		if err != nil {
			return fail(fmt.Errorf("ABC check: %w", err))
		}
		res.Verdict = &v
	}
	if job.Ratio {
		start := time.Now()
		ratio, found, err := check.MaxRelevantRatio(res.Graph)
		lt.Ratio += time.Since(start)
		if err != nil {
			return fail(fmt.Errorf("ratio search: %w", err))
		}
		res.Ratio, res.RatioFound = ratio, found
		if found {
			lt.RatioFound++
		}
	}
	if job.Check == nil && job.Post == nil {
		return res
	}
	start = time.Now()
	if job.Check != nil {
		res.CheckErr = job.Check(res.Sim)
	}
	if job.Post != nil && res.CheckErr == nil {
		res.CheckErr = job.Post(&res)
	}
	lt.Post += time.Since(start)
	if res.CheckErr != nil {
		lt.PostFailed++
	}
	return res
}
