package main

import (
	"fmt"

	"repro/internal/runner"
)

// digest is the observable output of one job: what every pass of a run
// must reproduce exactly.
type digest struct {
	Key            string `json:"key"`
	Stream         uint64 `json:"stream"`
	Verdict        string `json:"verdict"`
	FirstViolation int    `json:"firstViolation"`
	Ratio          string `json:"ratio"`
}

// outcome is one job's digest and, when it failed by itself, why.
type outcome struct {
	Digest  digest `json:"digest"`
	Failure string `json:"failure,omitempty"`
}

func outcomes(results []runner.JobResult) []outcome {
	out := make([]outcome, len(results))
	for i, r := range results {
		out[i] = outcome{Digest: digestOf(r), Failure: jobFailure(r)}
	}
	return out
}

func digestOf(r runner.JobResult) digest {
	d := digest{Key: r.Key, FirstViolation: r.FirstViolation}
	if r.Trace != nil {
		d.Stream = r.Trace.StreamHash()
	}
	if r.Verdict != nil {
		d.Verdict = "inadmissible"
		if r.Verdict.Admissible {
			d.Verdict = "admissible"
		}
	}
	if r.RatioFound {
		d.Ratio = r.Ratio.String()
	}
	return d
}

// jobFailure says why a job failed by itself, or returns "" when it did
// not: an infrastructure error, a failed domain check, or a truncated run.
func jobFailure(r runner.JobResult) string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case r.CheckErr != nil:
		return "domain check: " + r.CheckErr.Error()
	case r.Sim == nil || r.Trace == nil:
		return "no simulation result"
	case r.Sim.Truncated:
		return "truncated"
	}
	return ""
}

// maxReasons bounds the failure reasons a checker keeps for the report.
const maxReasons = 10

// checker counts job failures over all passes of a run. The first pass
// fixes the reference digests; every later pass, traced or not, must
// match them job by job.
type checker struct {
	ref               []digest
	attempted, failed int
	reasons           []string
}

// pass checks one pass's job outcomes.
func (c *checker) pass(label string, jobs []outcome) {
	if c.ref == nil {
		for _, o := range jobs {
			c.ref = append(c.ref, o.Digest)
		}
	}
	for i, o := range jobs {
		c.attempted++
		reason := o.Failure
		switch {
		case reason != "":
		case len(jobs) != len(c.ref):
			reason = fmt.Sprintf("pass ran %d jobs, the first pass %d", len(jobs), len(c.ref))
		case o.Digest != c.ref[i]:
			reason = fmt.Sprintf("output differs from the first pass: %+v, want %+v", o.Digest, c.ref[i])
		default:
			continue
		}
		c.failed++
		if len(c.reasons) < maxReasons {
			c.reasons = append(c.reasons, fmt.Sprintf("%s pass, %s: %s", label, o.Digest.Key, reason))
		}
	}
}
