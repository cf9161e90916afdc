package runner

import (
	"errors"
	"fmt"
	"testing"
)

func TestParamGridExpansion(t *testing.T) {
	var got []string
	g := ParamGrid{
		Name: "pg",
		Axes: []Axis{
			{Param: "a", Values: []string{"1", "2"}},
			{Param: "b", Values: []string{"x"}},
			{Param: "c", Values: nil}, // empty axis: single cell, empty setting
		},
		Seeds: []int64{7, 8},
		Make: func(params map[string]string, seed int64) (Job, error) {
			got = append(got, fmt.Sprintf("a=%s b=%s c=%s seed=%d",
				params["a"], params["b"], params["c"], seed))
			return Job{Trace: nil, Cfg: nil, Key: ""}, nil
		},
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := []string{
		"a=1 b=x c= seed=7", "a=1 b=x c= seed=8",
		"a=2 b=x c= seed=7", "a=2 b=x c= seed=8",
	}
	if len(got) != len(wantCells) {
		t.Fatalf("expanded %d cells, want %d: %v", len(got), len(wantCells), got)
	}
	for i := range wantCells {
		if got[i] != wantCells[i] {
			t.Errorf("cell %d: %q, want %q", i, got[i], wantCells[i])
		}
	}
	// Keys mention only the multi-valued axis, the seed always.
	wantKeys := []string{
		"pg/a=1/seed=7", "pg/a=1/seed=8",
		"pg/a=2/seed=7", "pg/a=2/seed=8",
	}
	for i, job := range jobs {
		if job.Key != wantKeys[i] {
			t.Errorf("job %d: key %q, want %q", i, job.Key, wantKeys[i])
		}
	}
}

// TestParamGridKeyNoCollisions pins the name=value segment format of
// ParamGrid keys. A bare-value join would let distinct cells collide once
// values contain "/" — exactly what generated topology specs like
// "torus/4x4" do — because a slash inside a value would be
// indistinguishable from a segment separator.
func TestParamGridKeyNoCollisions(t *testing.T) {
	g := ParamGrid{
		Name: "pg",
		Axes: []Axis{
			{Param: "delay", Values: []string{"a/b", "a", ""}},
			{Param: "fault", Values: []string{"b", "torus", ""}},
			{Param: "topology", Values: []string{"b", "torus/4x4", "4x4", ""}},
		},
		Seeds: []int64{1},
		Make:  func(map[string]string, int64) (Job, error) { return Job{}, nil },
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 36 {
		t.Fatalf("expanded %d cells, want 36", len(jobs))
	}
	seen := make(map[string]int, len(jobs))
	for i, job := range jobs {
		if prev, dup := seen[job.Key]; dup {
			t.Errorf("key %q names cells %d and %d", job.Key, prev, i)
		}
		seen[job.Key] = i
	}
}

func TestParamGridDefaultsAndErrors(t *testing.T) {
	g := ParamGrid{Name: "pg"}
	if _, err := g.Jobs(); err == nil {
		t.Error("grid without Make accepted")
	}

	g.Make = func(params map[string]string, seed int64) (Job, error) {
		if seed != 0 {
			t.Errorf("default seed = %d, want 0", seed)
		}
		return Job{Key: "preset"}, nil
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Key != "preset" {
		t.Errorf("axis-free grid = %+v, want one job with its preset key", jobs)
	}

	boom := errors.New("boom")
	g.Make = func(map[string]string, int64) (Job, error) { return Job{}, boom }
	if _, err := g.Jobs(); !errors.Is(err, boom) {
		t.Errorf("Make error not propagated: %v", err)
	}

	g.Make = func(map[string]string, int64) (Job, error) { return Job{}, nil }
	g.Axes = []Axis{{Param: "a", Values: []string{"1"}}, {Param: "a", Values: []string{"2"}}}
	if _, err := g.Jobs(); err == nil {
		t.Error("duplicate axis accepted")
	}
	g.Axes = []Axis{{Param: "", Values: []string{"1"}}}
	if _, err := g.Jobs(); err == nil {
		t.Error("unnamed axis accepted")
	}
}
