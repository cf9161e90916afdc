package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rat"
)

// retentionTestConfig is a mid-size broadcast run with a crash fault, so the
// record contains processed and unprocessed events, wake-ups, and real
// traffic — everything the digest folds.
func retentionTestConfig() Config {
	return Config{
		N:      6,
		Spawn:  broadcastSpawn(5),
		Faults: map[ProcessID]Fault{5: {CrashAfter: 2}},
		Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   7,
	}
}

func TestParseRetention(t *testing.T) {
	good := map[string]Retention{
		"":                           {Mode: RetainFullMode},
		"full":                       {Mode: RetainFullMode},
		"none":                       {Mode: RetainNoneMode},
		"window/1":                   {Mode: RetainWindowMode, Window: 1},
		"window/64":                  {Mode: RetainWindowMode, Window: 64},
		"window/4611686018427387903": {Mode: RetainWindowMode, Window: math.MaxInt / 2},
	}
	for spec, want := range good {
		r, err := ParseRetention(spec)
		if err != nil {
			t.Fatalf("ParseRetention(%q): %v", spec, err)
		}
		if r != want {
			t.Fatalf("ParseRetention(%q) = %+v, want %+v", spec, r, want)
		}
	}
	for _, spec := range []string{"window/0", "window/-3", "window/", "window/x", "ring", "Full",
		"window/4611686018427387904", "window/9223372036854775807"} {
		if _, err := ParseRetention(spec); err == nil {
			t.Fatalf("ParseRetention(%q): want error", spec)
		}
	}
}

// TestRetentionEquivalence is the retention-equivalence contract at the engine
// level: the same Config run under full, window, and none retention agrees
// on every total and on the stream digest, and the window's retained
// suffix is exactly the tail of the complete record.
func TestRetentionEquivalence(t *testing.T) {
	cfg := retentionTestConfig()
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft := full.Trace
	if !ft.Complete() || ft.Retention() != RetainFullMode {
		t.Fatalf("default run not complete (retention %v)", ft.Retention())
	}
	if ft.TotalEvents() != len(ft.Events) || ft.TotalMsgs() != len(ft.Msgs) {
		t.Fatalf("complete totals (%d, %d) != lengths (%d, %d)",
			ft.TotalEvents(), ft.TotalMsgs(), len(ft.Events), len(ft.Msgs))
	}
	if len(ft.Events) < 40 {
		t.Fatalf("test run too small: %d events", len(ft.Events))
	}

	const k = 16
	engine := NewEngine() // shared engine: also exercises cross-mode reuse
	for _, tc := range []struct {
		name string
		ret  Retention
	}{
		{"full", Retention{Mode: RetainFullMode}},
		{"window", RetainWindow(k)},
		{"none", RetainNone()},
	} {
		cfg := retentionTestConfig()
		cfg.Retention = tc.ret
		res, err := engine.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bt := res.Trace
		if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() {
			t.Fatalf("%s: totals (%d, %d), want (%d, %d)",
				tc.name, bt.TotalEvents(), bt.TotalMsgs(), ft.TotalEvents(), ft.TotalMsgs())
		}
		if bt.StreamHash() != ft.StreamHash() {
			t.Fatalf("%s: stream hash %016x, want %016x", tc.name, bt.StreamHash(), ft.StreamHash())
		}
		if res.Truncated != full.Truncated {
			t.Fatalf("%s: truncated %v, want %v", tc.name, res.Truncated, full.Truncated)
		}
		switch bt.Retention() {
		case RetainFullMode:
			if ft.Hash() != bt.Hash() {
				t.Fatalf("%s: complete trace hash diverged", tc.name)
			}
		case RetainWindowMode:
			if len(bt.Events) < k || len(bt.Events) >= 2*k {
				t.Fatalf("window holds %d events, want within [%d, %d)", len(bt.Events), k, 2*k)
			}
			if len(bt.Msgs) != len(bt.Events) {
				t.Fatalf("window Msgs length %d, want parallel to Events %d", len(bt.Msgs), len(bt.Events))
			}
			first := bt.FirstRetained()
			if first+len(bt.Events) != bt.TotalEvents() {
				t.Fatalf("window [%d, %d) does not end at total %d", first, first+len(bt.Events), bt.TotalEvents())
			}
			for pos := first; pos < bt.TotalEvents(); pos++ {
				ev, ok := bt.EventByPos(pos)
				if !ok {
					t.Fatalf("window: event %d not retrievable", pos)
				}
				if want := ft.Events[pos]; ev != want {
					t.Fatalf("window event %d = %+v, want %+v", pos, ev, want)
				}
				m, ok := bt.TriggerOf(pos)
				if !ok {
					t.Fatalf("window: trigger of %d not retrievable", pos)
				}
				if want := ft.Msgs[ft.Events[pos].Trigger]; *m != want {
					t.Fatalf("window trigger %d = %+v, want %+v", pos, m, want)
				}
			}
			if _, ok := bt.EventByPos(first - 1); ok {
				t.Fatal("window: evicted event still retrievable")
			}
		case RetainNoneMode:
			if len(bt.Events) != 0 || len(bt.Msgs) != 0 {
				t.Fatalf("none retained %d events, %d messages", len(bt.Events), len(bt.Msgs))
			}
			if _, ok := bt.EventByPos(0); ok {
				t.Fatal("none: EventByPos(0) succeeded")
			}
		}
	}

	// The shared engine must still produce byte-identical full traces
	// after bounded-mode runs (hermeticity across retention modes).
	again, err := engine.Run(retentionTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if again.Trace.Hash() != ft.Hash() {
		t.Fatal("full-retention trace changed after bounded-mode engine reuse")
	}
}

func TestRetentionConfigErrors(t *testing.T) {
	cfg := retentionTestConfig()
	for _, k := range []int{0, math.MaxInt/2 + 1, math.MaxInt} {
		cfg.Retention = RetainWindow(k)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Window") {
			t.Fatalf("window %d: err = %v, want Window error", k, err)
		}
	}
	cfg = retentionTestConfig()
	cfg.Retention = RetainNone()
	cfg.Monitor = func(*Trace) error { return nil }
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Monitor") {
		t.Fatalf("monitor+none: err = %v, want Monitor error", err)
	}
}

// TestHugeWindowCostsOnlyTheRun runs a window far larger than the run: the
// engine must not size its buffers by the window, so the retained window
// is the whole run and its storage tracks the run, not K.
func TestHugeWindowCostsOnlyTheRun(t *testing.T) {
	cfg := retentionTestConfig()
	cfg.Retention = RetainWindow(100000000)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.FirstRetained() != 0 || len(tr.Events) != tr.TotalEvents() {
		t.Fatalf("window holds [%d, +%d) of %d events, want the whole run", tr.FirstRetained(), len(tr.Events), tr.TotalEvents())
	}
	if c := cap(tr.Events); c > 2*tr.TotalEvents() {
		t.Fatalf("window storage has capacity %d for %d events", c, tr.TotalEvents())
	}
}

// TestEventsOfIndexedMatchesScan pins the dense-row fast path of EventsOf
// and StepCount against the legacy O(E) scan they replaced.
func TestEventsOfIndexedMatchesScan(t *testing.T) {
	res, err := Run(retentionTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.eventPos == nil {
		t.Fatal("engine trace lacks the event index")
	}
	shell := &Trace{N: tr.N, Events: tr.Events, Msgs: tr.Msgs, Faulty: tr.Faulty}
	for p := ProcessID(0); int(p) < tr.N; p++ {
		fast, slow := tr.EventsOf(p), shell.EventsOf(p)
		if len(fast) != len(slow) {
			t.Fatalf("p%d: indexed EventsOf has %d entries, scan %d", p, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("p%d: EventsOf[%d] = %d (indexed) vs %d (scan)", p, i, fast[i], slow[i])
			}
		}
		if a, b := tr.StepCount(p), shell.StepCount(p); a != b {
			t.Fatalf("p%d: StepCount %d (indexed) vs %d (scan)", p, a, b)
		}
	}
}
