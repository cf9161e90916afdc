package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// RetentionMode selects how much of the execution record a run keeps.
type RetentionMode int

const (
	// RetainFullMode keeps every event and message — the default, and the
	// only mode whose Trace is complete (Trace.Complete reports true).
	RetainFullMode RetentionMode = iota
	// RetainWindowMode keeps a sliding window of the last K events (and
	// their trigger messages) — enough to feed the incremental
	// admissibility engine through Config.Monitor while bounding memory.
	RetainWindowMode
	// RetainNoneMode keeps only counters and the running stream digest —
	// the throughput mode for sweeps that never inspect the trace.
	RetainNoneMode
)

func (m RetentionMode) String() string {
	switch m {
	case RetainFullMode:
		return "full"
	case RetainWindowMode:
		return "window"
	case RetainNoneMode:
		return "none"
	default:
		return fmt.Sprintf("RetentionMode(%d)", int(m))
	}
}

// Retention is a run's trace-storage policy (Config.Retention). The zero
// value keeps the complete trace.
type Retention struct {
	Mode RetentionMode
	// Window is the number of most-recent events retained in
	// RetainWindowMode; it must be at least 1 and is ignored otherwise.
	Window int
}

// RetainWindow returns the sliding-window policy keeping the last k
// events. Run rejects k outside [1, MaxInt/2].
func RetainWindow(k int) Retention { return Retention{Mode: RetainWindowMode, Window: k} }

// RetainNone returns the counters-and-digest-only policy.
func RetainNone() Retention { return Retention{Mode: RetainNoneMode} }

// validate rejects unknown modes and window sizes the engine cannot
// hold: the window slides once it reaches 2*Window events, so 2*Window
// must fit in an int.
func (r Retention) validate() error {
	switch r.Mode {
	case RetainFullMode, RetainNoneMode:
		return nil
	case RetainWindowMode:
		if r.Window < 1 || r.Window > math.MaxInt/2 {
			return fmt.Errorf("sim: window retention needs 1 <= Window <= %d, got %d", math.MaxInt/2, r.Window)
		}
		return nil
	default:
		return fmt.Errorf("sim: unknown retention mode %v", r.Mode)
	}
}

// ParseRetention parses the textual retention spec used by the workload
// layer's trace parameter: "full", "window/K" (1 <= K <= MaxInt/2), or
// "none".
func ParseRetention(spec string) (Retention, error) {
	switch {
	case spec == "" || spec == "full":
		return Retention{}, nil
	case spec == "none":
		return RetainNone(), nil
	case strings.HasPrefix(spec, "window/"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "window/"))
		if r := RetainWindow(k); err == nil && r.validate() == nil {
			return r, nil
		}
		return Retention{}, fmt.Errorf("sim: retention %q: want window/K with 1 <= K <= %d", spec, math.MaxInt/2)
	default:
		return Retention{}, fmt.Errorf("sim: unknown retention %q (want full, window/K, none)", spec)
	}
}

// streamDigest is a pair of running FNV-64a accumulators over the
// execution record: one folding events in record order, one folding
// messages in ID (send) order. It is maintained incrementally by the
// engine under bounded retention and recomputed on demand for complete
// traces, so full and none runs of the same Config digest equal (the
// retention-equivalence contract). Payloads and notes are
// deliberately excluded: folding them would force a reflective rendering
// allocation per event on the throughput path, and the delivery schedule
// already pins every structural choice the engine makes.
type streamDigest struct {
	events uint64
	msgs   uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvTime folds an exact rational time: the inline num/den fast path is
// allocation-free; promoted values fall back to the canonical string
// rendering, which is unique per value, so equal times always fold
// identically regardless of representation history.
func fnvTime(h uint64, t Time) uint64 {
	if num, den, ok := t.Inline(); ok {
		h = fnvUint64(h, uint64(num))
		return fnvUint64(h, uint64(den))
	}
	h = fnvUint64(h, ^uint64(0)) // promoted marker, distinct from any inline den
	return fnvString(h, t.String())
}

func (d *streamDigest) init() {
	d.events = fnvOffset64
	d.msgs = fnvOffset64
}

func (d *streamDigest) foldEvent(ev *Event) {
	h := d.events
	h = fnvUint64(h, uint64(ev.Proc))
	h = fnvUint64(h, uint64(ev.Index))
	h = fnvTime(h, ev.Time)
	h = fnvUint64(h, uint64(ev.Trigger))
	if ev.Processed {
		h = fnvUint64(h, 1)
	} else {
		h = fnvUint64(h, 0)
	}
	d.events = h
}

func (d *streamDigest) foldMessage(m *Message) {
	h := d.msgs
	h = fnvUint64(h, uint64(m.ID))
	h = fnvUint64(h, uint64(m.From))
	h = fnvUint64(h, uint64(m.To))
	h = fnvUint64(h, uint64(m.SendStep))
	h = fnvTime(h, m.SendTime)
	h = fnvTime(h, m.RecvTime)
	if m.Dropped {
		// Folded only for dropped messages, so digests of fault-free runs
		// are unchanged byte for byte.
		h = fnvUint64(h, 1)
	}
	d.msgs = h
}

// sum combines the two streams into one digest.
func (d *streamDigest) sum() uint64 {
	return fnvUint64(fnvUint64(fnvOffset64, d.events), d.msgs)
}
