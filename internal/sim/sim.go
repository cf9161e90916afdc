package sim

// Config describes one simulation run. It is a value: it holds data,
// constructors and predicates, and the engine builds every stateful
// object (process state machines, Byzantine adversaries, RNG, queues)
// inside Run, so running one Config twice gives the same execution.
type Config struct {
	// N is the number of processes.
	N int
	// Spawn creates the correct-process state machine for process p. Run
	// calls it once per process at setup (and again on each amnesia
	// recovery), so it must return a fresh machine on every call.
	// Processes with a Byzantine fault take Fault.Byzantine instead.
	Spawn func(p ProcessID) Process
	// Faults maps process IDs to their failure behavior. Processes not
	// present are correct.
	Faults map[ProcessID]Fault
	// Net, when non-nil, enables the message-level fault layer: seeded
	// deterministic drop/duplicate/delay-spike rules and transient link
	// partitions, validated at Run setup and applied at send time in the
	// deterministic delivery order. nil is a perfect network — and draws
	// nothing from the RNG, so legacy traces are untouched byte for byte.
	Net *NetFaults
	// Delays assigns end-to-end delays; required.
	Delays DelayPolicy
	// Topology is the communication graph; nil means fully connected.
	// Build it with NewLinks or the generators Ring, Torus, RandomRegular,
	// ScaleFree, Islands, or ParseTopology; it must span exactly N
	// processes. Broadcasts follow its precomputed neighbor lists.
	// Self-delivery is always available regardless of topology, and
	// wake-up delivery is unaffected by it.
	Topology *Links
	// Seed seeds the deterministic random source used by delay policies.
	Seed int64
	// MaxEvents bounds the number of receive events; 0 means the default
	// of 200000. Exceeding the bound stops the run (Result.Truncated).
	MaxEvents int
	// MaxTime, when positive, stops the run once simulated time exceeds it.
	MaxTime Time
	// Until, when non-nil, is evaluated after every computing step; the run
	// stops once it returns true. It receives the process state machines
	// (indexable by ProcessID) for inspection.
	Until func(procs []Process) bool
	// Monitor, when non-nil, observes the live trace after every recorded
	// receive event (check-as-you-simulate). A non-nil return stops the
	// run immediately; the error lands in Result.MonitorErr. The argument
	// is the run's own growing trace — monitors must not mutate it, and
	// anything retained from it aliases the returned Result.Trace.
	Monitor func(t *Trace) error
	// StartTimes optionally staggers wake-up times; nil means all zero.
	StartTimes []Time
	// Retention selects how much of the trace the run keeps (see
	// RetainWindow, RetainNone, ParseRetention). The zero value keeps the
	// complete trace. Bounded retention trades Trace completeness for
	// memory: see Trace.Complete and the TotalEvents/StreamHash
	// accessors, which work in every mode.
	Retention Retention
	// Shards, when > 1, asks the engine to execute the run on that many
	// process shards with a conservative lookahead window (see shard.go):
	// shards drain their calendar queues in parallel up to the global safe
	// horizon, and the window is merged serially in the exact (time, seq)
	// delivery order, so traces, digests, and verdicts are byte-identical
	// at every shard count — sharding only changes wall-clock time. 0 and
	// 1 select the serial engine. Configurations the conservative window
	// cannot handle (Monitor/Until callbacks, amnesia recovery, negative
	// start times, or a delay policy with no positive lower bound, the
	// zero-lookahead case) silently fall back to the serial path;
	// Result.Shards reports the mode actually used. Byzantine processes
	// shard like correct ones: each run builds its own adversaries.
	Shards int
}

// Result of a run.
type Result struct {
	Trace *Trace
	// Procs are the final process state machines, indexable by ProcessID.
	Procs []Process
	// Truncated is true when the run stopped due to MaxEvents or MaxTime
	// rather than quiescence or the Until predicate.
	Truncated bool
	// MonitorErr is the error with which Config.Monitor stopped the run,
	// nil when no monitor was set or it never objected.
	MonitorErr error
	// Shards is the shard count the engine actually executed with: 1 for
	// the serial path (including every fallback from a Config.Shards > 1
	// request — see Config.Shards for the fallback conditions), the
	// effective shard count otherwise. Results are identical either way;
	// the field exists so tests can assert which path ran.
	Shards int
}

// defaultMaxEvents bounds runaway executions of non-terminating algorithms
// such as Algorithm 1, whose clocks progress forever (Theorem 1).
const defaultMaxEvents = 200000

// Run executes the configured simulation to quiescence or a stop condition
// and returns the recorded trace. It returns an error only for invalid
// configurations; algorithm panics propagate.
//
// Run is a convenience wrapper over a throwaway Engine; callers executing
// many simulations (fleet sweeps, internal/runner workers) should hold an
// Engine and call its Run method to amortize the scheduler's allocations.
func Run(cfg Config) (*Result, error) {
	return new(Engine).Run(cfg)
}

// Wakeup is the payload of the external message that triggers each
// process's first computing step.
type Wakeup struct{}
