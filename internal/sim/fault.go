package sim

// Fault configures the failure behavior of one process. A process with a
// Fault entry counts against the resilience bound f and is marked faulty in
// the trace (its sent messages are dropped from the execution graph, per
// Definition 1).
//
// Fault maps are validated at Run setup, before any step executes — a
// malformed fault is a configuration error, never silent misbehavior.
// Run rejects: fault-map keys outside [0, N); CrashAfter below NeverCrash
// (-1 is the only negative value with a meaning); scripted sends whose
// To is out of range, whose At is negative, or which cross a link the
// topology does not provide (see the adversary-model note on Script);
// down schedules that overlap, are unsorted, or are combined with
// CrashAfter; and unknown recovery/in-flight policies.
type Fault struct {
	// CrashAfter, when >= 0, makes the process execute only its first
	// CrashAfter computing steps; afterwards receptions still occur but
	// trigger no step. CrashAfter == 0 crashes the process before its
	// wake-up step. Use NeverCrash (-1) for no crash.
	//
	// CrashAfter is the permanent, step-indexed crash; Down is the
	// time-indexed recoverable generalization. Setting both on one Fault
	// is a configuration error.
	CrashAfter int
	// Down is a schedule of half-open intervals [From, Until) of simulated
	// time during which the process is down: receptions still occur at it
	// (or are deferred, per Inflight) but trigger no computing step, the
	// reception/processing split of Section 2 — a crash-stop fault is the
	// special case of a Down interval that never ends. At each interval's
	// end the process recovers and resumes per Recovery. Intervals must be
	// sorted by From and non-overlapping.
	//
	// A process's wake-up is never lost to a down interval: a wake-up time
	// covered by an interval is deferred to that interval's end (under
	// both in-flight policies), so every Down process eventually
	// initializes. A down-then-up process still counts against f and is
	// marked faulty in the trace for the whole run — Definition 1 has no
	// partially-faulty processes, so its messages stay exempt from the
	// execution graph even while it is up.
	Down []Interval
	// Recovery selects the state a process resumes with after each Down
	// interval; the zero value is RecoverDurable. Ignored without Down.
	Recovery RecoveryPolicy
	// Inflight selects the fate of messages arriving during a Down
	// interval; the zero value is InflightDrop. Ignored without Down.
	Inflight InflightPolicy
	// Byzantine, when non-nil, constructs the state machine that replaces
	// the process's correct algorithm for all of its steps. Run calls it
	// once per run at setup, as it calls Config.Spawn, so every run gets a
	// fresh adversary. The Byzantine process may send arbitrary messages
	// (including equivocating payloads) from its steps. CrashAfter still
	// applies, modelling a Byzantine process that eventually goes silent.
	Byzantine func() Process
	// Script injects messages from this process at arbitrary times,
	// independent of any computing step — the fully adversarial behavior
	// permitted of Byzantine processes. Scripted messages are subject to
	// the delay policy like any other message.
	//
	// Adversary model: a Byzantine process controls its own behavior, not
	// the network's wiring. Scripted sends therefore pass the same checks
	// as Env.Send — Run rejects configurations whose ScriptedSend.To is out
	// of range or crosses a link the topology does not provide (self-sends
	// are always legal). An adversary that could forge traffic on
	// non-existent links would be strictly stronger than the paper's model,
	// where faulty processes are still bound by the point-to-point network.
	Script []ScriptedSend
}

// NeverCrash is the CrashAfter value meaning the process does not crash.
const NeverCrash = -1

// ScriptedSend is a message a Byzantine process spontaneously emits.
type ScriptedSend struct {
	At      Time
	To      ProcessID
	Payload any
}

// Crash returns a Fault that crash-stops the process after k computing
// steps.
func Crash(k int) Fault { return Fault{CrashAfter: k} }

// Silent returns a Fault for a process that is crashed from the start: it
// never executes any step, not even its wake-up.
func Silent() Fault { return Fault{CrashAfter: 0} }

// ByzantineFault returns a Fault that runs a fresh adversary from
// newProc instead of the correct algorithm.
func ByzantineFault(newProc func() Process) Fault {
	return Fault{CrashAfter: NeverCrash, Byzantine: newProc}
}
