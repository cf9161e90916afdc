package clocksync

import (
	"repro/internal/sim"
)

// Byzantine adversaries for Algorithm 1 experiments. All are deterministic
// given their seed, per the repository's reproducibility rule.

// xorshift is a tiny deterministic PRNG so adversaries do not share state
// with the simulator's delay randomness.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	if v == 0 {
		v = 0x9E3779B97F4A7C15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// Adversaries carry a step budget: a Byzantine process reacting to every
// reception with fresh broadcasts — including receptions from other
// Byzantine processes — would otherwise amplify traffic without bound and
// the simulation would never quiesce. Budgeted misbehavior loses no
// generality for the finite prefixes the experiments examine.

// Rusher broadcasts ticks far ahead of the legitimate clock on every step,
// trying to drag correct clocks forward. With at most f Byzantine
// processes, the f+1 catch-up threshold makes this harmless.
type Rusher struct {
	Ahead  int
	Budget int
	step   int
}

// Step implements sim.Process.
func (r *Rusher) Step(env *sim.Env, msg sim.Message) {
	if r.step >= r.Budget {
		return
	}
	r.step++
	env.Broadcast(Tick{K: r.step * r.Ahead})
}

// Equivocator sends different tick values to different processes in the
// same step — the classic Byzantine behavior the distinct-sender counting
// of Algorithm 1 must withstand.
type Equivocator struct {
	Seed   uint64
	Budget int
	rng    xorshift
	init   bool
	step   int
}

// Step implements sim.Process.
func (e *Equivocator) Step(env *sim.Env, msg sim.Message) {
	if !e.init {
		e.rng = xorshift(e.Seed | 1)
		e.init = true
	}
	if e.step >= e.Budget {
		return
	}
	e.step++
	for q := sim.ProcessID(0); int(q) < env.N(); q++ {
		env.Send(q, Tick{K: e.rng.intn(20)})
	}
}

// Laggard replays old ticks only, trying to hold correct clocks back.
type Laggard struct {
	Budget int
	step   int
}

// Step implements sim.Process.
func (l *Laggard) Step(env *sim.Env, msg sim.Message) {
	if l.step >= l.Budget {
		return
	}
	l.step++
	env.Broadcast(Tick{K: 0})
}

// MalformedSender emits negative ticks and junk payloads, exercising input
// validation at correct processes.
type MalformedSender struct {
	Budget int
	step   int
}

// Step implements sim.Process.
func (m *MalformedSender) Step(env *sim.Env, msg sim.Message) {
	if m.step >= m.Budget {
		return
	}
	m.step++
	env.Broadcast(Tick{K: -3})
	env.Broadcast("junk")
}

// Adversary returns the i-th member of the deterministic Byzantine
// assortment, cycling through the adversary kinds. It is the per-slot
// form of Adversaries, used as the workload.ByzFactory behind the shared
// fault axis (`faults=byz/K`).
func Adversary(i int, seed uint64, budget int) sim.Process {
	switch i % 4 {
	case 0:
		return &Equivocator{Seed: seed + uint64(i), Budget: budget}
	case 1:
		return &Rusher{Ahead: 5, Budget: budget}
	case 2:
		return &Laggard{Budget: budget}
	default:
		return &MalformedSender{Budget: budget}
	}
}

// Adversaries returns a deterministic assortment of Byzantine behaviors
// for f faulty processes (IDs n-f .. n-1), cycling through the adversary
// kinds. Used by experiments and benchmarks.
func Adversaries(n, f int, seed uint64) map[sim.ProcessID]sim.Fault {
	faults := make(map[sim.ProcessID]sim.Fault, f)
	const budget = 60
	for i := 0; i < f; i++ {
		faults[sim.ProcessID(n-1-i)] = sim.ByzantineFault(func() sim.Process { return Adversary(i, seed, budget) })
	}
	return faults
}
