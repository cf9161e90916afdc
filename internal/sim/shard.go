package sim

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/rat"
)

// Sharded execution: the conservative-lookahead parallel engine mode
// (DESIGN.md decision 12).
//
// Processes are partitioned into contiguous ID ranges (weighted by CSR
// out-degree when the topology is sparse, so dense hubs do not pile
// into one shard), each shard owning its own delivery queue. The run then
// alternates two phases per window:
//
//   - parallel drain: with H = min(next event over all shards) + L, where
//     L = minDelayBound(Delays) > 0, every shard pops and executes all of
//     its deliveries with time < H concurrently. No message sent at time
//     t >= minT can be received before t + L >= H — wake-time clamping,
//     InflightHold deferral, and spike penalties only push receive times
//     later — so nothing drained this window can depend on a send made
//     this window. Steps buffer their outputs (windowEvent); nothing
//     global is touched.
//
//   - serial merge: the buffered window is walked in the exact global
//     (time, seq) delivery order and, per event, the serial loop's tail
//     runs unchanged — in-flight bookkeeping, then sendMessage per
//     buffered send (all RNG draws, message IDs, queue seqs, digest
//     folds), then recordEvent. Every RNG consumer therefore draws in
//     exactly the serial engine's order, which is what makes traces,
//     StreamHash, and verdicts byte-identical at any shard count.
//
// Merge-phase sends route to the destination shard's inbox and are
// flushed into its queue at the next drain. When a window could cross the
// MaxEvents budget, the run finishes on a serial tail (popping the exact
// global minimum across shard queues) so the truncation point — and the
// process states feeding domain verdicts — match the serial engine
// event for event.

// maxShards caps the shard count: beyond the window's parallelism there
// is only merge overhead, and the coordinator's per-event scan over
// shards is linear in this.
const maxShards = 64

// windowEvent is one drained-but-unmerged reception: the popped delivery
// (its (at, seq) is the merge sort key), the event as the serial engine
// would record it, its trigger message, and the [start, end) range of the
// step's buffered sends in the shard's sends arena.
type windowEvent struct {
	d          delivery
	ev         Event
	m          Message
	start, end int32
}

// shardState is one shard's working set. Pooled across runs like the rest
// of the Engine (see Engine.shardPool).
type shardState struct {
	lo, hi int // owned process ID range [lo, hi)

	queue bucketQueue // the shard's calendar, sized to its population

	// inbox receives deliveries routed to this shard during the serial
	// phases (setup and merge); the shard flushes it into its queue at
	// the start of its next drain. inboxMin tracks the minimum pending
	// time for the coordinator's next-event scan.
	inbox    []delivery
	inboxMin Time

	window   []windowEvent
	sends    []pendingSend // arena of buffered step outputs, per window
	out      []pendingSend // Env send scratch, recycled between steps
	env      Env           // per-shard step environment (see Engine.env)
	mergeIdx int

	start  chan struct{}   // window start signal for this shard's worker
	labels context.Context // pprof labels: abc_shard=i, abc_phase=drain
	panicv any             // recovered drain panic, re-raised at the barrier
}

// setupShards decides the execution mode for one run. It leaves
// e.shards nil (serial path) unless cfg.Shards asks for parallelism AND
// the configuration is window-safe: no Monitor/Until callback (both
// observe global order mid-run), no amnesia recovery (respawning calls
// cfg.Spawn mid-drain), no negative start times (the
// growing-delay bound assumes send times >= 0), and a delay policy with a
// derivable positive minimum — zero lookahead means zero-width windows.
// cfg.Delays must already be compiled.
func (e *Engine) setupShards(cfg Config) {
	e.shards = nil
	e.routeDirect = false
	p := cfg.Shards
	if p > cfg.N {
		p = cfg.N
	}
	if p > maxShards {
		p = maxShards
	}
	if p <= 1 || cfg.Monitor != nil || cfg.Until != nil {
		return
	}
	for _, f := range cfg.Faults {
		if len(f.Down) > 0 && f.Recovery == RecoverAmnesia {
			return
		}
	}
	for _, t := range cfg.StartTimes {
		if t.Sign() < 0 {
			return
		}
	}
	look, ok := minDelayBound(cfg.Delays)
	if !ok || look.Sign() <= 0 {
		return
	}

	bounds := shardRanges(cfg.N, p, cfg.Topology)
	if cap(e.shardPool) < p {
		pool := make([]shardState, p)
		copy(pool, e.shardPool)
		e.shardPool = pool
	}
	e.shardPool = e.shardPool[:p]
	for i := range e.shardPool {
		s := &e.shardPool[i]
		s.lo, s.hi = bounds[i], bounds[i+1]
		s.queue.reset(s.hi - s.lo)
		s.inbox = s.inbox[:0]
		s.window = s.window[:0]
		s.sends = s.sends[:0]
		s.mergeIdx = 0
		s.panicv = nil
		if l := cfg.Topology; l != nil && cap(s.out) < l.MaxOutDegree()+1 {
			s.out = make([]pendingSend, 0, l.MaxOutDegree()+1)
		}
		if s.labels == nil {
			s.labels = pprof.WithLabels(context.Background(),
				pprof.Labels("abc_shard", strconv.Itoa(i), "abc_phase", "drain"))
		}
	}
	if e.mergeLabels == nil {
		e.mergeLabels = pprof.WithLabels(context.Background(), pprof.Labels("abc_phase", "merge"))
		e.barrierLabels = pprof.WithLabels(context.Background(), pprof.Labels("abc_phase", "barrier"))
	}
	e.lookahead = look
	e.shards = e.shardPool
}

// teardownShards drops the per-run sharded state after the Result is
// built. Queue contents (truncated runs may leave some) hold no payload
// references and are reset by the next sharded setup.
func (e *Engine) teardownShards() {
	for i := range e.shards {
		s := &e.shards[i]
		s.inbox = s.inbox[:0]
		s.env = Env{}
	}
	e.shards = nil
	e.routeDirect = false
	e.winH = rat.Zero
	e.lookahead = rat.Zero
}

// shardRanges cuts [0, n) into p contiguous ranges. With a CSR topology
// the cuts balance out-degree+1 (each process's broadcast fan-out plus
// its wake-up/self traffic) so hub-heavy shards do not serialize the
// window; otherwise the ranges are equal-sized. Every shard gets at least
// one process (p <= n).
func shardRanges(n, p int, links *Links) []int {
	bounds := make([]int, p+1)
	bounds[p] = n
	if links == nil {
		for i := 1; i < p; i++ {
			bounds[i] = i * n / p
		}
		return bounds
	}
	total := n
	for q := 0; q < n; q++ {
		total += len(links.Out(ProcessID(q)))
	}
	acc, i := 0, 1
	for q := 0; q < n && i < p; q++ {
		acc += len(links.Out(ProcessID(q))) + 1
		for i < p && acc*p >= total*i {
			bounds[i] = q + 1
			i++
		}
	}
	for ; i < p; i++ {
		bounds[i] = n
	}
	// Degenerate weight distributions can collapse cuts; re-spread so
	// ranges stay strictly increasing within [0, n].
	for i := 1; i < p; i++ {
		if lo := bounds[i-1] + 1; bounds[i] < lo {
			bounds[i] = lo
		}
		if hi := n - (p - i); bounds[i] > hi {
			bounds[i] = hi
		}
	}
	return bounds
}

// shardOf returns the shard owning process p. Shard counts are small
// (<= maxShards), so a linear scan over the contiguous bounds wins over
// anything cleverer.
func (e *Engine) shardOf(p ProcessID) *shardState {
	sh := e.shards
	for i := range sh {
		if int(p) < sh[i].hi {
			return &sh[i]
		}
	}
	return &sh[len(sh)-1]
}

// enqueue schedules one delivery for process to: directly onto the
// engine queue on the serial path, routed to the owning shard otherwise.
// During the serial phases of a sharded run (setup, merge) deliveries
// land in the shard's inbox; during the serial tail they go straight
// into shard queues.
func (e *Engine) enqueue(d delivery, to ProcessID) {
	if e.shards == nil {
		e.queue.push(d)
		return
	}
	s := e.shardOf(to)
	if e.routeDirect {
		s.queue.push(d)
		return
	}
	if len(s.inbox) == 0 || d.at.Less(s.inboxMin) {
		s.inboxMin = d.at
	}
	s.inbox = append(s.inbox, d)
}

// loopSharded is the sharded counterpart of loop. The pprof.Do wrapper
// tags the whole run (and restores the caller's labels afterwards); the
// coordinator switches its own labels between the drain/barrier/merge
// phases per window, and each worker is labeled with its shard.
func (e *Engine) loopSharded(maxEvents int) (truncated bool) {
	pprof.Do(context.Background(), pprof.Labels("abc_engine", "sharded"), func(context.Context) {
		truncated = e.windowLoop(maxEvents)
	})
	return truncated
}

func (e *Engine) windowLoop(maxEvents int) bool {
	sh := e.shards
	var wg sync.WaitGroup
	for i := 1; i < len(sh); i++ {
		s := &sh[i]
		// Buffer 1 so the coordinator's window-start send never blocks on
		// a worker that has signaled done but not yet looped back.
		s.start = make(chan struct{}, 1)
		go func() {
			pprof.SetGoroutineLabels(s.labels)
			for range s.start {
				e.drainShard(s, &wg)
			}
		}()
	}
	defer func() {
		for i := 1; i < len(sh); i++ {
			close(sh[i].start)
			sh[i].start = nil
		}
	}()

	hasMax := e.cfg.MaxTime.Sign() > 0
	for {
		pending := 0
		for i := range sh {
			pending += sh[i].queue.len() + len(sh[i].inbox)
		}
		if pending == 0 {
			return false
		}
		total := e.trace.TotalEvents()
		if total >= maxEvents {
			return true
		}
		minT, ok := e.nextEventTime()
		if !ok {
			return false
		}
		if hasMax && minT.Greater(e.cfg.MaxTime) {
			// Everything left is beyond the horizon — the serial engine
			// truncates on popping the first such delivery.
			return true
		}
		if total+pending > maxEvents {
			// A window executes at most `pending` events (window sends
			// always land in later windows), so under this guard no window
			// can cross the budget; past it, the serial tail reproduces
			// the serial engine's exact truncation point.
			return e.drainSerialTail(maxEvents)
		}
		e.winH = minT.Add(e.lookahead)
		e.winHKey = deliveryKey(e.winH)
		wg.Add(len(sh) - 1)
		for i := 1; i < len(sh); i++ {
			sh[i].start <- struct{}{}
		}
		pprof.SetGoroutineLabels(sh[0].labels)
		e.drainShard(&sh[0], nil)
		pprof.SetGoroutineLabels(e.barrierLabels)
		wg.Wait()
		for i := range sh {
			if p := sh[i].panicv; p != nil {
				sh[i].panicv = nil
				panic(p)
			}
		}
		pprof.SetGoroutineLabels(e.mergeLabels)
		e.mergeWindow()
	}
}

// nextEventTime is the exact minimum pending delivery time across all
// shard queues and inboxes.
func (e *Engine) nextEventTime() (Time, bool) {
	var minT Time
	have := false
	for i := range e.shards {
		s := &e.shards[i]
		if d, ok := s.queue.peek(); ok && (!have || d.at.Less(minT)) {
			minT, have = d.at, true
		}
		if len(s.inbox) > 0 && (!have || s.inboxMin.Less(minT)) {
			minT, have = s.inboxMin, true
		}
	}
	return minT, have
}

// drainShard flushes the shard's inbox and executes every owned delivery
// below the window horizon. Runs concurrently across shards: it reads
// only engine state frozen during the parallel phase (pend/trace message
// stores, cfg, down schedules) and writes only per-process scratch the
// shard owns (stepCount/eventCount rows in [lo, hi)) and its own buffers.
// Panics (from process Steps) are captured and re-raised by the
// coordinator after the barrier.
func (e *Engine) drainShard(s *shardState, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	defer func() {
		if r := recover(); r != nil {
			s.panicv = r
		}
	}()
	for _, d := range s.inbox {
		s.queue.push(d)
	}
	s.inbox = s.inbox[:0]
	hasMax := e.cfg.MaxTime.Sign() > 0
	for {
		d, ok := s.queue.peek()
		if !ok {
			break
		}
		// Monotone float keys decide the horizon check in one branch;
		// only key ties need the exact comparison.
		if d.key > e.winHKey || (d.key == e.winHKey && !d.at.Less(e.winH)) {
			break
		}
		if hasMax && d.at.Greater(e.cfg.MaxTime) {
			break // pops ascend, so everything left is beyond the horizon
		}
		s.queue.pop()
		e.stepShard(s, d)
	}
}

// stepShard executes one drained delivery: the crash/down gating and the
// process step of the serial loop, with all globally-ordered effects
// (sends, recording, RNG draws) deferred to the merge as a windowEvent.
func (e *Engine) stepShard(s *shardState, d delivery) {
	var m Message
	if e.cfg.Retention.Mode == RetainFullMode {
		m = e.trace.Msgs[d.msg]
	} else {
		m = e.pend[int(d.msg-e.pendBase)]
	}
	p := m.To
	crashed := e.crashAfter[p] != NeverCrash && e.stepCount[p] >= e.crashAfter[p]
	if !crashed && len(e.down[p]) > 0 {
		crashed = downAt(e.down[p], m.RecvTime)
	}
	// Amnesia respawns cannot occur here: setupShards gates them off.
	ev := Event{
		Proc:    p,
		Index:   e.eventCount[p],
		Time:    m.RecvTime,
		Trigger: m.ID,
	}
	e.eventCount[p]++
	start := int32(len(s.sends))
	if !crashed {
		s.env = Env{
			self:      p,
			n:         e.cfg.N,
			stepIndex: e.stepCount[p],
			links:     e.cfg.Topology,
			out:       s.out[:0],
		}
		e.procs[p].Step(&s.env, m)
		e.stepCount[p]++
		ev.Processed = true
		ev.Note = s.env.note
		s.sends = append(s.sends, s.env.out...)
		s.out = s.env.out[:0]
		clearSends(s.env.out)
	}
	s.window = append(s.window, windowEvent{d: d, ev: ev, m: m, start: start, end: int32(len(s.sends))})
}

// mergeWindow replays the drained window in the exact global (time, seq)
// order, running the serial loop's per-event tail: in-flight bookkeeping,
// the send fan-out (every RNG draw, message ID, queue seq, and digest
// fold happens here, in serial order), then recordEvent. Shard windows
// are already sorted (pops ascend), so this is a k-way merge on the head
// deliveries.
func (e *Engine) mergeWindow() {
	sh := e.shards
	for {
		best := -1
		var bd delivery
		for i := range sh {
			s := &sh[i]
			if s.mergeIdx < len(s.window) {
				if d := s.window[s.mergeIdx].d; best < 0 || deliveryLess(d, bd) {
					best, bd = i, d
				}
			}
		}
		if best < 0 {
			break
		}
		s := &sh[best]
		we := &s.window[s.mergeIdx]
		s.mergeIdx++
		if e.cfg.Retention.Mode != RetainFullMode {
			e.markDelivered(int(we.d.msg - e.pendBase))
		}
		for _, out := range s.sends[we.start:we.end] {
			e.sendMessage(we.ev.Proc, we.ev.Index, we.ev.Time, out.to, out.payload)
		}
		e.recordEvent(we.ev, we.m)
	}
	for i := range sh {
		s := &sh[i]
		clearSends(s.sends)
		s.sends = s.sends[:0]
		for j := range s.window {
			s.window[j] = windowEvent{}
		}
		s.window = s.window[:0]
		s.mergeIdx = 0
	}
}

// drainSerialTail finishes a sharded run one event at a time in exact
// global order — the same body as the serial loop, popping the minimum
// across shard queues — so MaxEvents truncation stops at precisely the
// event the serial engine would stop at (the final process states feed
// domain verdicts and must match event for event).
func (e *Engine) drainSerialTail(maxEvents int) (truncated bool) {
	e.routeDirect = true
	sh := e.shards
	for i := range sh {
		s := &sh[i]
		for _, d := range s.inbox {
			s.queue.push(d)
		}
		s.inbox = s.inbox[:0]
	}
	for {
		best := -1
		var bd delivery
		for i := range sh {
			if d, ok := sh[i].queue.peek(); ok && (best < 0 || deliveryLess(d, bd)) {
				best, bd = i, d
			}
		}
		if best < 0 {
			return false
		}
		if e.trace.TotalEvents() >= maxEvents {
			return true
		}
		sh[best].queue.pop()
		m := e.takeDelivery(bd)
		if e.cfg.MaxTime.Sign() > 0 && m.RecvTime.Greater(e.cfg.MaxTime) {
			return true
		}
		if e.stepEvent(m) {
			return false
		}
	}
}
