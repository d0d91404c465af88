package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Parallel is a sharded discrete-event domain: ranks are partitioned into
// contiguous blocks, each block owns a private Engine (calendar queue,
// event pool, clock), and the blocks advance conservatively in rounds
// bounded by the lookahead L: the minimum distance, against the source
// clock, of any cross-shard event.
//
// # Synchronization protocol (published slots, data-driven horizons)
//
// Every shard j publishes its earliest pending timestamp E_j — the minimum
// over its calendar and its staged-but-unadmitted inbox — into a padded
// atomic slot. Each round, the coordinator scans the slots lock-free and
// computes a per-shard horizon
//
//	H_i = min over j != i of (E_j + L)
//
// the earliest time any event pending at another shard, directly or through
// relays, can reach shard i. Shards whose earliest event lies below their
// horizon run the round in parallel: each admits staged arrivals strictly
// below H_i into its calendar in (timestamp, source shard, source
// sequence) order, fires local events strictly below H_i, republishes its
// slot, and arrives at the barrier. Shards with nothing below their
// horizon are elided — no wakeup, no barrier arrival.
//
// The static horizon alone is not safe: it bounds arrivals seeded by
// events pending at OTHER shards, but a shard's own window can seed a
// reflection — fire an event, stage a cross send, and have the chain
// relay back below a clock that advanced too far. The reflection bound is
// enforced dynamically instead of pessimistically: a window starts with no
// self-bound, and the moment it stages a cross event at time t, its bound
// clamps to t + L (the earliest any chain seeded by that send can return).
// Until the first send, any local event below H_i is safe — a future send
// happens at or after the current clock, so its reflection lands strictly
// later. A round that stages nothing therefore keeps its full horizon; when
// only one shard has events at all, H_i is unbounded and a
// communication-free stretch drains in a single round (window coalescing). Once the round ends, the staged send is
// visible in the destination's published slot and the static term takes
// over the protection.
//
// The protocol takes no locks on the happy path: the slot scan, the
// horizon computation, the work-queue dispatch, and the barrier are all
// plain atomics. Runner goroutines are capped at GOMAXPROCS (shard
// semantics are unchanged — one goroutine just runs several shards'
// windows per round), and barrier waits spin briefly before parking on a
// per-waiter channel, so idle cores are released instead of burned.
//
// # Exactness
//
// Firing order within a shard is exactly the engine's (timestamp, seq)
// order, and the seq assignment is deterministic: local events are numbered
// in execution order (deterministic given a deterministic workload), and
// staged arrivals are admitted at a deterministic round in a deterministic
// sort order. The conservative horizon makes the admissible staged set
// execution-independent: a cross event staged by shard j during a round
// targets a time >= E_j + L >= H_i (CrossAt enforces L against the source
// clock), so it is never admissible in the round that stages it — by the
// time a round opens, every event that can land below any shard's horizon
// is already in that shard's inbox, no matter how previous rounds' shards
// interleaved in real time. Admission batches are therefore disjoint,
// consecutive timestamp bands, and every sharding yields the same per-rank
// event sequences; the differential tests in psim_test.go and
// internal/bench pin this against the serial engine and the heap-backed
// reference engine.
//
// # Inbox bound
//
// Inboxes are append-only slices drained every round a shard runs, so
// occupancy is bounded by the cross traffic of the rounds since the shard
// last ran. There is no artificial capacity that could block a mid-window
// sender (a block inside a window would deadlock the barrier).
type Parallel struct {
	shards    []*pshard
	owner     []int // rank -> shard index
	lookahead Duration

	// halt is the domain-wide stop flag: checked by every shard before
	// every event, armed by Stop from any goroutine.
	halt atomic.Bool

	// slots[i] is shard i's published state, read lock-free by the
	// coordinator's scan. One cache line per shard.
	slots []pslot

	// Round coordination. The coordinator writes the round plan (horizons,
	// active set), then resets arrived, then cursor and nActive — in that
	// order — then bumps round; the bump is the release fence runners
	// synchronize on. The cursor packs the round's low 32 bits into its
	// high half and the work-queue index into its low half, and claims are
	// CAS increments that carry the expected tag, so a straggler still
	// inside runActive when the next plan is published can never claim a
	// slot against the new plan with a stale index (see runActive).
	round   paddedUint64
	cursor  paddedUint64 // (round tag << 32) | work-queue index into active[:nActive]
	arrived paddedInt64  // barrier arrivals this round
	nActive paddedInt64
	quit    atomic.Bool
	quitAck atomic.Int64

	active  []*pshard // round plan: the shards that run, coordinator-written
	workers []parker  // runner goroutines beyond the coordinator
	nw      int       // runners actually spawned by this Run
	coord   parker

	eMin []uint64 // scratch: per-shard earliest pending, coordinator-only

	rounds uint64 // rounds executed (stats)
	elided uint64 // shard-rounds skipped by idle elision (stats)
}

// noTime is the published-slot encoding of "no pending event". Time is a
// non-negative int64, so uint64(t) preserves order and leaves ^0 free.
const noTime = ^uint64(0)

// timeUnbounded marks a horizon beyond every representable timestamp: the
// shard drains its calendar completely instead of running a bounded
// window.
const timeUnbounded = Time(1<<63 - 1)

// pslot is one shard's published state: next is the shard's calendar
// minimum as of its last window, inboxMin the minimum staged-but-unadmitted
// inbox timestamp (maintained under the inbox lock by senders and drains).
// Padded to its own cache line so neighbor publishes don't false-share.
type pslot struct {
	next     atomic.Uint64
	inboxMin atomic.Uint64
	_        [112]byte
}

type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// parker is one waiter's parking slot for the bounded-spin-then-park
// barrier. state is the CAS handshake (awake/parked); wake carries at most
// one token. The invariant — a token is sent only after a successful
// parked->awake CAS and consumed by exactly one receive — keeps the
// channel empty whenever its owner is not parked.
type parker struct {
	state atomic.Int32
	wake  chan struct{}
	_     [52]byte
}

const (
	pkAwake  = 0
	pkParked = 1
)

// Barrier spin budget: pure loads first (a window on another core usually
// ends within a microsecond), then yielding spins, then park. On a host
// with fewer cores than waiters the pure spins fail fast and the Gosched
// phase hands the CPU to whoever holds the work.
const (
	spinPure  = 4096
	spinYield = 64
)

// pshard is one shard: a private engine plus the cross-shard inbox.
type pshard struct {
	id  int
	eng *Engine
	par *Parallel

	// horizon is this round's static bound, written by the coordinator
	// during planning (before the round bump that releases runners).
	horizon Time

	// guard is the dynamic reflection bound: reset to unbounded at window
	// start, clamped by CrossAt to staged-time + return-distance on the
	// first (earliest) cross send of the window. Only the goroutine
	// executing this shard's window touches it; the engine re-reads it
	// before every event.
	guard Time

	// crossSeq stamps outgoing cross-shard events from this shard, in
	// execution order; the (when, src shard, seq) triple is the
	// deterministic admission order at the destination. Only this shard's
	// window execution touches it.
	crossSeq uint64

	mu    chan struct{} // 1-slot semaphore guarding inbox (see lock())
	inbox []crossEvent

	batch []crossEvent // drain scratch, window-execution only
}

type crossEvent struct {
	when Time
	src  int32
	seq  uint64
	fn   func()
}

func (sh *pshard) lock()   { sh.mu <- struct{}{} }
func (sh *pshard) unlock() { <-sh.mu }

// NewParallel builds a domain of `shards` engines over `ranks` ranks with
// the given conservative lookahead. shards is clamped to ranks; a single
// shard degenerates to exactly the serial engine (no goroutines, no
// windows). lookahead must be positive when shards > 1 — with zero
// lookahead no window can admit parallelism conservatively.
func NewParallel(ranks, shards int, lookahead Duration) *Parallel {
	if ranks <= 0 {
		panic("sim: NewParallel needs at least one rank")
	}
	if shards <= 0 {
		panic("sim: NewParallel needs at least one shard")
	}
	if shards > ranks {
		shards = ranks
	}
	if shards > 1 && lookahead <= 0 {
		panic("sim: sharded execution needs a positive lookahead")
	}
	p := &Parallel{
		lookahead: lookahead,
		owner:     make([]int, ranks),
	}
	for r := range p.owner {
		p.owner[r] = blockOwner(r, ranks, shards)
	}
	p.shards = make([]*pshard, shards)
	for s := range p.shards {
		p.shards[s] = &pshard{id: s, eng: NewEngine(), par: p, mu: make(chan struct{}, 1)}
	}
	p.slots = make([]pslot, shards)
	p.eMin = make([]uint64, shards)
	p.active = make([]*pshard, shards)
	p.workers = make([]parker, shards-1)
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
	}
	p.coord.wake = make(chan struct{}, 1)
	return p
}

// RankEngine returns the engine owning rank's events.
func (p *Parallel) RankEngine(rank int) *Engine { return p.shards[p.owner[rank]].eng }

// Shards returns the shard count.
func (p *Parallel) Shards() int { return len(p.shards) }

// ShardOf returns the shard index owning rank.
func (p *Parallel) ShardOf(rank int) int { return p.owner[rank] }

// Rounds returns how many synchronization rounds Run has executed.
func (p *Parallel) Rounds() uint64 { return p.rounds }

// ElidedShardRounds returns how many shard-rounds idle elision skipped:
// shards that were not woken for a round because they had nothing below
// their horizon.
func (p *Parallel) ElidedShardRounds() uint64 { return p.elided }

// Fired sums the event counts of every shard.
func (p *Parallel) Fired() uint64 {
	var n uint64
	for _, sh := range p.shards {
		n += sh.eng.Fired()
	}
	return n
}

// Pending sums the scheduled events of every shard, including staged
// cross-shard events not yet admitted.
func (p *Parallel) Pending() int {
	n := 0
	for _, sh := range p.shards {
		n += sh.eng.Pending()
		sh.lock()
		n += len(sh.inbox)
		sh.unlock()
	}
	return n
}

// Now returns the maximum shard clock: the time of the last fired event once
// Run has returned. Mid-run it is only a lower bound on global progress.
func (p *Parallel) Now() Time {
	var t Time
	for _, sh := range p.shards {
		if n := sh.eng.Now(); n > t {
			t = n
		}
	}
	return t
}

// Stop arms a domain-wide stop: every shard halts before its next event and
// Run returns at the current round boundary. Safe to call from any shard's
// execution (a communication-engine failure handler, typically) or from
// outside the domain entirely. Like Engine.Stop, the armed stop is consumed
// by the run it ends — or by the next Run when armed while idle.
func (p *Parallel) Stop() { p.halt.Store(true) }

// CrossAt schedules fn at absolute time t on dst's engine from within src's
// execution. Cross-shard calls must respect the lookahead measured against
// the source shard's clock; violations panic, because admitting such an
// event could require rewinding a destination shard that already advanced
// past t.
func (p *Parallel) CrossAt(src, dst int, t Time, fn func()) {
	s, d := p.owner[src], p.owner[dst]
	if s == d {
		p.shards[d].eng.At(t, fn)
		return
	}
	se := p.shards[s].eng
	if t < se.now.Add(p.lookahead) {
		panic(fmt.Sprintf("sim: cross-shard event at %v from rank %d (clock %v) violates lookahead %v",
			t, src, se.now, p.lookahead))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ssh := p.shards[s]
	seq := ssh.crossSeq
	ssh.crossSeq++
	// Clamp the source window's reflection guard: a chain seeded by this
	// send can return no earlier than the staged time plus one more hop.
	if g := t.Add(p.lookahead); g < ssh.guard {
		ssh.guard = g
	}
	dsh := p.shards[d]
	dsh.lock()
	dsh.inbox = append(dsh.inbox, crossEvent{when: t, src: int32(s), seq: seq, fn: fn})
	if w := uint64(t); w < p.slots[d].inboxMin.Load() {
		p.slots[d].inboxMin.Store(w)
	}
	dsh.unlock()
}

// Run executes the sharded simulation until every calendar and inbox drains
// or a stop is armed, and returns the time of the last fired event. Runner
// goroutines are capped at GOMAXPROCS-1 beyond the caller's (running more
// runnable goroutines than cores would only add scheduler churn to the
// barrier); the caller's goroutine plans rounds, runs shard windows off the
// same work queue as the runners, and coordinates the barrier.
func (p *Parallel) Run() Time {
	n := len(p.shards)
	if n == 1 {
		// Degenerate case: the serial engine IS the one shard (CrossAt
		// never stages), so serial semantics apply verbatim.
		return p.shards[0].eng.Run()
	}

	// Seed the published slots from current state: events scheduled since
	// the last Run (setup, or a stopped run's leftovers) predate any
	// publishing window.
	for i, sh := range p.shards {
		if w, ok := sh.eng.peek(); ok {
			p.slots[i].next.Store(uint64(w))
		} else {
			p.slots[i].next.Store(noTime)
		}
		sh.lock()
		min := noTime
		for j := range sh.inbox {
			if w := uint64(sh.inbox[j].when); w < min {
				min = w
			}
		}
		p.slots[i].inboxMin.Store(min)
		sh.unlock()
	}

	nw := runtime.GOMAXPROCS(0)
	if nw > n {
		nw = n
	}
	nw-- // the calling goroutine is runner zero
	p.nw = nw
	p.quit.Store(false)
	p.quitAck.Store(0)
	base := p.round.Load()
	for i := 0; i < nw; i++ {
		go p.work(&p.workers[i], base)
	}

	for !p.halt.Load() {
		if !p.openRound() {
			break
		}
		if p.anyShardStopped() {
			break
		}
	}

	// Dismiss the runners through one final empty round, using the same
	// publish sequence as openRound so stragglers cannot misread the plan.
	p.quit.Store(true)
	r := p.round.Load() + 1
	p.arrived.Store(0)
	p.cursor.Store(cursorTag(r))
	p.nActive.Store(0)
	p.round.Store(r)
	for i := 0; i < nw; i++ {
		p.unpark(&p.workers[i])
	}
	for p.quitAck.Load() < int64(nw) {
		runtime.Gosched()
	}

	// Consume stop flags, mirroring Engine.Run.
	p.halt.Store(false)
	for _, sh := range p.shards {
		sh.eng.stopped = false
	}
	return p.Now()
}

// openRound plans one round from the published slots, releases the
// runners, executes shard windows off the shared work queue, and waits out
// the barrier. Returns false when no shard has anything pending. The whole
// happy path is lock-free and allocation-free: a slot scan, the horizon
// arithmetic, atomic plan publication, and the spin-then-park barrier.
func (p *Parallel) openRound() bool {
	// Scan the published slots: E_i = min(calendar next, staged inbox min).
	found := false
	for i := range p.slots {
		e := p.slots[i].next.Load()
		if im := p.slots[i].inboxMin.Load(); im < e {
			e = im
		}
		p.eMin[i] = e
		if e != noTime {
			found = true
		}
	}
	if !found {
		return false
	}

	// Horizons are purely data-driven: a shard with no pending event at
	// any other shard is unbounded and drains in one round.
	nact := 0
	for i, sh := range p.shards {
		h := noTime
		for j := range p.shards {
			if j == i || p.eMin[j] == noTime {
				continue
			}
			if b := satAdd(p.eMin[j], p.lookahead); b < h {
				h = b
			}
		}
		if h > uint64(timeUnbounded) {
			sh.horizon = timeUnbounded
		} else {
			sh.horizon = Time(h)
		}
		if p.eMin[i] >= h {
			p.elided++
			continue
		}
		p.active[nact] = sh
		nact++
	}
	p.rounds++

	// Publish the plan, then release. Order matters twice over. Horizons
	// and the active set are plain writes made visible by the seq-cst
	// stores that follow. And the cursor's round tag must be rewritten
	// BEFORE nActive: a straggler still in runActive (awaitArrivals only
	// waits for window arrivals, not for runners to exit the claim loop)
	// validates its exhausted cursor against nActive, so nActive may only
	// grow after the cursor already carries the new tag — then the
	// straggler's claim CAS is doomed to fail and it retires. With the old
	// order a straggler could pair the old exhausted index with the new,
	// larger nActive and claim a slot of the new plan, double-running one
	// shard's window.
	r := p.round.Load() + 1
	p.arrived.Store(0)
	p.cursor.Store(cursorTag(r))
	p.nActive.Store(int64(nact))
	p.round.Store(r)
	// Wake parked runners until the plan is staffed; only a successful
	// wake counts, because a worker that is already awake (spinning, or
	// straggling out of the previous round) joins via the round bump on
	// its own and must not absorb a wake meant for a parked one.
	need := nact - 1 // this goroutine takes a share
	for i := 0; i < p.nw && need > 0; i++ {
		if p.unpark(&p.workers[i]) {
			need--
		}
	}

	p.runActive(r)
	p.awaitArrivals(int64(nact))
	return true
}

// satAdd is saturating horizon arithmetic: any bound past the largest
// representable timestamp is unbounded (no event can exist beyond it).
func satAdd(t uint64, d Duration) uint64 {
	if t == noTime {
		return noTime
	}
	s := t + uint64(d)
	if s < t {
		return noTime
	}
	return s
}

// cursorTag is the round-tagged cursor base: the round's low 32 bits in
// the high half, index zero in the low half. Truncation to 32 bits leaves
// a theoretical ABA only if one goroutine stalls mid-claim for 2^32
// consecutive rounds — impossible for a runnable goroutine in practice.
func cursorTag(r uint64) uint64 { return r << 32 }

// runActive pulls shard windows off round r's work queue until it is
// exhausted. Shared by the coordinator and every runner; the tagged atomic
// cursor is the only coordination. A claim is a CAS increment that carries
// the caller's round tag, so it can only succeed against the plan the
// caller was released for: once the coordinator rewrites the cursor for
// the next round, every in-flight claim fails its CAS, observes the
// foreign tag on reload, and retires. Exhaustion is checked against
// nActive, which is safe because the coordinator re-tags the cursor before
// enlarging nActive — a CAS that succeeds proves the cursor (and hence
// nActive) was still this round's when the index was read.
func (p *Parallel) runActive(r uint64) {
	tag := cursorTag(r)
	for {
		c := p.cursor.Load()
		if c&^uint64(1<<32-1) != tag {
			return // the plan this cursor indexes is no longer ours
		}
		i := int64(c & (1<<32 - 1))
		if i >= p.nActive.Load() {
			return
		}
		if !p.cursor.CompareAndSwap(c, c+1) {
			continue
		}
		sh := p.active[i]
		sh.runWindow(sh.horizon)
		p.arrive()
	}
}

// arrive signals one shard window's completion; the last arrival of the
// round wakes the coordinator if it parked.
func (p *Parallel) arrive() {
	if p.arrived.Add(1) == p.nActive.Load() {
		if p.coord.state.CompareAndSwap(pkParked, pkAwake) {
			p.coord.wake <- struct{}{}
		}
	}
}

// awaitArrivals is the coordinator's barrier wait: bounded spin, then park
// on the coordinator channel. The arrival counter's final increment (or the
// wake token sent after it) carries the happens-before edge that makes
// every shard's window effects visible before the next plan.
func (p *Parallel) awaitArrivals(target int64) {
	for i := 0; i < spinPure; i++ {
		if p.arrived.Load() >= target {
			return
		}
	}
	for i := 0; i < spinYield; i++ {
		runtime.Gosched()
		if p.arrived.Load() >= target {
			return
		}
	}
	c := &p.coord
	c.state.Store(pkParked)
	// Recheck after declaring the park: the last arrival may have read
	// pkAwake just before the store, in which case no token is coming.
	if p.arrived.Load() >= target {
		if c.state.CompareAndSwap(pkParked, pkAwake) {
			return
		}
		<-c.wake // a racing arrival won the CAS; consume its token
		return
	}
	<-c.wake
}

// unpark wakes a parked runner and reports whether it actually woke one; a
// no-op returning false if the runner is spinning or already awake (it
// will observe the round bump on its own).
func (p *Parallel) unpark(w *parker) bool {
	if w.state.CompareAndSwap(pkParked, pkAwake) {
		w.wake <- struct{}{}
		return true
	}
	return false
}

// work is the runner loop: await a round bump, pull shard windows off the
// work queue, repeat — until the quit round. The round counter load that
// observes a bump synchronizes with the coordinator's plan writes; this
// runner's window effects travel back through its barrier arrivals.
func (p *Parallel) work(w *parker, last uint64) {
	for {
		last = p.awaitRound(w, last)
		if p.quit.Load() {
			p.quitAck.Add(1)
			return
		}
		p.runActive(last)
	}
}

// awaitRound blocks until the round counter moves past last: bounded spin,
// then park until the coordinator's unpark. Returns the new round value.
func (p *Parallel) awaitRound(w *parker, last uint64) uint64 {
	for i := 0; i < spinPure; i++ {
		if r := p.round.Load(); r != last {
			return r
		}
	}
	for i := 0; i < spinYield; i++ {
		runtime.Gosched()
		if r := p.round.Load(); r != last {
			return r
		}
	}
	w.state.Store(pkParked)
	// Recheck after declaring the park: the coordinator may have bumped
	// the round just before the store and skipped the unpark.
	if r := p.round.Load(); r != last {
		if w.state.CompareAndSwap(pkParked, pkAwake) {
			return r
		}
		<-w.wake // a racing unpark won the CAS; consume its token
		return p.round.Load()
	}
	<-w.wake
	return p.round.Load()
}

func (p *Parallel) anyShardStopped() bool {
	for _, sh := range p.shards {
		if sh.eng.stopped {
			return true
		}
	}
	return false
}

// runWindow admits this shard's staged arrivals below the static horizon,
// fires its local events below the horizon and the dynamic reflection
// guard, and republishes the shard's slot.
func (sh *pshard) runWindow(w Time) {
	sh.drainInbox(w)
	sh.guard = timeUnbounded
	sh.eng.runGuarded(w, &sh.par.halt, &sh.guard)
	slot := &sh.par.slots[sh.id]
	if t, ok := sh.eng.peek(); ok {
		slot.next.Store(uint64(t))
	} else {
		slot.next.Store(noTime)
	}
}

// drainInbox moves staged events with timestamps inside the window into the
// calendar, in (when, source shard, source seq) order, and republishes the
// minimum of what remains staged. The order is the whole point: engine seq
// numbers are assigned at insertion, so a deterministic insertion order
// makes tie-breaking among same-timestamp arrivals — and against local
// events scheduled later in the window — independent of real-time arrival
// interleaving.
func (sh *pshard) drainInbox(w Time) {
	unbounded := w == timeUnbounded
	slot := &sh.par.slots[sh.id]
	sh.lock()
	if len(sh.inbox) == 0 {
		sh.unlock()
		return
	}
	rest := noTime
	for i := 0; i < len(sh.inbox); {
		if unbounded || sh.inbox[i].when < w {
			sh.batch = append(sh.batch, sh.inbox[i])
			last := len(sh.inbox) - 1
			sh.inbox[i] = sh.inbox[last]
			sh.inbox[last] = crossEvent{}
			sh.inbox = sh.inbox[:last]
		} else {
			if t := uint64(sh.inbox[i].when); t < rest {
				rest = t
			}
			i++
		}
	}
	slot.inboxMin.Store(rest)
	sh.unlock()
	if len(sh.batch) == 0 {
		return
	}
	sortCross(sh.batch)
	for _, ce := range sh.batch {
		sh.eng.At(ce.when, ce.fn)
	}
	for i := range sh.batch {
		sh.batch[i] = crossEvent{}
	}
	sh.batch = sh.batch[:0]
}

// sortCross is an allocation-free insertion sort by (when, src, seq).
// Batches are small (one round's traffic into one shard) and near-sorted
// (senders stage in execution order), the regime where insertion sort beats
// sort.Slice — and sort.Slice's closure allocates, which the round hot
// path must not.
func sortCross(b []crossEvent) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i - 1
		for j >= 0 && crossAfter(b[j], e) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = e
	}
}

func crossAfter(a, b crossEvent) bool {
	if a.when != b.when {
		return a.when > b.when
	}
	if a.src != b.src {
		return a.src > b.src
	}
	return a.seq > b.seq
}
