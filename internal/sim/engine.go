package sim

import (
	"fmt"
	"sync/atomic"
)

// event is the pooled internal representation of a scheduled callback.
// Objects are recycled through the engine's free list; gen increments every
// time an event leaves the queue (fired or canceled) so stale handles held by
// callers can never touch a reused slot.
type event struct {
	when  Time
	seq   uint64
	fn    func()
	next  *event // the next event in the same calendar bucket
	gen   uint32
	where int32 // bucket index, or one of the where* sentinels
}

const (
	whereFree int32 = -1 // on the free list (or never scheduled)
	whereOver int32 = -2 // in the overflow heap
	whereTomb int32 = -3 // canceled but still buried in the overflow heap
)

// Event is a generation-counted handle to a scheduled callback. The zero
// value is a valid "no event" handle: Pending reports false and Cancel is a
// no-op. Handles stay safe after the underlying slot is recycled for a new
// event — operations on a stale handle do nothing.
type Event struct {
	ev  *event
	gen uint32
}

// When returns the virtual time at which the event will fire. The boolean is
// false when the event has already fired or been canceled (including the
// zero-value handle); a true result with a zero Time is a legitimate event
// scheduled at time zero, which the old single-value signature could not
// distinguish from a dead handle.
func (e Event) When() (Time, bool) {
	if !e.Pending() {
		return 0, false
	}
	return e.ev.when, true
}

// Pending reports whether the event is still scheduled.
func (e Event) Pending() bool { return e.ev != nil && e.ev.gen == e.gen }

// Engine is a deterministic discrete-event scheduler. Events that share a
// timestamp fire in the order they were scheduled.
//
// The event queue is a two-tier calendar queue (calqueue.go): near-future
// events — the bulk of a network simulation's schedule — pay O(1) per
// operation, far-future events (heartbeat leases, crash scripts, RunUntil
// horizons) overflow into a small binary heap and migrate into the calendar
// when their epoch comes around. Firing order is exactly (timestamp,
// scheduling sequence), bit-identical to the container/heap implementation
// kept in refqueue.go as the differential-test oracle.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	n       int // scheduled events (tombstones excluded)

	// Calendar queue state; see calqueue.go.
	buckets []bucket // lists through event.next: no storage of their own
	words   []uint64 // non-empty bitmap, one bit per bucket
	base    int64    // absolute bucket number of the window start
	cur     int64    // scan cursor, base <= cur < base+calBuckets
	over    []*event // far-future min-heap keyed (when, seq)
	free    []*event // recycled event objects
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		buckets: make([]bucket, calBuckets),
		words:   make([]uint64, calBuckets/64),
		base:    0,
		cur:     0,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a cheap progress and
// complexity metric for experiments).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.n }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a cost-model bug, and silently clamping would corrupt
// causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.acquire()
	ev.when, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.n++
	e.insert(ev)
	return Event{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. Canceling a fired, already-canceled, or
// zero-value event is a no-op.
func (e *Engine) Cancel(h Event) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return
	}
	e.remove(ev)
}

// Stop arms the engine's stop flag. A stop armed while Run or RunUntil is
// executing makes it return after the currently executing event completes; a
// stop armed while the engine is idle makes the NEXT Run or RunUntil return
// immediately at the current clock, firing nothing. Each run consumes the
// flag on return, so a stop never leaks into the run after the one it ended.
func (e *Engine) Stop() { e.stopped = true }

// Stopping reports whether a stop is armed (set by Stop and not yet consumed
// by a run). The parallel coordinator uses it to tell "stopped" from "queue
// drained" at a window boundary.
func (e *Engine) Stopping() bool { return e.stopped }

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time. A stop armed before the call makes it return
// immediately at the current clock; either way the stop is consumed.
func (e *Engine) Run() Time {
	for e.n > 0 && !e.stopped {
		e.step()
	}
	e.stopped = false
	return e.now
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to t. Events scheduled during execution are honored if they fall within
// the horizon.
//
// Stop interaction: when an event calls Stop mid-horizon — or a stop was
// armed before the call — RunUntil returns with the clock left at the last
// fired event (the entry clock for a pre-armed stop), NOT advanced to t. The
// horizon advance is a statement that "nothing happens until t", which a
// stop explicitly revokes: the caller stopped the run precisely because it
// no longer wants the remaining virtual time to pass. Like Run, RunUntil
// consumes the stop flag on return.
func (e *Engine) RunUntil(t Time) Time {
	stopped := e.stopped
	for e.n > 0 && !stopped {
		w, ok := e.peek()
		if !ok || w > t {
			break
		}
		e.step()
		stopped = e.stopped
	}
	if !stopped && e.now < t {
		e.now = t
	}
	e.stopped = false
	return e.now
}

// runGuarded executes events with timestamps strictly below both t and the
// dynamic guard, leaving the clock at the last fired event. The guard is
// re-read before every event: the sharded engine lowers it mid-window when
// an event stages a cross-shard send whose reflection could return earlier
// than the static horizon assumed (psim.go). A bound equal to the maximum
// representable Time means unbounded — the window where every other shard
// is drained runs to completion instead of stranding events at the limit.
// runGuarded honors the engine's own stop flag and, when halt is non-nil, a
// domain-wide stop shared across shards — but unlike Run it consumes
// neither: the parallel coordinator owns both flags' lifecycles across
// window boundaries. Events exactly at the bound belong to the next window,
// where freshly staged cross-shard arrivals can still order ahead of them.
func (e *Engine) runGuarded(t Time, halt *atomic.Bool, guard *Time) {
	for e.n > 0 && !e.stopped {
		w, ok := e.peek()
		if !ok {
			return
		}
		if w >= t && t != timeUnbounded {
			return
		}
		if g := *guard; w >= g && g != timeUnbounded {
			return
		}
		if halt != nil && halt.Load() {
			return
		}
		e.step()
	}
}

func (e *Engine) step() {
	ev := e.pop()
	e.n--
	e.now = ev.when
	e.fired++
	fn := ev.fn
	e.release(ev)
	fn()
}

// acquire takes an event object off the free list, or allocates one.
func (e *Engine) acquire() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{where: whereFree}
}

// release retires an event that has left the queue: the generation bump
// invalidates every outstanding handle before the object is recycled.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.where = whereFree
	e.free = append(e.free, ev)
}
