package sim

import (
	"container/heap"
	"fmt"
)

// RefEngine is the original container/heap event scheduler, kept verbatim as
// the reference implementation for the calendar queue in Engine: the
// differential tests in engine_diff_test.go, stop_test.go and
// psim_v2_test.go drive the same workloads through both and assert
// bit-identical (timestamp, seq) firing order. It lives in a _test.go file
// because those tests are its only users.
type RefEngine struct {
	now     Time
	queue   refHeap
	seq     uint64
	fired   uint64
	stopped bool
}

// RefEvent is a scheduled callback on a RefEngine.
type RefEvent struct {
	when  Time
	seq   uint64
	fn    func()
	index int // position in the heap, -1 when fired or canceled
}

// Pending reports whether the event is still scheduled.
func (e *RefEvent) Pending() bool { return e != nil && e.index >= 0 }

type refHeap []*RefEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*RefEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// NewRefEngine returns a heap-backed engine with the clock at zero.
func NewRefEngine() *RefEngine { return &RefEngine{} }

// Now returns the current virtual time.
func (e *RefEngine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *RefEngine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events.
func (e *RefEngine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t.
func (e *RefEngine) At(t Time, fn func()) *RefEvent {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := &RefEvent{when: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *RefEngine) After(d Duration, fn func()) *RefEvent {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event; fired or canceled events are a no-op.
func (e *RefEngine) Cancel(ev *RefEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
}

// Stop arms the stop flag; see Engine.Stop for the arming semantics the
// reference implementation mirrors.
func (e *RefEngine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. A pre-armed
// stop returns immediately; the flag is consumed on return.
func (e *RefEngine) Run() Time {
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
	e.stopped = false
	return e.now
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to t. A stop — pre-armed or fired mid-horizon — leaves the clock at the
// last fired event instead of advancing it to t, exactly as Engine.RunUntil
// documents.
func (e *RefEngine) RunUntil(t Time) Time {
	stopped := e.stopped
	for len(e.queue) > 0 && !stopped && e.queue[0].when <= t {
		e.step()
		stopped = e.stopped
	}
	if !stopped && e.now < t {
		e.now = t
	}
	e.stopped = false
	return e.now
}

func (e *RefEngine) step() {
	ev := heap.Pop(&e.queue).(*RefEvent)
	e.now = ev.when
	e.fired++
	fn := ev.fn
	ev.fn = nil
	fn()
}
