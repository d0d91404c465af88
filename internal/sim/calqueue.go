package sim

import "math/bits"

// Two-tier calendar queue.
//
// Tier one is a ring of calBuckets buckets, each spanning 2^calShift
// picoseconds of virtual time; together they cover a sliding window of about
// a millisecond starting at the scan cursor. A network simulator's event
// distribution is overwhelmingly near-future — NIC gaps (tens of ns), wire
// latencies (~µs), receive overheads — so almost every event lands in a
// bucket close to the cursor: insertion is a bucket-index computation plus a
// tail link (the common case; a short walk when an event arrives out of
// order within its bucket), and popping the minimum is a bitmap scan to the
// first non-empty bucket plus a head unlink. Both are O(1) amortized, against
// O(log n) for the binary heap this replaced.
//
// A bucket is an intrusive singly linked list threaded through the pooled
// events' next field, so the slots own no storage: an engine's calendar is
// allocated once, at NewEngine, and never grows however deep a bucket gets.
//
// Tier two is a plain min-heap holding events beyond the window — heartbeat
// leases, crash scripts, multi-epoch RunUntil horizons. When the window
// drains, the cursor jumps directly to the heap minimum's epoch and every
// overflow event inside the new window migrates into buckets, so each
// far-future event pays one heap push and one heap pop no matter how many
// epochs pass before it fires.
//
// Ordering invariant: buckets hold events with bucket number in
// [base, base+calBuckets) sorted ascending by (when, seq); the overflow heap
// holds everything at or beyond base+calBuckets. The global minimum is
// therefore the front of the first non-empty bucket, and firing order is
// exactly the (timestamp, scheduling sequence) order of the old heap — the
// differential test in engine_diff_test.go pins this against refqueue.go.
const (
	calShift   = 18   // bucket width 2^18 ps ≈ 262 ns
	calBuckets = 4096 // window ≈ 1.07 ms
	calMask    = calBuckets - 1
)

// bucket is one calendar slot: the ends of a list of events linked through
// event.next, ascending by (when, seq). An empty slot has both ends nil.
type bucket struct {
	head, tail *event
}

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// insert places a newly scheduled event into the calendar or the overflow
// heap. Callers guarantee ev.when >= e.now, and cursor/base only advance in
// pop() — to the bucket of an event that fires and becomes e.now — so the
// event's bucket can never precede the cursor or the window start.
func (e *Engine) insert(ev *event) {
	if int64(ev.when)>>calShift >= e.base+calBuckets {
		ev.where = whereOver
		e.overPush(ev)
		return
	}
	e.bucketInsert(ev)
}

func (e *Engine) bucketInsert(ev *event) {
	idx := int(int64(ev.when)>>calShift) & calMask
	ev.where = int32(idx)
	b := &e.buckets[idx]
	switch {
	case b.head == nil:
		b.head, b.tail = ev, ev
		e.words[idx>>6] |= 1 << (idx & 63)
	case eventLess(b.tail, ev):
		// Fast path: most events arrive in firing order within their bucket.
		b.tail.next = ev
		b.tail = ev
	case eventLess(ev, b.head):
		ev.next = b.head
		b.head = ev
	default:
		p := b.head
		for eventLess(p.next, ev) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// remove cancels a scheduled event. Bucketed events are cut out of their
// slot and recycled immediately; overflow events become tombstones (the heap
// has no cheap random removal) that are swept when their epoch is reached.
func (e *Engine) remove(ev *event) {
	switch {
	case ev.where >= 0:
		idx := int(ev.where)
		b := &e.buckets[idx]
		var prev *event
		for p := b.head; p != ev; p = p.next {
			prev = p
		}
		if prev == nil {
			b.head = ev.next
		} else {
			prev.next = ev.next
		}
		if b.tail == ev {
			b.tail = prev
		}
		ev.next = nil
		if b.head == nil {
			e.words[idx>>6] &^= 1 << (idx & 63)
		}
		e.n--
		e.release(ev)
	case ev.where == whereOver:
		ev.fn = nil
		ev.gen++
		ev.where = whereTomb
		e.n--
	}
}

// peek returns the earliest scheduled timestamp without consuming the event.
// Returns false when no live events remain.
//
// peek must not move the cursor or the window: RunUntil peeks and may then
// stop at its horizon without consuming anything, and events scheduled
// afterward — at valid times >= now but in buckets before the peeked one, or
// before an overflow event's epoch — must still be scannable. Committing
// cursor and window advances is pop()'s job, where an event at the new
// position actually fires and pins e.now past everything earlier. The only
// mutation here is sweeping canceled tombstones off the overflow heap top,
// which is invisible to firing order and keeps the returned minimum live.
func (e *Engine) peek() (Time, bool) {
	if b := e.nextBusy(); b >= 0 {
		return e.buckets[int(b)&calMask].head.when, true
	}
	// Window empty: the minimum, if any, tops the overflow heap (the
	// ordering invariant puts every bucketed event before every overflow
	// event). Do not migrate it into the window here.
	for len(e.over) > 0 && e.over[0].where == whereTomb {
		tomb := e.overPop()
		tomb.where = whereFree
		e.free = append(e.free, tomb)
	}
	if len(e.over) == 0 {
		return 0, false
	}
	return e.over[0].when, true
}

// pop removes and returns the earliest event. Callers guarantee e.n > 0.
// This is the only place the cursor and window advance: the popped event
// immediately fires and sets e.now to its timestamp, so no later insert
// (which must be >= now) can land behind the new cursor or window base.
func (e *Engine) pop() *event {
	for {
		if b := e.nextBusy(); b >= 0 {
			e.cur = b
			idx := int(b) & calMask
			bk := &e.buckets[idx]
			ev := bk.head
			bk.head, ev.next = ev.next, nil
			if bk.head == nil {
				bk.tail = nil
				e.words[idx>>6] &^= 1 << (idx & 63)
			}
			return ev
		}
		if !e.advance() {
			panic("sim: pop from empty event queue")
		}
	}
}

// nextBusy scans the non-empty bitmap from the cursor to the window end and
// returns the first busy absolute bucket number, or -1. The bitmap makes a
// sparse window cheap: 64 buckets per word lookup.
func (e *Engine) nextBusy() int64 {
	limit := e.base + calBuckets
	for b := e.cur; b < limit; {
		idx := int(b) & calMask
		w := e.words[idx>>6] >> uint(idx&63)
		if w != 0 {
			n := b + int64(bits.TrailingZeros64(w))
			if n < limit {
				return n
			}
			return -1
		}
		b += int64(64 - idx&63)
	}
	return -1
}

// advance jumps the window to the overflow heap's earliest epoch and
// migrates every overflow event that now falls inside it into buckets.
// Tombstones surfacing at the heap top are swept onto the free list. Returns
// false when the overflow heap holds no live events.
func (e *Engine) advance() bool {
	for len(e.over) > 0 && e.over[0].where == whereTomb {
		tomb := e.overPop()
		tomb.where = whereFree
		e.free = append(e.free, tomb)
	}
	if len(e.over) == 0 {
		return false
	}
	e.base = int64(e.over[0].when) >> calShift
	e.cur = e.base
	limit := e.base + calBuckets
	for len(e.over) > 0 && int64(e.over[0].when)>>calShift < limit {
		ev := e.overPop()
		if ev.where == whereTomb {
			ev.where = whereFree
			e.free = append(e.free, ev)
			continue
		}
		e.bucketInsert(ev)
	}
	return true
}

// Overflow min-heap on (when, seq). Hand-rolled to keep *event elements
// unboxed; no index maintenance is needed because removal is by tombstone.

func (e *Engine) overPush(ev *event) {
	e.over = append(e.over, ev)
	i := len(e.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.over[i], e.over[parent]) {
			break
		}
		e.over[i], e.over[parent] = e.over[parent], e.over[i]
		i = parent
	}
}

func (e *Engine) overPop() *event {
	h := e.over
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.over = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(h[l], h[small]) {
			small = l
		}
		if r < n && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
