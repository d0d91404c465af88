package sim

import (
	"math/rand"
	"testing"
)

// The differential test: randomized workloads — schedules at mixed near and
// far offsets, cancels, cancel-then-reschedules, events scheduled from inside
// callbacks — driven identically through the calendar-queue Engine and the
// heap-backed RefEngine, asserting bit-identical firing order. This pins the
// tentpole invariant: the queue swap must not change a single virtual-time
// result.

// diffScript is one deterministic workload: opKind selects what each fired
// event does next, so both engines execute the same decision sequence.
type diffOp struct {
	kind   int   // 0: nothing, 1: schedule near, 2: schedule far, 3: cancel a pending event, 4: cancel+reschedule same timestamp
	delay  int64 // offset for schedules, in ps
	target int   // index of the event to cancel, modulo live handles
}

func genScript(rng *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		kind := rng.Intn(5)
		var delay int64
		switch rng.Intn(3) {
		case 0: // near: within a few buckets
			delay = rng.Int63n(1 << 20)
		case 1: // mid: within the window
			delay = rng.Int63n(1 << 29)
		default: // far: multiple epochs ahead
			delay = rng.Int63n(1 << 34)
		}
		ops[i] = diffOp{kind: kind, delay: delay, target: rng.Int()}
	}
	return ops
}

func TestEngineMatchesRefEngineOnRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(0xD1FF + trial)))
		script := genScript(rng, 400)

		var calOrder, refOrder []int

		// Drive the calendar engine.
		{
			e := NewEngine()
			var live []Event
			var id int
			var runOp func(op diffOp)
			schedule := func(at Time) {
				myID := id
				id++
				opIdx := myID % len(script)
				live = append(live, e.At(at, func() {
					calOrder = append(calOrder, myID)
					runOp(script[opIdx])
				}))
			}
			runOp = func(op diffOp) {
				switch op.kind {
				case 1, 2:
					schedule(e.Now().Add(Duration(op.delay)))
				case 3:
					if len(live) > 0 {
						e.Cancel(live[op.target%len(live)])
					}
				case 4:
					if len(live) > 0 {
						i := op.target % len(live)
						h := live[i]
						if h.Pending() {
							when, _ := h.When()
							e.Cancel(h)
							// Reschedule at the identical timestamp: the
							// replacement must fire in fresh-seq order.
							schedule(when)
						}
					}
				}
			}
			for i := 0; i < 64; i++ {
				schedule(Time(script[i%len(script)].delay))
			}
			e.Run()
		}

		// Drive the reference heap engine with the same script.
		{
			e := NewRefEngine()
			var live []*RefEvent
			var id int
			var runOp func(op diffOp)
			schedule := func(at Time) {
				myID := id
				id++
				opIdx := myID % len(script)
				live = append(live, e.At(at, func() {
					refOrder = append(refOrder, myID)
					runOp(script[opIdx])
				}))
			}
			runOp = func(op diffOp) {
				switch op.kind {
				case 1, 2:
					schedule(e.Now().Add(Duration(op.delay)))
				case 3:
					if len(live) > 0 {
						e.Cancel(live[op.target%len(live)])
					}
				case 4:
					if len(live) > 0 {
						i := op.target % len(live)
						ev := live[i]
						if ev.Pending() {
							when := ev.when
							e.Cancel(ev)
							schedule(when)
						}
					}
				}
			}
			for i := 0; i < 64; i++ {
				schedule(Time(script[i%len(script)].delay))
			}
			e.Run()
		}

		if len(calOrder) != len(refOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(calOrder), len(refOrder))
		}
		for i := range calOrder {
			if calOrder[i] != refOrder[i] {
				t.Fatalf("trial %d: firing order diverges at position %d: calendar %d, reference %d",
					trial, i, calOrder[i], refOrder[i])
			}
		}
	}
}

// TestEngineMatchesRefEngineRunUntil pins RunUntil horizons — including ones
// landing between calendar buckets and beyond the current window — to the
// reference semantics. Crucially, it also schedules between horizons: after a
// RunUntil has peeked at (but not consumed) the next event, new events land
// at times between Now() and that peeked event, in buckets before it, and in
// the far-future overflow tier — the seam where a peek that moved the cursor
// or window would reorder firing.
func TestEngineMatchesRefEngineRunUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	horizons := []Time{
		0, 1, 1 << calShift, 1<<calShift + 1, (calBuckets / 2) << calShift,
		calBuckets << calShift, (calBuckets + 3) << calShift, 1 << 33, 1 << 40,
	}

	e := NewEngine()
	r := NewRefEngine()
	var calOrder, refOrder []int
	id := 0
	sched := func(tm Time) {
		i := id
		id++
		e.At(tm, func() { calOrder = append(calOrder, i) })
		r.At(tm, func() { refOrder = append(refOrder, i) })
	}
	for i := 0; i < 300; i++ {
		sched(Time(rng.Int63n(1 << 33)))
	}
	// Keep a far-future overflow event pending across every horizon so each
	// RunUntil's horizon peek sees a populated overflow heap.
	sched(Time(calBuckets*20) << calShift)
	for _, h := range horizons {
		e.RunUntil(h)
		r.RunUntil(h)
		if e.Now() != r.Now() {
			t.Fatalf("horizon %v: Now() = %v, reference %v", h, e.Now(), r.Now())
		}
		if e.Pending() != r.Pending() {
			t.Fatalf("horizon %v: Pending() = %d, reference %d", h, e.Pending(), r.Pending())
		}
		if len(calOrder) != len(refOrder) {
			t.Fatalf("horizon %v: fired %d, reference %d", h, len(calOrder), len(refOrder))
		}
		// Post-peek scheduling, nearest first: at the parked clock, a few ps
		// later (almost surely before the peeked next event), the adjacent
		// bucket, a few buckets out, and multiple windows out (overflow).
		now := e.Now()
		sched(now)
		sched(now.Add(Duration(1 + rng.Int63n(8))))
		sched(now.Add(Duration(1) << calShift))
		sched(now.Add(Duration(rng.Int63n(1 << 22))))
		sched(now.Add(Duration(calBuckets*4) << calShift).Add(Duration(rng.Int63n(1 << 20))))
	}
	e.Run()
	r.Run()
	if len(calOrder) != len(refOrder) {
		t.Fatalf("fired %d events, reference fired %d", len(calOrder), len(refOrder))
	}
	for i := range refOrder {
		if calOrder[i] != refOrder[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, calOrder[i], refOrder[i])
		}
	}
}

// FuzzCalendarMatchesRef drives the calendar Engine and the heap RefEngine
// through one operation stream decoded from the fuzz input — At, Cancel,
// RunUntil and Stop at delays from same-timestamp ties through the same
// bucket and the window to the overflow tier — and requires the same firing
// order, clock and pending count after every RunUntil and at the end. Fired
// events add to the stream: some schedule a child from inside the callback,
// some call Stop mid-run.
func FuzzCalendarMatchesRef(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 64, 2, 0, 128, 3, 4, 1, 0, 2, 2, 255, 255})
	f.Add([]byte{0, 192, 1, 0, 0, 0, 0, 0, 5, 0, 65, 9, 1, 1, 2, 2, 1, 0, 6, 3, 3, 0, 128, 7})
	f.Add([]byte{0, 130, 200, 0, 130, 100, 0, 2, 3, 1, 1, 3, 2, 130, 150, 0, 66, 66, 2, 194, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// delay decodes three bytes: the top two bits of the first pick the
		// scale (ties and the same bucket, a few buckets, the window, the
		// overflow tier), the next two the magnitude.
		delay := func() Duration {
			c := next()
			v := Duration(next())<<8 | Duration(next())
			return (v + Duration(c&63)) << [4]uint{0, 4, 14, 22}[c>>6]
		}

		cal, ref := NewEngine(), NewRefEngine()
		var calOrder, refOrder []int
		var calLive []Event
		var refLive []*RefEvent
		// fired is event me's callback on one engine: record it, and for some
		// ids schedule a child or stop the run from inside the callback.
		fired := func(me int, order *[]int, after func(Duration, func()), stop func()) func() {
			return func() {
				*order = append(*order, me)
				if me%5 == 2 {
					after(Duration(me*7919)%(1<<31), func() { *order = append(*order, -me) })
				}
				if me%11 == 7 {
					stop()
				}
			}
		}
		calAfter := func(d Duration, fn func()) { cal.After(d, fn) }
		refAfter := func(d Duration, fn func()) { ref.After(d, fn) }
		id := 0
		schedule := func(d Duration) {
			calLive = append(calLive, cal.After(d, fired(id, &calOrder, calAfter, cal.Stop)))
			refLive = append(refLive, ref.After(d, fired(id, &refOrder, refAfter, ref.Stop)))
			id++
		}
		check := func(where string) {
			if cal.Now() != ref.Now() || cal.Pending() != ref.Pending() {
				t.Fatalf("%s: now %v pending %d, reference now %v pending %d",
					where, cal.Now(), cal.Pending(), ref.Now(), ref.Pending())
			}
			if len(calOrder) != len(refOrder) {
				t.Fatalf("%s: fired %d, reference fired %d", where, len(calOrder), len(refOrder))
			}
			for i := range calOrder {
				if calOrder[i] != refOrder[i] {
					t.Fatalf("%s: firing order diverges at %d: %d vs %d", where, i, calOrder[i], refOrder[i])
				}
			}
		}
		for steps := 0; len(in) > 0 && steps < 512; steps++ {
			switch next() % 4 {
			case 0:
				schedule(delay())
			case 1:
				if len(calLive) > 0 {
					i := int(next()) % len(calLive)
					cal.Cancel(calLive[i])
					ref.Cancel(refLive[i])
				}
			case 2:
				h := cal.Now().Add(delay())
				cal.RunUntil(h)
				ref.RunUntil(h)
				check("RunUntil")
			case 3:
				cal.Stop()
				ref.Stop()
			}
		}
		// Drain: each Run consumes one stop, so repeat until nothing is left.
		for cal.Pending() > 0 {
			cal.Run()
			ref.Run()
			check("Run")
		}
		check("end")
	})
}
