package sim

import "testing"

// Edge cases the old heap handled implicitly and the calendar queue must get
// right explicitly: same-timestamp cancel/reschedule, mass cancellation
// (a crashed rank's rel endpoint freezing every timer it owns), far-future
// events crossing calendar epochs (heartbeat leases), and RunUntil horizons
// landing between buckets.

func TestCancelThenRescheduleSameTimestamp(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(100, func() { got = append(got, "a") })
	ev := e.At(100, func() { got = append(got, "victim") })
	e.At(100, func() { got = append(got, "b") })
	e.Cancel(ev)
	// The replacement shares the timestamp but gets a fresh sequence
	// number, so it must fire after every survivor of the original batch.
	e.At(100, func() { got = append(got, "replacement") })
	e.Run()
	want := []string{"a", "b", "replacement"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancelStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	ran := false
	stale := e.At(10, func() {})
	e.Cancel(stale) // slot goes back to the free list
	fresh := e.At(10, func() { ran = true })
	// The stale handle now points at a recycled slot holding a live event;
	// the generation counter must keep this cancel from touching it.
	e.Cancel(stale)
	if !fresh.Pending() {
		t.Fatal("stale cancel killed the recycled slot's live event")
	}
	e.Run()
	if !ran {
		t.Fatal("recycled event did not fire")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
}

func TestMassCancellation(t *testing.T) {
	e := NewEngine()
	fired := 0
	var evs []Event
	// Spread events over buckets, the current bucket, and the overflow
	// heap, as a crashed rank's retransmit and ack timers would be.
	for i := 0; i < 500; i++ {
		d := Duration(i) * 100 * Nanosecond
		if i%3 == 0 {
			d = Duration(i) * 10 * Millisecond // far future: overflow tier
		}
		evs = append(evs, e.After(d, func() { fired++ }))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after mass cancel, want 0", e.Pending())
	}
	e.Run()
	if fired != 0 {
		t.Fatalf("%d canceled events fired", fired)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v with nothing to run", e.Now())
	}
	// The queue must still work after a full purge (tombstone sweep).
	ok := false
	e.After(Second, func() { ok = true })
	e.Run()
	if !ok {
		t.Fatal("engine dead after mass cancellation")
	}
}

func TestFarFutureEventsCrossCalendarEpochs(t *testing.T) {
	e := NewEngine()
	var got []Time
	// Heartbeat-lease-like spacing: each event several windows beyond the
	// previous one, forcing repeated epoch advances, plus near events
	// scheduled from within each epoch.
	window := Duration(calBuckets << calShift)
	for i := 1; i <= 10; i++ {
		e.After(Duration(i)*3*window, func() {
			got = append(got, e.Now())
			e.After(60*Nanosecond, func() { got = append(got, e.Now()) })
		})
	}
	e.Run()
	if len(got) != 20 {
		t.Fatalf("fired %d events, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards across epochs: %v after %v", got[i], got[i-1])
		}
	}
}

func TestRunUntilHorizonBetweenBuckets(t *testing.T) {
	e := NewEngine()
	bucket := Duration(1) << calShift
	var fired []Time
	for i := 1; i <= 4; i++ {
		tm := Time(i) * Time(bucket) * 2
		e.At(tm, func() { fired = append(fired, tm) })
	}
	// Horizon in the empty gap between the second and third event's
	// buckets: exactly two fire, and the clock parks on the horizon.
	h := Time(5 * bucket)
	e.RunUntil(h)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != h {
		t.Fatalf("Now() = %v, want %v", e.Now(), h)
	}
	// Horizon beyond the whole calendar window with pending overflow: the
	// engine must not fire the far event early.
	far := e.After(Duration(calBuckets+10)<<calShift, func() { fired = append(fired, e.Now()) })
	e.RunUntil(h.Add(Duration(2 * bucket)))
	if len(fired) != 3 || !far.Pending() {
		t.Fatalf("horizon crossed the window: fired=%d farPending=%t", len(fired), far.Pending())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

// A RunUntil horizon peeks at the next busy bucket and stops short of it.
// Scheduling afterward, at a valid time >= now but in a bucket before the
// peeked one, must still fire in timestamp order: the peek must not strand
// the scan cursor past the new event's bucket.
func TestScheduleBeforePeekedBucketAfterRunUntil(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(3<<calShift, func() { got = append(got, "far") })
	e.RunUntil(1 << calShift)
	e.At(1<<calShift+5, func() { got = append(got, "near") })
	e.Run()
	if len(got) != 2 || got[0] != "near" || got[1] != "far" {
		t.Fatalf("firing order %v, want [near far]", got)
	}
	if e.Now() != 3<<calShift {
		t.Fatalf("Now() = %v, want %v", e.Now(), Time(3<<calShift))
	}
}

// Same seam, overflow tier: with only a far-future overflow event pending, a
// RunUntil that stops before its epoch must not jump the window base to it.
// A later near-time event would otherwise alias into the far window, fire
// after the far event, and drag the clock backward.
func TestScheduleBeforeOverflowEpochAfterRunUntil(t *testing.T) {
	e := NewEngine()
	farAt := Time(calBuckets*10) << calShift
	var got []string
	e.At(farAt, func() { got = append(got, "far") })
	e.RunUntil(1 << calShift)
	e.At(2<<calShift, func() {
		got = append(got, "near")
		if e.Now() != 2<<calShift {
			t.Fatalf("near event fired at %v, want %v", e.Now(), Time(2<<calShift))
		}
	})
	e.Run()
	if len(got) != 2 || got[0] != "near" || got[1] != "far" {
		t.Fatalf("firing order %v, want [near far]", got)
	}
	if e.Now() != farAt {
		t.Fatalf("Now() = %v, want %v", e.Now(), farAt)
	}
}

func TestScheduleAfterRunUntilParksBeyondWindow(t *testing.T) {
	e := NewEngine()
	// Park the clock multiple windows ahead with an empty queue, then
	// schedule near events: they must land relative to the parked clock.
	e.RunUntil(Time(3 * calBuckets << calShift))
	ran := false
	e.After(100*Nanosecond, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event scheduled after a long RunUntil never fired")
	}
	if e.Now() != Time(3*calBuckets<<calShift)+Time(100*Nanosecond) {
		t.Fatalf("Now() = %v", e.Now())
	}
}
