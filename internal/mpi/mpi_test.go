package mpi

import (
	"testing"
	"testing/quick"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

// harness builds an engine, quiet fabric, and MPI world with n ranks.
func harness(n int) (*sim.Engine, *World) {
	eng := sim.NewEngine()
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	fab, err := fabric.New(eng, n, fc)
	if err != nil {
		panic(err)
	}
	return eng, NewWorld(eng, fab, DefaultConfig())
}

// pump keeps running progress at both ranks whenever work appears, so tests
// can focus on semantics rather than scheduling. It mimics a comm thread
// that polls promptly.
func pump(eng *sim.Engine, w *World) {
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		r.SetWake(func() {
			eng.After(10*sim.Nanosecond, r.Progress)
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestEagerSendRecvDeliversPayload(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	src, dst := w.Rank(0), w.Rank(1)

	msg := []byte("hello, parsec")
	rbuf := make([]byte, len(msg))
	rq := dst.Irecv(buf.FromBytes(rbuf), 0, 7)
	sq := src.Isend(buf.FromBytes(msg), 1, 7)
	eng.Run()

	if !sq.Done() || !rq.Done() {
		t.Fatalf("send done=%v recv done=%v", sq.Done(), rq.Done())
	}
	if string(rbuf) != string(msg) {
		t.Fatalf("payload = %q", rbuf)
	}
	if rq.Status.Source != 0 || rq.Status.Tag != 7 || rq.Status.Size != int64(len(msg)) {
		t.Fatalf("status = %+v", rq.Status)
	}
}

func TestEagerSenderMayReuseBufferImmediately(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	msg := []byte("original")
	rbuf := make([]byte, len(msg))
	w.Rank(1).Irecv(buf.FromBytes(rbuf), AnySource, 1)
	w.Rank(0).Isend(buf.FromBytes(msg), 1, 1)
	copy(msg, "CLOBBER!") // eager copy must protect the wire data
	eng.Run()
	if string(rbuf) != "original" {
		t.Fatalf("receiver saw clobbered buffer: %q", rbuf)
	}
}

func TestUnexpectedEagerMessageMatchedByLaterRecv(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	msg := []byte{9, 9, 9}
	w.Rank(0).Send(buf.FromBytes(msg), 1, 3)
	// Let it arrive and become unexpected.
	eng.Run()
	rbuf := make([]byte, 3)
	rq := w.Rank(1).Irecv(buf.FromBytes(rbuf), 0, 3)
	eng.Run()
	if !rq.Done() || rbuf[0] != 9 {
		t.Fatalf("unexpected-path recv failed: done=%v buf=%v", rq.Done(), rbuf)
	}
	if n := w.Metrics().Value("mpi", "unexpected_hits", 1); n != 1 {
		t.Fatalf("unexpected_hits = %d, want 1", n)
	}
}

func TestRendezvousTransfersLargePayload(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	n := int(w.Config().EagerThreshold) * 4
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	rbuf := make([]byte, n)
	rq := w.Rank(1).Irecv(buf.FromBytes(rbuf), 0, 5)
	sq := w.Rank(0).Isend(buf.FromBytes(msg), 1, 5)
	eng.Run()
	if !sq.Done() || !rq.Done() {
		t.Fatalf("rendezvous incomplete: send=%v recv=%v", sq.Done(), rq.Done())
	}
	for i := range msg {
		if rbuf[i] != msg[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestRendezvousRTSWaitsForRecv(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	n := int(w.Config().EagerThreshold) * 2
	sq := w.Rank(0).Isend(buf.Virtual(int64(n)), 1, 5)
	eng.Run()
	if sq.Done() {
		t.Fatal("rendezvous send completed with no matching receive")
	}
	rq := w.Rank(1).Irecv(buf.Virtual(int64(n)), 0, 5)
	eng.Run()
	if !sq.Done() || !rq.Done() {
		t.Fatal("rendezvous did not complete after receive was posted")
	}
}

func TestRendezvousLatencyQuantizedByProgress(t *testing.T) {
	// If the receiver's progress is delayed (e.g. a long AM callback on the
	// comm thread), the RTS sits unanswered and end-to-end completion slips
	// by about the same delay. This is the §4.3 effect.
	measure := func(progressDelay sim.Duration) sim.Duration {
		eng, w := harness(2)
		// Rank 0 pumps promptly; rank 1 is slow to progress.
		r0, r1 := w.Rank(0), w.Rank(1)
		r0.SetWake(func() { eng.After(10*sim.Nanosecond, r0.Progress) })
		r1.SetWake(func() { eng.After(progressDelay, r1.Progress) })
		n := int64(1 << 20)
		rq := r1.Irecv(buf.Virtual(n), 0, 2)
		r0.Isend(buf.Virtual(n), 1, 2)
		var doneAt sim.Time
		check := func() {}
		check = func() {
			if rq.Done() {
				doneAt = eng.Now()
				return
			}
			eng.After(100*sim.Nanosecond, check)
		}
		eng.After(0, check)
		eng.Run()
		return sim.Duration(doneAt)
	}
	fast := measure(10 * sim.Nanosecond)
	slow := measure(50 * sim.Microsecond)
	if slow < fast+40*sim.Microsecond {
		t.Fatalf("delayed progress did not delay rendezvous: fast=%v slow=%v", fast, slow)
	}
}

func TestAnySourceMatchesAllSenders(t *testing.T) {
	eng, w := harness(4)
	pump(eng, w)
	got := 0
	var reqs []*Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, w.Rank(3).Irecv(buf.Virtual(8), AnySource, 1))
	}
	for src := 0; src < 3; src++ {
		w.Rank(src).Send(buf.Virtual(8), 3, 1)
	}
	eng.Run()
	seen := map[int]bool{}
	for _, q := range reqs {
		if q.Done() {
			got++
			seen[q.Status.Source] = true
		}
	}
	if got != 3 || len(seen) != 3 {
		t.Fatalf("got %d completions from %d distinct sources", got, len(seen))
	}
}

func TestTagSelectivity(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	rq5 := w.Rank(1).Irecv(buf.Virtual(8), 0, 5)
	rq6 := w.Rank(1).Irecv(buf.Virtual(8), 0, 6)
	w.Rank(0).Send(buf.Virtual(8), 1, 6)
	eng.Run()
	if rq5.Done() {
		t.Fatal("tag-5 receive stole a tag-6 message")
	}
	if !rq6.Done() {
		t.Fatal("tag-6 receive did not complete")
	}
}

func TestPersistentRecvLifecycle(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	r1 := w.Rank(1)
	q := new(Request)
	r1.RecvInit(q, 16, AnySource, 9)
	if q.Active() {
		t.Fatal("RecvInit must not activate")
	}
	reqs := []*Request{q}
	for round := 0; round < 3; round++ {
		r1.Start(q)
		w.Rank(0).Send(buf.Virtual(16), 1, 9)
		eng.Run()
		idx := r1.Testsome(reqs)
		if len(idx) != 1 || idx[0] != 0 {
			t.Fatalf("round %d: Testsome = %v", round, idx)
		}
		if q.Active() {
			t.Fatal("collected persistent request still active")
		}
	}
}

// TestPersistentRecvOwnsItsMessage covers the receive that declares a
// capacity instead of handing over a buffer: the request holds no storage
// until a message matches, the matched bytes are the request's own copy (from
// a fresh arrival, from the unexpected queue, over the rendezvous protocol),
// an over-long message is cut to the capacity with Status.Size still the
// sender's length, and the next Start gives a large slab back.
func TestPersistentRecvOwnsItsMessage(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	src, dst := w.Rank(0), w.Rank(1)
	const capacity = 16 << 10
	q := new(Request)
	dst.RecvInit(q, capacity, AnySource, 9)
	reqs := []*Request{q}
	collect := func(what string) {
		t.Helper()
		eng.Run()
		if idx := dst.Testsome(reqs); len(idx) != 1 {
			t.Fatalf("%s: Testsome = %v", what, idx)
		}
	}

	dst.Start(q)
	if q.slab != nil {
		t.Fatal("an armed receive that matched nothing holds storage")
	}
	mustPanic(t, "Data of an incomplete receive", func() { q.Data() })

	// A fresh arrival; the sender reuses its buffer at once.
	msg := []byte("activate")
	src.Send(buf.FromBytes(msg), 1, 9)
	msg[0] = 'X'
	collect("fresh arrival")
	if got := q.Data(); string(got.Bytes) != "activate" || q.Status.Size != 8 || q.Status.Source != 0 {
		t.Fatalf("fresh arrival: data %q status %+v", got.Bytes, q.Status)
	}

	// From the unexpected queue: the message is there before the Start.
	src.Send(buf.FromBytes([]byte("early")), 1, 9)
	eng.Run()
	if len(dst.unexpected) != 1 {
		t.Fatalf("unexpected queue holds %d messages, want 1", len(dst.unexpected))
	}
	dst.Start(q)
	if hits := w.Metrics().Value("mpi", "unexpected_hits", 1); !q.Done() || string(q.Data().Bytes) != "early" || hits != 1 {
		t.Fatalf("unexpected match: done=%v data %q hits=%d", q.Done(), q.Data().Bytes, hits)
	}
	collect("unexpected match")

	// A zero-length payload, real and virtual.
	for _, b := range []buf.Buf{buf.FromBytes([]byte{}), buf.Virtual(0)} {
		dst.Start(q)
		src.Send(b, 1, 9)
		collect("empty message")
		if got := q.Data(); got.Size != 0 || len(got.Bytes) != 0 || q.Status.Size != 0 {
			t.Fatalf("empty message: data %+v status %+v", got, q.Status)
		}
	}

	// Rendezvous-sized, real bytes: the slab grows past buf.MaxSlab for this
	// one message and the next Start drops it.
	big := make([]byte, 12<<10)
	for i := range big {
		big[i] = byte(i % 251)
	}
	dst.Start(q)
	sq := src.Isend(buf.FromBytes(big), 1, 9)
	collect("rendezvous message")
	if got := q.Data(); string(got.Bytes) != string(big) || !sq.Done() {
		t.Fatalf("rendezvous message: %d bytes landed, send done=%v", got.Size, sq.Done())
	}
	if cap(q.slab) <= buf.MaxSlab {
		t.Fatalf("slab capacity %d after a %d-byte message", cap(q.slab), len(big))
	}
	dst.Start(q)
	if q.slab != nil {
		t.Fatalf("re-Start kept a %d-byte slab (limit %d)", cap(q.slab), buf.MaxSlab)
	}

	// Longer than the capacity: cut, and the status says by how much. A small
	// slab, by contrast, survives the re-Start.
	src.Isend(buf.FromBytes(make([]byte, capacity+100)), 1, 9)
	collect("over-long message")
	if got := q.Data(); got.Size != capacity || q.Status.Size != capacity+100 {
		t.Fatalf("over-long message: landed %d bytes, status %+v", got.Size, q.Status)
	}
	dst.Start(q)
	src.Send(buf.FromBytes([]byte("small")), 1, 9)
	collect("small message")
	dst.Start(q)
	if cap(q.slab) == 0 || cap(q.slab) > buf.MaxSlab || len(q.slab) != 0 {
		t.Fatalf("re-Start after a small message: slab len %d cap %d", len(q.slab), cap(q.slab))
	}

	// A virtual payload needs no storage at all.
	src.Send(buf.Virtual(64), 1, 9)
	collect("virtual message")
	if got := q.Data(); !got.IsVirtual() || got.Size != 64 || len(q.slab) != 0 {
		t.Fatalf("virtual message: data %+v, slab len %d", got, len(q.slab))
	}
}

func TestStartActiveRequestPanics(t *testing.T) {
	eng, w := harness(2)
	_ = eng
	q := new(Request)
	w.Rank(1).RecvInit(q, 8, AnySource, 1)
	w.Rank(1).Start(q)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	w.Rank(1).Start(q)
}

func TestBlockingSendBeyondEagerPanics(t *testing.T) {
	_, w := harness(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for blocking rendezvous send")
		}
	}()
	w.Rank(0).Send(buf.Virtual(w.Config().EagerThreshold+1), 1, 1)
}

func TestTestsomeCollectsOnlyOnce(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	rq := w.Rank(1).Irecv(buf.Virtual(8), 0, 1)
	w.Rank(0).Send(buf.Virtual(8), 1, 1)
	eng.Run()
	reqs := []*Request{rq, nil}
	if idx := w.Rank(1).Testsome(reqs); len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("first Testsome = %v", idx)
	}
	if idx := w.Rank(1).Testsome(reqs); len(idx) != 0 {
		t.Fatalf("second Testsome = %v, want empty", idx)
	}
}

func TestProgressCostGrowsWithStagedTraffic(t *testing.T) {
	eng, w := harness(2)
	// No pump: let messages pile up unprocessed.
	for i := 0; i < 10; i++ {
		w.Rank(0).Send(buf.Virtual(64), 1, 1)
	}
	eng.Run()
	r1 := w.Rank(1)
	if !r1.StagedWork() {
		t.Fatal("expected staged messages")
	}
	c10 := r1.ProgressCost()
	if c10 < 10*w.Config().MatchCost {
		t.Fatalf("ProgressCost = %v, want >= 10 matches", c10)
	}
	r1.Progress()
	if r1.ProgressCost() != 0 {
		t.Fatal("ProgressCost nonzero after drain")
	}
}

func TestTestCostScalesWithArrayLength(t *testing.T) {
	cfg := DefaultConfig()
	small := cfg.TestCost(5)
	big := cfg.TestCost(65)
	if big <= small {
		t.Fatal("TestCost must grow with request-array length")
	}
	if got, want := big-small, 60*cfg.TestPerReq; got != want {
		t.Fatalf("marginal cost = %v, want %v", got, want)
	}
}

func TestOrderingPreservedPerSourceAndTag(t *testing.T) {
	// Messages from one source on one tag must match posted receives in
	// order (strict MPI semantics; the fabric and queues are FIFO).
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 40 {
			return true
		}
		eng, w := harness(2)
		pump(eng, w)
		var reqs []*Request
		bufs := make([][]byte, len(sizes))
		for i := range sizes {
			bufs[i] = make([]byte, 1)
			reqs = append(reqs, w.Rank(1).Irecv(buf.FromBytes(bufs[i]), 0, 1))
		}
		for i := range sizes {
			w.Rank(0).Send(buf.FromBytes([]byte{byte(i)}), 1, 1)
		}
		eng.Run()
		for i, q := range reqs {
			if !q.Done() || bufs[i][0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLockedSubmitSerializesCallers(t *testing.T) {
	eng, w := harness(1)
	r := w.Rank(0)
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		r.LockedSubmit(100*sim.Nanosecond, func() { ends = append(ends, eng.Now()) })
	}
	if r.LockQueue() != 3 {
		t.Fatalf("LockQueue = %d, want 3", r.LockQueue())
	}
	eng.Run()
	hold := w.Config().LockHold + 100*sim.Nanosecond
	for i, e := range ends {
		if want := sim.Time(hold) + sim.Time(i)*sim.Time(hold); e != want {
			t.Fatalf("call %d finished at %v, want %v", i, e, want)
		}
	}
}

func TestMessageAndByteConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		eng, w := harness(3)
		pump(eng, w)
		type exp struct{ rq *Request }
		var reqs []*Request
		for _, op := range ops {
			src := int(op % 3)
			dst := int((op / 3) % 3)
			if src == dst {
				continue
			}
			size := int64(op%2000) + 1
			reqs = append(reqs, w.Rank(dst).Irecv(buf.Virtual(size), src, int(op%5)))
			w.Rank(src).Isend(buf.Virtual(size), dst, int(op%5))
		}
		eng.Run()
		for _, q := range reqs {
			if !q.Done() {
				return false
			}
		}
		n := uint64(len(reqs))
		return w.Metrics().Total("mpi", "sent") == n && w.Metrics().Total("mpi", "received") == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTrafficMatchesMultisetOracle(t *testing.T) {
	// Property: for any interleaving of sends and receives, every message is
	// delivered exactly once to a receive with matching (source, tag), and
	// the multiset of delivered payload checksums equals the multiset sent.
	// (With the relaxed ordering PaRSEC requests — allow_overtaking —
	// same-tag messages may swap order, so the oracle is a multiset, not a
	// sequence.)
	f := func(ops []uint32) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		eng, w := harness(2)
		pump(eng, w)
		type msg struct {
			src, tag int
			sum      byte
		}
		sent := map[msg]int{}
		type recvSlot struct {
			rq  *Request
			buf []byte
		}
		var recvs []recvSlot
		// First pass: post a matching receive for every send we will make,
		// randomly before or after, on the right destination.
		for i, op := range ops {
			src := int(op % 2)
			dst := 1 - src
			tag := int(op>>1) % 4
			// Same-(src,tag) messages may overtake each other (relaxed
			// ordering), so size must be a function of (src,tag) for every
			// match to be payload-compatible.
			size := 64*(src+2*tag) + 17
			payload := make([]byte, size)
			var sum byte
			for j := range payload {
				payload[j] = byte(int(op) + j + i)
				sum += payload[j]
			}
			if op&(1<<20) != 0 {
				// Receive first (posted), send later this iteration.
				b := make([]byte, size)
				recvs = append(recvs, recvSlot{w.Rank(dst).Irecv(buf.FromBytes(b), src, tag), b})
				w.Rank(src).Isend(buf.FromBytes(payload), dst, tag)
			} else {
				// Send first (unexpected), receive later.
				w.Rank(src).Isend(buf.FromBytes(payload), dst, tag)
				b := make([]byte, size)
				recvs = append(recvs, recvSlot{w.Rank(dst).Irecv(buf.FromBytes(b), src, tag), b})
			}
			sent[msg{src, tag, sum}]++
		}
		eng.Run()
		got := map[msg]int{}
		for _, r := range recvs {
			if !r.rq.Done() {
				return false
			}
			if int(r.rq.Status.Size) != len(r.buf) {
				return false
			}
			var sum byte
			for _, bb := range r.buf {
				sum += bb
			}
			got[msg{r.rq.Status.Source, r.rq.Status.Tag, sum}]++
		}
		if len(got) != len(sent) {
			return false
		}
		for k, v := range sent {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
