package mpi

import (
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/sim"
)

// TestMessagePathAllocs pins the steady-state cost of one point-to-point
// message at zero allocations: with a virtual payload on the eager and on
// the rendezvous protocol, and with real eager payloads of 1 KiB and of
// 4 KiB (a HiCMA tile's size), whose copy into library memory reuses the
// pooled wire record's slab whatever its size. Wire records are taken by the
// sender and retired by the receiver, and both requests are handed back
// through Free. The stream is one-way, the case a per-rank free list could
// not serve.
func TestMessagePathAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		size int64
		real bool
	}{
		{"eager", 8 << 10, false},
		{"rendezvous", 32 << 10, false},
		{"eager-real-1KiB", 1 << 10, true},
		{"eager-real-4KiB", 4 << 10, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, w := harness(2)
			for i := 0; i < w.Size(); i++ {
				r := w.Rank(i)
				progress := r.Progress // bound once: the test's pump must not allocate
				r.SetWake(func() { eng.After(10*sim.Nanosecond, progress) })
			}
			src, dst := w.Rank(0), w.Rank(1)
			sb, rb := buf.Virtual(c.size), buf.Virtual(c.size)
			if c.real {
				sb, rb = buf.FromBytes(make([]byte, c.size)), buf.FromBytes(make([]byte, c.size))
			}
			reqs := make([]*Request, 2)
			one := func() {
				reqs[0], reqs[1] = dst.Irecv(rb, 0, 7), src.Isend(sb, 1, 7)
				eng.Run()
				if got := len(dst.Testsome(reqs[:1])) + len(src.Testsome(reqs[1:])); got != 2 {
					t.Fatalf("collected %d of 2 requests", got)
				}
				reqs[0].Free()
				reqs[1].Free()
			}
			// Warm-up: fill the free lists and the event pool.
			for i := 0; i < 20000; i++ {
				one()
			}
			if got := testing.AllocsPerRun(2000, one); got > 0.01 {
				t.Fatalf("%.3f allocs/message, want 0", got)
			}
		})
	}
}

// TestRequestFreeContract pins Free's preconditions: a freed handle is dead,
// and an unfinished or persistent request cannot be freed.
func TestRequestFreeContract(t *testing.T) {
	eng, w := harness(2)
	pump(eng, w)
	src, dst := w.Rank(0), w.Rank(1)
	b := buf.Virtual(64)

	pending := dst.Irecv(b, 0, 1)
	mustPanic(t, "Free of an incomplete request", pending.Free)
	persistent := new(Request)
	dst.RecvInit(persistent, b.Size, 0, 2)
	mustPanic(t, "Free of a persistent request", persistent.Free)

	sq := src.Isend(b, 1, 1)
	eng.Run()
	mustPanic(t, "Free of an uncollected request", pending.Free)
	if n := len(dst.Testsome([]*Request{pending})) + len(src.Testsome([]*Request{sq})); n != 2 {
		t.Fatalf("collected %d of 2 requests", n)
	}
	pending.Free()
	mustPanic(t, "second Free", pending.Free)
	// The freed record serves the next receive of the same rank.
	if again := dst.Irecv(b, 0, 3); again != pending {
		t.Fatal("a freed request was not reused by the next Irecv")
	}
}
