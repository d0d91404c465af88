package lci

import (
	"fmt"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/sim"
)

// allocHarness is harness with a progress pump that itself allocates
// nothing.
func allocHarness() (*sim.Engine, *Runtime) {
	eng, rt := harness(2)
	for i := 0; i < rt.Size(); i++ {
		ep := rt.Endpoint(i)
		progress := ep.Progress // bound once
		ep.SetWake(func() { eng.After(10*sim.Nanosecond, progress) })
	}
	return eng, rt
}

// TestMessagePathAllocs pins the steady-state cost of one message with a
// virtual payload at zero allocations, for the Buffered protocol (no receive
// posted) and for the Direct RTS/CTS rendezvous, and of Buffered messages
// with real payloads of 1 KiB and of 4 KiB (a HiCMA tile's size), whose copy
// into library memory reuses the pooled packet's slab whatever its size:
// packets are taken by the sender and retired by the receiver,
// direct-operation records are retired by the endpoint that posted them, and
// the packet-released completion is the endpoint's static sentinel. Both
// streams are one-way, the case a per-rank free list could not serve.
func TestMessagePathAllocs(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		eng, rt := allocHarness()
		got := 0
		rt.Endpoint(1).SetMsgComp(Handler(func(Request) { got++ }))
		b := buf.Virtual(8 << 10)
		pin(t, func() {
			want := got + 1
			if err := rt.Endpoint(0).Sendm(1, 7, b); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if got != want {
				t.Fatal("message not delivered")
			}
		})
	})
	for _, size := range []int{1 << 10, 4 << 10} {
		t.Run(fmt.Sprintf("buffered-real-%dKiB", size>>10), func(t *testing.T) {
			eng, rt := allocHarness()
			got := 0
			rt.Endpoint(1).SetMsgComp(Handler(func(Request) { got++ }))
			b := buf.FromBytes(make([]byte, size))
			pin(t, func() {
				want := got + 1
				if err := rt.Endpoint(0).Sendm(1, 7, b); err != nil {
					t.Fatal(err)
				}
				eng.Run()
				if got != want {
					t.Fatal("message not delivered")
				}
			})
		})
	}
	t.Run("direct", func(t *testing.T) {
		eng, rt := allocHarness()
		got := 0
		count := Handler(func(Request) { got++ })
		b := buf.Virtual(32 << 10)
		pin(t, func() {
			want := got + 2
			if err := rt.Endpoint(1).Recvd(0, 7, b, count, nil); err != nil {
				t.Fatal(err)
			}
			if err := rt.Endpoint(0).Sendd(1, 7, b, count, nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if got != want {
				t.Fatal("transfer did not complete on both sides")
			}
		})
	})
}

// pin warms one up (free lists and event pools filled) and then requires it
// to allocate nothing.
func pin(t *testing.T, one func()) {
	t.Helper()
	for i := 0; i < 20000; i++ {
		one()
	}
	if got := testing.AllocsPerRun(2000, one); got > 0.01 {
		t.Fatalf("%.3f allocs/message, want 0", got)
	}
}

// TestRetiredPacketFailsLoudly pins the retirement checks: a packet retired
// twice, or staged after it was retired, must panic instead of being handed
// to two messages; and a retired packet keeps nothing of its last message.
func TestRetiredPacketFailsLoudly(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	_, rt := harness(2)
	ep := rt.Endpoint(1)
	p := rt.Endpoint(0).newPacket(kindMsg, 1, 64)
	p.tag, p.sctx = 9, &directOp{}
	ep.retire(p)
	if p.live || p.ep != nil || p.tag != 0 || p.sctx != nil || p.msg.Meta != nil {
		t.Fatalf("retired packet still holds its last message: %+v", p)
	}
	mustPanic("second retire", func() { ep.retire(p) })
	mustPanic("staging a retired packet", func() { ep.stage(p) })
}
