package parsec

import (
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// TestStalePutCompletionSparesRebuiltFlow restarts a rank while a put it is
// serving is still in flight, with the restart restoring a flow under the
// same key (what restoreTask does for a checkpointed output). The put's
// local completion belongs to the old epoch: it must not count against the
// old record, and above all must not retire — deregister and delete — the
// rebuilt flow that now owns the key.
func TestStalePutCompletionSparesRebuiltFlow(t *testing.T) {
	for _, b := range stack.Backends {
		t.Run(b.String(), func(t *testing.T) {
			const size = 64 << 10
			g := NewGraphPool("restart", 2, false)
			prod := g.AddTask(0, 0, sim.Microsecond, 0, size)
			g.Link(prod, 0, g.AddTask(1, 1, sim.Microsecond, 0))

			o := stack.DefaultOptions(b, 2)
			s := stack.Build(o)
			rt := New(s.Dom, s.Engines, g, DefaultConfig(2))
			owner, requester := rt.nodes[0], rt.nodes[1]

			// The owner holds the produced flow and one remote consumer has
			// asked for it; the requester's landing buffer is registered.
			key := flowKey{prod, 0}
			old := &flowData{state: flowReady, ref: g.MakeCopy(prod, 0, size), size: size, expectedGets: 1}
			owner.putFlow(key, old)
			landing := requester.ce.MemReg(g.MakeCopy(prod, 0, size).Buf)
			owner.servePut(key, old, getReq{requester: 1, epoch: owner.epoch, rreg: landing})
			if !old.registered {
				t.Fatal("servePut did not register the source buffer")
			}

			// Restart with the put in flight: both ranks move to the next
			// epoch and the owner restores the flow from its checkpoint.
			owner.resetForRecovery()
			requester.resetForRecovery()
			rebuilt := &flowData{state: flowReady, ref: g.MakeCopy(prod, 0, size), size: size, expectedGets: 1}
			owner.putFlow(key, rebuilt)

			s.Eng.Run()

			if err := rt.Err(); err != nil {
				t.Fatalf("stale traffic aborted the runtime: %v", err)
			}
			if got := owner.flow(key); got != rebuilt {
				t.Fatalf("rebuilt flow was retired by the stale put completion (store holds %p, want %p)", got, rebuilt)
			}
			if old.servedGets != 0 || !old.registered {
				t.Fatalf("stale completion touched the pre-restart record: servedGets=%d registered=%v",
					old.servedGets, old.registered)
			}
			if requester.staleDrops.Value() == 0 {
				t.Fatal("the requester should have dropped the landed put as stale")
			}
		})
	}
}
