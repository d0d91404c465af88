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

// TestStaleCommOpNeitherRunsNorRecycles covers the epoch rule of the
// communication thread's pooled step records (commop.go): a step queued
// before a restart must not run — the two kinds used here had no guard of
// their own, so a stale aggregation used to put a pre-restart activation on
// the wire and a stale GET service used to start a put, each bumping the NEW
// epoch's csent with a message the receiver drops uncounted — and its record
// must never reach the free list, while steps queued after the restart run
// and recycle as usual.
func TestStaleCommOpNeitherRunsNorRecycles(t *testing.T) {
	for _, b := range stack.Backends {
		t.Run(b.String(), func(t *testing.T) {
			const size = 64 << 10
			g := NewGraphPool("restart", 2, false)
			prod := g.AddTask(0, 0, sim.Microsecond, 0, size)
			g.Link(prod, 0, g.AddTask(1, 1, sim.Microsecond, 0))

			s := stack.Build(stack.DefaultOptions(b, 2))
			rt := New(s.Dom, s.Engines, g, DefaultConfig(2))
			owner, requester := rt.nodes[0], rt.nodes[1]

			key := flowKey{prod, 0}
			fd := &flowData{state: flowReady, ref: g.MakeCopy(prod, 0, size), size: size, expectedGets: 1}
			owner.putFlow(key, fd)
			landing := requester.ce.MemReg(g.MakeCopy(prod, 0, size).Buf)

			// Two steps deferred in the old epoch, then the restart.
			act := activation{task: prod, size: size, root: 0, hopRank: 0, epoch: owner.epoch}
			owner.sendActivate(1, act, -1)
			owner.submitServePut(key, fd, getReq{requester: 1, epoch: owner.epoch, rreg: landing})
			if owner.pendingOps != 2 {
				t.Fatalf("pendingOps = %d before the restart, want 2", owner.pendingOps)
			}
			owner.resetForRecovery()
			requester.resetForRecovery()
			owner.paused, requester.paused = false, false
			s.Eng.Run()

			if err := rt.Err(); err != nil {
				t.Fatalf("stale steps aborted the runtime: %v", err)
			}
			if owner.pendingOps != 0 {
				t.Fatalf("pendingOps = %d after the stale steps fired, want 0", owner.pendingOps)
			}
			if got := owner.ce.Stats(); got.PutsStarted != 0 || owner.activatesSent.Value() != 0 || owner.csent != 0 {
				t.Fatalf("a stale step ran: puts=%d activates=%d csent=%d",
					got.PutsStarted, owner.activatesSent.Value(), owner.csent)
			}
			if fd.registered || owner.pendingDests != 0 {
				t.Fatalf("a stale step touched rank state: registered=%v pendingDests=%d", fd.registered, owner.pendingDests)
			}
			if n := owner.ops.Len(); n != 0 {
				t.Fatalf("%d stale record(s) re-entered the free list", n)
			}

			// A step of the new epoch runs and recycles its record. The ring
			// holds no token here, so termination traffic stays out of it.
			fresh := owner.newOp(opFlush)
			fresh.peer = 1
			owner.pendingAct = make([][]activation, 2)
			owner.flushQueued = make([]bool, 2)
			owner.submit(0, fresh)
			s.Eng.Run()
			if owner.pendingOps != 0 || owner.ops.Len() != 1 {
				t.Fatalf("fresh step: pendingOps=%d free=%d, want 0 and 1", owner.pendingOps, owner.ops.Len())
			}
		})
	}
}
