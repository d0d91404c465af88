package parsec

import (
	"reflect"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// TestStalePutCompletionSparesRebuiltFlow restarts a rank while a put it is
// serving is still in flight, with the restart restoring a flow under the
// same key (what restoreTask does for a checkpointed output). The put's
// local completion belongs to the old epoch: it must not count against the
// old record, and above all must not retire — deregister and delete — the
// rebuilt flow that now owns the key. Nor may the restart recycle the old
// epoch's records: the in-flight completion still names one, so they are
// abandoned to the GC and the flow free list gains nothing.
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
			old := owner.newFlow(flowReady, size)
			old.ref, old.expectedGets = g.MakeCopy(prod, 0, size), 1
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
			if owner.flows.Len() != 0 {
				t.Fatalf("the restart recycled %d flow record(s) of the old epoch", owner.flows.Len())
			}
			rebuilt := owner.newFlow(flowReady, size)
			if rebuilt == old {
				t.Fatal("the rebuilt flow reuses the pre-restart record the in-flight put still names")
			}
			rebuilt.ref, rebuilt.expectedGets = g.MakeCopy(prod, 0, size), 1
			owner.putFlow(key, rebuilt)

			s.Eng.Run()

			if err := rt.Err(); err != nil {
				t.Fatalf("stale traffic aborted the runtime: %v", err)
			}
			if got := owner.flow(key); got != rebuilt {
				t.Fatalf("rebuilt flow was retired by the stale put completion (store holds %p, want %p)", got, rebuilt)
			}
			if old.servedGets != 0 || !old.registered || !old.live || owner.flows.Len() != 0 {
				t.Fatalf("stale completion touched the pre-restart record: servedGets=%d registered=%v live=%v free=%d",
					old.servedGets, old.registered, old.live, owner.flows.Len())
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
			fd := owner.newFlow(flowReady, size)
			fd.ref, fd.expectedGets = g.MakeCopy(prod, 0, size), 1
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
			ceLayer := map[stack.Backend]string{stack.LCI: "lcice", stack.MPI: "mpice"}[b]
			csent, _ := owner.books.Counts()
			if puts := s.Metrics.Value(ceLayer, "puts_started", owner.rank); puts != 0 || owner.activatesSent.Value() != 0 || csent != 0 {
				t.Fatalf("a stale step ran: puts=%d activates=%d csent=%d",
					puts, owner.activatesSent.Value(), csent)
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
			owner.pendingAct = make([]*actQueue, 2)
			owner.submit(0, fresh)
			s.Eng.Run()
			if owner.pendingOps != 0 || owner.ops.Len() != 1 {
				t.Fatalf("fresh step: pendingOps=%d free=%d, want 0 and 1", owner.pendingOps, owner.ops.Len())
			}
		})
	}
}

// TestStaleTaskRunNeitherRunsNorRecycles covers the same epoch rule for the
// dispatch records (taskRun), carved from the shard's slab with their
// completion bound once: a task dispatched before a restart must not execute
// when its worker core finishes, and its record must not reach the free list
// (nor hand its core back to the idle list a second time), while a task
// dispatched after the restart runs and recycles its record.
func TestStaleTaskRunNeitherRunsNorRecycles(t *testing.T) {
	for _, b := range stack.Backends {
		t.Run(b.String(), func(t *testing.T) {
			g := NewGraphPool("restart", 2, false)
			g.AddTask(0, 0, sim.Microsecond, 0)
			s := stack.Build(stack.DefaultOptions(b, 2))
			rt := New(s.Dom, s.Engines, g, DefaultConfig(2))
			n := rt.nodes[0]

			// Dispatched in the old epoch, then the restart.
			n.start()
			if idle := len(n.idle); idle != 1 {
				t.Fatalf("%d idle cores after the dispatch, want 1", idle)
			}
			n.resetForRecovery()
			n.paused = false
			s.Eng.Run()
			if n.executed != 0 || n.tasksRun.Value() != 0 {
				t.Fatalf("a stale dispatch ran: executed=%d tasks_run=%d", n.executed, n.tasksRun.Value())
			}
			if n.runs.Len() != 0 || len(n.idle) != 2 {
				t.Fatalf("a stale dispatch touched the rank: %d record(s) recycled, %d idle cores (want 0 and 2)",
					n.runs.Len(), len(n.idle))
			}

			// Dispatched in the new epoch: it runs and recycles its record.
			n.start()
			s.Eng.Run()
			if n.executed != 1 || n.runs.Len() != 1 || len(n.idle) != 2 {
				t.Fatalf("fresh dispatch: executed=%d free=%d idle=%d, want 1, 1 and 2", n.executed, n.runs.Len(), len(n.idle))
			}
		})
	}
}

// flowHarness builds a two-rank runtime whose rank 0 holds one ready 64 KiB
// flow with a single expected GET, and registers a landing buffer at rank 1.
func flowHarness(t *testing.T, b stack.Backend) (s *stack.Stack, n *node, key flowKey, fd *flowData, landing regHandle) {
	t.Helper()
	const size = 64 << 10
	g := NewGraphPool("retire", 2, false)
	prod := g.AddTask(0, 0, sim.Microsecond, 0, size)
	g.Link(prod, 0, g.AddTask(1, 1, sim.Microsecond, 0))
	s = stack.Build(stack.DefaultOptions(b, 2))
	rt := New(s.Dom, s.Engines, g, DefaultConfig(2))
	n = rt.nodes[0]
	key = flowKey{prod, 0}
	fd = n.newFlow(flowReady, size)
	fd.ref, fd.expectedGets = g.MakeCopy(prod, 0, size), 1
	n.putFlow(key, fd)
	landing = rt.nodes[1].ce.MemReg(g.MakeCopy(prod, 0, size).Buf)
	return s, n, key, fd, landing
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

// TestFlowRecordRetireLifecycle follows one flow record through the free
// list: the served GET's completion cleans the copy, the record comes back
// from newFlow with nothing of its previous use — its drained waiter list
// included, whose cell went back to the rank's arena — and retiring a record
// twice panics instead of putting it on the list twice.
func TestFlowRecordRetireLifecycle(t *testing.T) {
	s, n, key, fd, landing := flowHarness(t, stack.LCI)
	n.waits.push(&fd.waiters, TaskID{Index: 7})
	for range n.waits.drain(&fd.waiters) {
	}
	n.servePut(key, fd, getReq{requester: 1, epoch: n.epoch, rreg: landing})
	s.Eng.Run()
	if n.flow(key) != nil || fd.live || n.flows.Len() != 1 {
		t.Fatalf("served flow not retired: stored=%v live=%v free=%d", n.flow(key) != nil, fd.live, n.flows.Len())
	}
	mustPanic(t, "retiring a flow record twice", func() { n.retireFlow(fd) })
	mustPanic(t, "cleaning a retired flow record", func() {
		fd.state = flowReady
		n.maybeClean(key, fd)
	})

	again := n.newFlow(flowAnnounced, 8)
	if again != fd {
		t.Fatal("the retired record was not reused")
	}
	if c := n.waits.take(TaskID{}); c != 1 || n.waits.free != noCell {
		t.Fatalf("the drained waiter cell was not reused: took %d, free chain at %d", c, n.waits.free)
	}
	want := flowData{live: true, state: flowAnnounced, size: 8}
	if !reflect.DeepEqual(*again, want) {
		t.Fatalf("recycled record carries state of its previous use: %+v", *again)
	}
}

// TestFlowRecordRetiredUnderCommOpPanics pins the lifetime rule's loud half:
// a deferred communication-thread step that reaches a flow record after the
// copy was cleaned — the three kinds that carry one — panics rather than
// serve, deliver or settle whatever flow the record describes by then.
func TestFlowRecordRetiredUnderCommOpPanics(t *testing.T) {
	steps := map[string]func(n *node, key flowKey, fd *flowData, landing regHandle){
		"servePut": func(n *node, key flowKey, fd *flowData, landing regHandle) {
			o := n.newOp(opServePut)
			o.key, o.fd, o.req = key, fd, getReq{requester: 1, epoch: n.epoch, rreg: landing}
			n.pendingOps++
			o.exec()
		},
		"deliver": func(n *node, key flowKey, fd *flowData, _ regHandle) {
			o := n.newOp(opDeliver)
			o.key, o.fd = key, fd
			n.pendingOps++
			o.exec()
		},
		"putLocalDone": func(n *node, key flowKey, fd *flowData, _ regHandle) {
			o := n.newOp(opPutDone)
			o.key, o.fd = key, fd
			o.putLocalDone()
		},
	}
	for name, step := range steps {
		t.Run(name, func(t *testing.T) {
			_, n, key, fd, landing := flowHarness(t, stack.MPI)
			fd.expectedGets = 0
			n.maybeClean(key, fd)
			if fd.live {
				t.Fatal("maybeClean did not retire the unreferenced flow")
			}
			mustPanic(t, name+" on a retired flow record", func() { step(n, key, fd, landing) })
		})
	}
}
