package parsec

import (
	"amtlci/internal/sim"
	"amtlci/internal/steal"
)

// opKind names the deferred communication-thread steps of the runtime.
type opKind int8

const (
	opServeStarving opKind = iota // push grants to starving thieves
	opAggregate                   // queue one activation for peer (§4.3 duty 1)
	opFlush                       // send peer's aggregated ACTIVATE
	opActivation                  // process one received activation
	opServePut                    // answer one GET DATA with a put
	opDeliver                     // fetched data landed: release its waiters
	opServeSteal                  // decide one steal probe
	opAdoptStolen                 // integrate one steal reply
	opStealRelease                // a thief settled an input pin without fetching
	opPutDone                     // a served put's local completion (not a Submit body)
)

// commOp is one deferred step on the communication thread: what the step is
// and the arguments it needs. Deferring a step allocates neither the submit
// wrapper nor a closure over the arguments: submit queues the record on the
// node's step FIFO and hands the engine the node's one bound runOp. Records
// come from node.ops, or fresh from the shard's slab, and go back to node.ops
// when their step has run.
//
// The recovery epoch travels IN the record, under the same rule as taskRun: a
// restart leaves pre-restart steps queued on the communication thread, and
// such a step finds its own stale epoch — not state the new epoch has since
// written — is dropped, and is never recycled (the free list only ever holds
// records whose single queued run has finished).
type commOp struct {
	n     *node
	live  bool // between newOp and retireOp
	kind  opKind
	epoch int32
	peer  int        // opAggregate/opFlush: destination; steal steps: the other rank
	act   activation // opAggregate, opActivation (setAct); opDeliver: the put's tracing stamps
	key   flowKey    // opServePut, opDeliver, opPutDone
	fd    *flowData  // opServePut, opDeliver, opPutDone
	req   getReq     // opServePut
	sreq  steal.Request
	srep  steal.Reply
	srel  steal.Release
	next  *commOp // the next step in the node's FIFO, while queued

	// opActivation: the local consumers that wait for the data, a chain of
	// node.waits cells, their count and their highest priority (onActivate's
	// scan). The chain is the step's until processActivation hands it on;
	// a stale step releases it.
	waiters cellList
	nwait   int32
	maxPrio int64

	// putDone is the PutArgs.LocalCB of opPutDone, made the first time the
	// record serves as one (putCompletion) and kept across reuses; tree is
	// the storage act.subtree aliases (setAct), kept the same way.
	putDone func()
	tree    []int32
}

// setAct stores act as the step's activation, with its subtree copied into
// the record's own storage: the tree it was cut from is scratch.
func (o *commOp) setAct(act activation) {
	o.tree = append(o.tree[:0], act.subtree...)
	o.act = act
	o.act.subtree = o.tree
}

// newOp takes an op record stamped with the current epoch.
func (n *node) newOp(kind opKind) *commOp {
	o := n.ops.Get()
	if o == nil {
		o = n.slab.ops.take()
		o.n = n
	}
	if kind == opPutDone && o.putDone == nil {
		o.putDone = n.putCompletion(len(n.putRecs))
		n.putRecs = append(n.putRecs, o)
	}
	o.live, o.kind, o.epoch = true, kind, n.epoch
	return o
}

func (n *node) retireOp(o *commOp) {
	if !o.live {
		panic("parsec: communication-thread step used after retirement")
	}
	*o = commOp{n: n, putDone: o.putDone, tree: o.tree[:0]}
	n.ops.Put(o)
}

// putCompletion returns the local-completion callback of the record at
// n.putRecs[i]. It names the record by index, not by pointer: a put that never
// completes — one a crashed rank was serving — leaves its callback in the
// engine for good, and there it must pin nothing but the node, never the
// record and the slab chunk around it. releaseRunState drops putRecs.
func (n *node) putCompletion(i int) func() {
	return func() { n.putRecs[i].putLocalDone() }
}

// submit defers o to the communication thread like ce.Submit, but tracks the
// operation in the quiet predicate: between scheduling and execution the
// rank is provably not quiet, closing the window where balanced counters
// plus an empty scheduler would otherwise fake termination.
//
// The engine runs what is submitted in submission order, each item exactly
// once, on a live, dead or restarted rank alike (core.Engine.Submit). So one
// closure serves every step: o joins the node's FIFO, and the engine's item
// is n.runOp, bound once, which pops the oldest queued step when it runs —
// the k-th runOp to run is the k-th submit's. Staleness stays in exec.
func (n *node) submit(cost sim.Duration, o *commOp) {
	n.pendingOps++
	if n.opTail == nil {
		n.opHead = o
	} else {
		n.opTail.next = o
	}
	n.opTail = o
	n.ce.Submit(cost, n.runOpFn)
}

// runOp is the engine's item for every submitted step: it pops the oldest
// and runs it.
func (n *node) runOp() {
	o := n.opHead
	if o == nil {
		panic("parsec: the communication thread ran a step nobody submitted")
	}
	n.opHead, o.next = o.next, nil
	if n.opHead == nil {
		n.opTail = nil
	}
	o.exec()
}

// stale reports whether the step was deferred by a rank that has since died
// or restarted. One kind is exempt from the death half: a crashed rank has
// always kept serving the GETs its communication thread had queued — the
// puts die at its NIC, before any RNG draw, so virtual time cannot tell, but
// they count in the engines' and libraries' statistics, which a change to the
// simulator's bookkeeping must not move (ROADMAP: drop the exemption together
// with the recorded counts it pins).
func (o *commOp) stale() bool {
	if !o.live {
		panic("parsec: communication-thread step used after retirement")
	}
	return o.epoch != o.n.epoch || (o.n.dead && o.kind != opServePut)
}

// exec runs one deferred step. A stale step still settles pendingOps (the
// restart does not zero it) and still polls the quiet predicate, but its body
// is skipped: it describes dataflow state that no longer exists.
func (o *commOp) exec() {
	n := o.n
	n.pendingOps--
	if o.stale() {
		if o.kind == opActivation || o.kind == opDeliver {
			n.staleDrops.Inc()
		}
		n.waits.drop(o.waiters)
		o.waiters = cellList{}
		n.pollQuiet()
		return
	}
	switch o.kind {
	case opServeStarving:
		n.serveStarving()
	case opAggregate:
		n.aggregate(o.peer, o.act)
	case opFlush:
		n.flushActivates(o.peer)
	case opActivation:
		n.processActivation(o)
	case opServePut:
		n.servePut(o.key, o.fd, o.req)
	case opDeliver:
		n.deliver(o.key, o.fd, o.act)
	case opServeSteal:
		n.serveSteal(o.peer, o.sreq)
	case opAdoptStolen:
		n.adoptStolen(o.peer, o.srep)
	case opStealRelease:
		n.releasePin(o.srel)
	}
	n.retireOp(o)
	n.pollQuiet()
}

// putLocalDone is the local completion of a put served by servePut. A
// restart while the put was in flight orphaned fd: the store may hold a
// rebuilt flow under the same key, which retiring the old record would
// deregister and delete.
func (o *commOp) putLocalDone() {
	if o.stale() {
		return
	}
	n, key, fd := o.n, o.key, o.fd
	n.retireOp(o)
	fd.mustLive()
	fd.servedGets++
	n.maybeClean(key, fd)
}
