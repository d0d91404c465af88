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
// and the arguments it needs, with its func() bound once when the record is
// made, so deferring a step allocates neither the submit wrapper nor a
// closure over the arguments. Records come from node.ops and go back when
// their step has run.
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
	act   activation // opAggregate, opActivation; opDeliver: the put's tracing stamps
	key   flowKey    // opServePut, opDeliver, opPutDone
	fd    *flowData  // opServePut, opDeliver, opPutDone
	req   getReq     // opServePut
	sreq  steal.Request
	srep  steal.Reply
	srel  steal.Release

	run     func() // o.exec, the Submit body
	putDone func() // o.putLocalDone, the PutArgs.LocalCB of opPutDone
}

// opListCap bounds node.ops, and node.flows with it: a fetch burst (FetchCap)
// of deferred steps, each about one flow copy.
const opListCap = 1024

// newOp takes an op record stamped with the current epoch.
func (n *node) newOp(kind opKind) *commOp {
	o := n.ops.Get()
	if o == nil {
		o = &commOp{n: n}
		o.run, o.putDone = o.exec, o.putLocalDone
	}
	o.live, o.kind, o.epoch = true, kind, n.epoch
	return o
}

func (n *node) retireOp(o *commOp) {
	if !o.live {
		panic("parsec: communication-thread step used after retirement")
	}
	*o = commOp{n: n, run: o.run, putDone: o.putDone}
	n.ops.Put(o)
}

// submit defers o to the communication thread like ce.Submit, but tracks the
// operation in the quiet predicate: between scheduling and execution the
// rank is provably not quiet, closing the window where balanced counters
// plus an empty scheduler would otherwise fake termination.
func (n *node) submit(cost sim.Duration, o *commOp) {
	n.pendingOps++
	n.ce.Submit(cost, o.run)
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
		n.processActivation(o.act)
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
