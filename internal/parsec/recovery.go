package parsec

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/metrics"
	recov "amtlci/internal/recover"
	"amtlci/internal/sim"
)

// Crash recovery. With EnableRecovery armed, the runtime survives rank
// crashes — including cascades: a second crash during an in-flight recovery,
// or the simultaneous loss of a buddy pair — instead of aborting:
//
//  1. every completed task checkpoints its outputs to the rank's buddy
//     (internal/recover) before its successors are released;
//  2. when the transport declares a rank dead (a core.PeerDeath verdict from
//     the reliable layer's failure detector), each survivor pauses and casts
//     a DEADVOTE for it on the termination-detection control channel; the
//     lowest live rank collects votes over the whole *dead-set*, and a
//     restart arms only when every live survivor has voted for every member
//     of the set;
//  3. recovery rounds are generation-fenced and interruptible: a new verdict
//     arriving while a restart is armed (or an unconverged crash discovered
//     as the round fires) grows the dead-set, bumps the generation, and
//     aborts the stale round — convergence then re-forms over the larger set
//     and one combined restart absorbs all of it;
//  4. the restart re-maps each dead rank's tasks onto the rank holding its
//     checkpoints (the next live ring member when the buddy died too),
//     repairs checkpoint protection — heirs adopt the orphaned copies they
//     hold for the dead, survivors whose buddy died re-replicate their set
//     to a freshly assigned live buddy — wipes all live dataflow state,
//     advances the epoch (so in-flight pre-crash traffic is recognized as
//     stale and dropped), restores checkpointed outputs, re-issues
//     activations for the work that was lost, and resumes.
//
// A task is "done" exactly when its post-remap owner holds a checkpoint for
// it; everything else re-executes. Checkpoints lost with a crash (including
// a whole buddy pair dying, which loses the pair's copies outright)
// therefore cost re-execution, never correctness.

// RecoveryConfig arms crash recovery.
type RecoveryConfig struct {
	// Managers holds one checkpoint manager per rank, built over the same
	// engines the runtime runs on.
	Managers []*recov.Manager
	// RestartDelay separates a converged dead-set from its restart, giving
	// in-flight traffic time to drain (stale traffic is dropped by epoch
	// anyway; the delay just reduces churn). It is also the interruption
	// window: a verdict landing inside it aborts the round.
	RestartDelay sim.Duration
	// MaxRecoveries bounds how many distinct rank deaths the runtime will
	// absorb before aborting like an unprotected run; 0 means 1. A
	// buddy-pair crash absorbed by one restart round still spends two.
	MaxRecoveries int
}

type recoveryState struct {
	cfg RecoveryConfig
	// votes[dead] is the set of survivor ranks whose transport has declared
	// dead gone. Only votes from currently-live voters count toward
	// convergence — a voter that dies takes its vote's weight with it.
	votes map[int]map[int]bool
	// deadSet holds the ranks the current (unfinished) recovery round must
	// absorb; recovered the ranks already absorbed by completed rounds;
	// everDead every distinct rank ever declared dead (the budget).
	deadSet   map[int]bool
	recovered map[int]bool
	everDead  map[int]bool
	// done is the set of tasks that will not re-execute after the latest
	// restart, consulted once per successor edge from then on: a flat table
	// like the runtime's other per-task lookups (flow 0 of the key).
	done flatTable[struct{}]
	// gen fences armed restarts: it bumps whenever the dead-set grows, so a
	// restart scheduled for an older, smaller set aborts instead of firing
	// against membership it no longer describes.
	gen     int
	armed   bool
	aborted *metrics.Counter
}

// EnableRecovery arms crash recovery; call it after New and before Run. It
// takes over the engines' error routing: peer-death verdicts feed the
// recovery protocol, anything else still aborts the graph. Recovery
// checkpoints and restores one output flow per task: a task that returns
// more than one output fails the run with an error naming it.
func (rt *Runtime) EnableRecovery(rc RecoveryConfig) {
	// Recovery restarts mutate every rank's state in one atomic simulation
	// event, which only a serial engine provides (crash injection is gated
	// the same way in fabric.InstallFaults).
	if rt.dom.Shards() > 1 {
		panic("parsec: crash recovery requires a single-shard domain")
	}
	if len(rc.Managers) != len(rt.nodes) {
		panic(fmt.Sprintf("parsec: %d checkpoint managers for %d ranks",
			len(rc.Managers), len(rt.nodes)))
	}
	if rc.MaxRecoveries <= 0 {
		rc.MaxRecoveries = 1
	}
	rt.rec = &recoveryState{
		cfg:       rc,
		votes:     make(map[int]map[int]bool),
		deadSet:   make(map[int]bool),
		recovered: make(map[int]bool),
		everDead:  make(map[int]bool),
		aborted:   rt.reg.Counter("parsec", "recovery_rounds_aborted", metrics.StackRank),
	}
	for i, n := range rt.nodes {
		i := i
		n.ce.OnError(func(err error) { rt.commError(i, err) })
	}
}

// KillRank marks rank crashed: its handlers and workers go inert. Wire it to
// the fabric's crash notification (fab.OnCrash) so the runtime's view of the
// crash is exactly the fabric's.
func (rt *Runtime) KillRank(rank int) {
	n := rt.nodes[rank]
	n.dead = true
	n.paused = true
}

// rankOf resolves t's executing rank through the recovery remap. Remap
// entries chain across rounds — rank 1's heir may itself die and be
// re-mapped — so resolution follows the chain to the live end (each entry
// pointed to a then-live rank when it was created, and dead ranks never
// revive, so the chain is acyclic and at most nranks long).
func (rt *Runtime) rankOf(t TaskID) int {
	r := rt.tp.RankOf(t)
	// remap is nil until the first restart (no hops); a rank outside it — a
	// task id decoded from a corrupted message — resolves to itself.
	for hops := 0; hops < len(rt.remap) && uint(r) < uint(len(rt.remap)); hops++ {
		nr := int(rt.remap[r])
		if nr == r {
			break
		}
		r = nr
	}
	return r
}

// isDone reports whether t completed before the latest restart.
func (rt *Runtime) isDone(t TaskID) bool {
	return rt.rec != nil && rt.rec.done.get(flowKey{task: t}) != nil
}

// checkpointTask streams a completed task's outputs to the rank's buddy.
// No-op (and zero-cost) when recovery is off. The flow list is node scratch,
// cleared afterwards so it pins no payload: the manager keeps its own copy.
func (rt *Runtime) checkpointTask(n *node, t TaskID, outputs []DataRef) {
	if rt.rec == nil || n.dead {
		return
	}
	if len(outputs) > 1 {
		rt.fail(fmt.Errorf("parsec: task %v returned %d outputs; crash recovery supports one output flow per task",
			t, len(outputs)))
		return
	}
	flows := n.ckptFlows[:0]
	for i, o := range outputs {
		flows = append(flows, recov.FlowCkpt{Flow: int32(i), Size: o.Buf.Size, Data: o.Buf.Bytes})
	}
	n.ckptFlows = flows
	defer clear(flows)
	k := recov.Key{Class: t.Class, Index: t.Index}
	m := rt.rec.cfg.Managers[n.rank]
	if owner := rt.rankOf(t); owner != n.rank {
		// A stolen task: the restart's done-set scan looks at the owner, so
		// the completion marker must land there (and at the owner's buddy,
		// covering the owner itself crashing) — not at this thief's buddy.
		// The frame is stamped with the owner's rank so that whoever stores
		// it re-homes it when the OWNER dies, not when this thief does. The
		// buddy index is static ring knowledge; reading the owner's manager
		// for it is a simulator convenience, not a protocol channel.
		// Destinations the thief's detector knows dead are skipped inside
		// CheckpointFor; losing both merely re-executes the task later.
		m.CheckpointFor(k, flows, owner, owner, rt.rec.cfg.Managers[owner].Buddy())
		return
	}
	m.Checkpoint(k, flows)
}

// commError is the engines' error handler once recovery is armed.
func (rt *Runtime) commError(observer int, err error) {
	var pd core.PeerDeath
	if errors.As(err, &pd) {
		rt.peerDead(observer, pd.DeadPeer(), err)
		return
	}
	rt.fail(err)
}

// peerDead handles one survivor's death verdict: the observer stops
// checkpointing to the dead rank, pauses (its pre-crash dataflow state is
// about to be wiped), and re-casts every DEADVOTE it holds on the
// termination-detection control channel to the lowest live rank, which arms
// the restart once the whole dead-set has converged. Convergence is thus a
// wire-level consensus, not a direct-call barrier: a vote travels with real
// latency and the collector is a rank, not the orchestrator.
//
// Re-casting the full vote set — not just the new verdict — is what makes
// the consensus survive the death of its own collector: votes in flight to a
// rank that dies are dropped at the NIC, but the verdict about that rank
// reaches every survivor, and each re-cast replays the lost votes at the new
// collector. Duplicates dedup in the vote book.
func (rt *Runtime) peerDead(observer, dead int, err error) {
	rec := rt.rec
	if rt.failed != nil {
		return
	}
	// Budget check on distinct dead ranks, not restart rounds.
	if !rec.everDead[dead] {
		if len(rec.everDead) >= rec.cfg.MaxRecoveries {
			rt.fail(err)
			return
		}
		rec.everDead[dead] = true
	}
	rt.KillRank(dead) // idempotent; normally already done via fab.OnCrash
	rec.cfg.Managers[observer].MarkDead(dead)
	on := rt.nodes[observer]
	if on.deadVotes[dead] {
		return // duplicate verdict (rel dedups per endpoint; this is belt)
	}
	if on.deadVotes == nil {
		on.deadVotes = make(map[int]bool)
	}
	on.deadVotes[dead] = true
	on.paused = true

	collector := -1
	for r, n := range rt.nodes {
		if !n.dead {
			collector = r
			break
		}
	}
	if collector < 0 {
		rt.fail(err) // no survivors at all
		return
	}
	votes := make([]int, 0, len(on.deadVotes))
	for d := range on.deadVotes {
		votes = append(votes, d)
	}
	sort.Ints(votes)
	for _, d := range votes {
		if collector == observer {
			rt.recordDeadvote(d, observer)
			continue
		}
		vote := termMsg{kind: termDeadvote, epoch: on.epoch, rank: int32(d)}
		on.sendTerm(collector, vote)
	}
}

// maybeScheduleRestart arms the restart once every live survivor has voted
// for every member of the dead-set. The armed event carries the generation
// it converged for: a verdict landing inside the RestartDelay window bumps
// the generation and the stale event aborts instead of restarting.
func (rt *Runtime) maybeScheduleRestart() {
	rec := rt.rec
	if rec.armed || len(rec.deadSet) == 0 {
		return
	}
	survivors := 0
	for _, n := range rt.nodes {
		if !n.dead {
			survivors++
		}
	}
	if survivors == 0 {
		return
	}
	for d := range rec.deadSet {
		live := 0
		for v := range rec.votes[d] {
			if !rt.nodes[v].dead {
				live++
			}
		}
		if live < survivors {
			return
		}
	}
	rec.armed = true
	gen := rec.gen
	// Recovery is serial-only (EnableRecovery enforces it), so rank 0's
	// engine is THE engine.
	rt.dom.RankEngine(0).After(rec.cfg.RestartDelay, func() { rt.restartRound(gen) })
}

// enumerateTasks walks the whole task graph from the roots (every non-root
// task is reachable along dependence edges, or it could never have run).
// Every task has at most one output flow while recovery is armed
// (checkpointTask fails the run otherwise), so flow 0's successors are all
// of a task's successors.
func (rt *Runtime) enumerateTasks() []TaskID {
	seen := make(map[TaskID]bool)
	var queue, all []TaskID
	push := func(t TaskID) {
		if !seen[t] {
			seen[t] = true
			queue = append(queue, t)
		}
	}
	for r := range rt.nodes {
		rt.tp.Roots(r, push)
	}
	var succ []Dep
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		all = append(all, t)
		succ = rt.tp.Successors(t, 0, succ[:0])
		for _, d := range succ {
			push(d.Task)
		}
	}
	return all
}

// nextLive returns the first live rank after r on the ring, or -1 when no
// other rank is alive.
func (rt *Runtime) nextLive(r int) int {
	for i := 1; i < len(rt.nodes); i++ {
		c := (r + i) % len(rt.nodes)
		if !rt.nodes[c].dead {
			return c
		}
	}
	return -1
}

// restartRound rebuilds the runtime around the converged dead-set's absence.
// gen fences it: a round armed for an older generation is stale and aborts.
func (rt *Runtime) restartRound(gen int) {
	rec := rt.rec
	if rt.failed != nil {
		return
	}
	if gen != rec.gen {
		return // aborted: the dead-set grew while armed; counted at the bump
	}
	rec.armed = false
	// A crash can land inside the RestartDelay window without its verdicts
	// having reached the collector yet (the fabric marks the node dead at
	// the crash instant; the lease expiries are still pending). Restarting
	// now would rebuild state around a rank that is already gone — abort the
	// round and let the pending verdicts re-converge with it included.
	for x, n := range rt.nodes {
		if n.dead && !rec.recovered[x] && !rec.deadSet[x] {
			rec.aborted.Inc()
			return
		}
	}
	deads := make([]int, 0, len(rec.deadSet))
	for d := range rec.deadSet {
		deads = append(deads, d)
	}
	sort.Ints(deads)
	rt.restarts.Inc()

	// Every survivor's manager hears about every death (the observers' own
	// verdicts already did this; this is the orchestrator's belt) so nobody
	// ships checkpoint frames into the void.
	for r, m := range rec.cfg.Managers {
		if rt.nodes[r].dead {
			continue
		}
		for _, d := range deads {
			m.MarkDead(d)
		}
	}

	// Re-map ownership: each dead rank's tasks move to the rank holding its
	// checkpoints — its buddy — unless the buddy died in the same cascade
	// (a buddy-pair crash), in which case the next live ring member inherits
	// and the pair's checkpoints are lost: those tasks simply re-execute.
	if rt.remap == nil {
		rt.remap = make([]int32, len(rt.nodes))
		for r := range rt.remap {
			rt.remap[r] = int32(r)
		}
	}
	for _, d := range deads {
		heir := rec.cfg.Managers[d].Buddy()
		if rt.nodes[heir].dead {
			heir = rt.nextLive(d)
		}
		rt.remap[d] = int32(heir)
	}

	// Repair checkpoint protection: each heir adopts the orphaned copies it
	// stored for its dead rank (they join its own protected set), survivors
	// whose buddy died get the next live rank as a fresh buddy and
	// re-replicate their whole set to it, and heirs whose pairing survived
	// re-replicate just the adopted keys. Re-replication frames travel on
	// the ordinary checkpoint tag and are uncounted by the termination
	// detector; ones lost to yet another crash cost re-execution only.
	for r, m := range rec.cfg.Managers {
		if rt.nodes[r].dead {
			continue
		}
		var adopted []recov.Key
		for _, d := range deads {
			if int(rt.remap[d]) == r {
				adopted = append(adopted, m.AdoptOrphans(d)...)
			}
		}
		if rt.nodes[m.Buddy()].dead || m.Buddy() == r {
			if nb := rt.nextLive(r); nb >= 0 {
				m.SetBuddy(nb)
				m.RereplicateAll()
			} else {
				m.SetBuddy(r) // ring collapsed to one: local-only from here
			}
		} else if len(adopted) > 0 {
			m.Rereplicate(adopted)
		}
	}

	// A task is done exactly when its post-remap owner holds a checkpoint:
	// the owner's own completions are stored locally, and a dead rank's are
	// the copies its heir adopted.
	all := rt.enumerateTasks()
	rec.done.reset()
	for _, t := range all {
		owner := rt.rankOf(t)
		if rec.cfg.Managers[owner].Has(recov.Key{Class: t.Class, Index: t.Index}) {
			rec.done.insert(flowKey{task: t})
		}
	}

	// Wipe every rank's dataflow state and advance the epoch; all pre-crash
	// traffic still in flight becomes recognizably stale.
	for _, n := range rt.nodes {
		n.resetForRecovery()
	}

	// Rebuild per-rank totals under the new ownership; done tasks count as
	// executed and will never run again.
	for _, t := range all {
		n := rt.nodes[rt.rankOf(t)]
		n.total++
		if rt.isDone(t) {
			n.executed++
		}
	}

	// Restore every done task's outputs at its post-remap owner and re-issue
	// the activations its completion would have sent, filtered down to the
	// consumers that still need them.
	for _, t := range all {
		if !rt.isDone(t) {
			continue
		}
		owner := rt.rankOf(t)
		flows, ok := rec.cfg.Managers[owner].Lookup(recov.Key{Class: t.Class, Index: t.Index})
		if !ok {
			panic(fmt.Sprintf("parsec: done task %v has no checkpoint at rank %d", t, owner))
		}
		rt.nodes[owner].restoreTask(t, flows)
	}

	// Reseed the roots that still need to run.
	for r := range rt.nodes {
		rt.tp.Roots(r, func(t TaskID) {
			if rt.isDone(t) {
				return
			}
			n := rt.nodes[rt.rankOf(t)]
			n.stateOf(t)
			n.makeReady(t)
		})
	}

	// The dead ranks leave the termination-detection ring only now: until
	// this point their unexecuted work kept any token parked at an inert
	// rank, which is what made a false announcement between crash and
	// restart impossible. The restart is one atomic simulation event, so
	// every rank's counters were zeroed in lockstep above and the detector's
	// round state starts clean.
	for _, d := range deads {
		rt.term.members[d] = false
	}
	rt.term.outstanding = false
	rt.term.lastValid = false

	// Retire the round: the absorbed ranks move to recovered, their vote
	// books close, and survivors drop the votes they were retaining for
	// re-cast (late duplicates are ignored against recovered ranks).
	for _, d := range deads {
		rec.recovered[d] = true
		delete(rec.deadSet, d)
		delete(rec.votes, d)
		for _, n := range rt.nodes {
			delete(n.deadVotes, d)
		}
	}

	// Resume. Each rank re-evaluates its quiet state: idle survivors nudge
	// the (possibly new) coordinator and go probing for work to steal; if
	// everything was already done, the detector proves it and announces.
	for _, n := range rt.nodes {
		if n.dead {
			continue
		}
		n.paused = false
		n.dispatch()
	}
	for _, n := range rt.nodes {
		if !n.dead {
			n.pollQuiet()
		}
	}
}

// resetForRecovery wipes one rank's dataflow state for a restart. Old memory
// registrations are deliberately leaked rather than deregistered: a put that
// raced the crash may still land in one, and the registry panics on unknown
// handles — the leaked registration absorbs the write and the stale
// completion is dropped by epoch.
func (n *node) resetForRecovery() {
	n.epoch++
	// Pre-restart flow records are dropped with the table, never retired:
	// deferred steps of the old epoch still hold them. The flow free list is
	// kept, like the op free list below: it only ever holds records that
	// nothing names any more.
	n.store.reset()
	n.tasks.reset()
	n.ready = prioQueue{}
	n.fetchQ = prioQueue{}
	n.activeFetches = 0
	clear(n.pendingAct)
	clear(n.flushQueued)
	n.pendingDests = 0
	n.lastOutputs = nil
	n.executed, n.total = 0, 0
	n.idle = n.idle[:0]
	for i := range n.workers {
		n.idle = append(n.idle, i)
	}
	n.paused = true
	// Termination-detection reset: counters restart from zero in the new
	// epoch (stale cross-epoch messages are dropped uncounted on receive, so
	// the books stay balanced), any parked token is void, and the dirty flag
	// re-arms so every rank reintroduces itself to the detector. Stealing
	// state resets alongside: an in-flight probe or grant died with the old
	// epoch. deadVotes is NOT cleared — death verdicts are permanent and a
	// survivor must be able to re-cast them across restarts; the restart
	// prunes only the ranks it just absorbed.
	n.csent, n.crecv = 0, 0
	n.black = false
	n.dirty = true
	n.holdsToken = false
	// pendingOps is NOT zeroed: steps already queued on the communication
	// thread still fire (commOp.exec skips their stale bodies) and each
	// decrements the counter; zeroing here would double-count them negative
	// and wedge the quiet predicate. The op free list is kept: it only ever
	// holds records whose step has run.
	n.probeOut = false
	n.starving = nil
	n.stealSvcQueued = false
	if n.rot != nil {
		n.rot.Reset()
	}
}

// restoreTask re-creates a done task's output flows from its checkpoint: the
// payload becomes flowReady at this rank, local not-yet-done consumers are
// satisfied directly, and each rank that still has consumers waiting gets a
// fresh (tree-less) activation to fetch against.
func (n *node) restoreTask(t TaskID, flows []recov.FlowCkpt) {
	n.tasksRestored.Inc()
	for _, f := range flows {
		key := flowKey{t, f.Flow}
		n.succScratch = n.rt.tp.Successors(t, f.Flow, n.succScratch[:0])
		var locals []TaskID
		remote := n.remoteScratch[:0]
		for _, dep := range n.succScratch {
			if n.rt.isDone(dep.Task) {
				continue
			}
			r := n.rankOf(dep.Task)
			if r == n.rank {
				locals = append(locals, dep.Task)
				continue
			}
			remote = append(remote, int32(r))
		}
		n.remoteScratch = remote
		if len(locals) == 0 && len(remote) == 0 {
			continue // every consumer already ran; nothing needs this copy
		}
		slices.Sort(remote)
		remote = slices.Compact(remote)

		ref := n.rt.tp.MakeCopy(t, f.Flow, f.Size)
		if f.Data != nil {
			buf.Copy(ref.Buf, buf.FromBytes(f.Data))
		}
		now := int64(n.clock.Read(n.eng.Now()))
		fd := n.newFlow(flowReady, f.Size)
		fd.ref = ref
		fd.meta = activation{task: t, flow: f.Flow, size: f.Size,
			root: int32(n.rank), rootSend: now, hopRank: int32(n.rank), hopSend: now,
			epoch: n.epoch}
		n.putFlow(key, fd)

		for _, lt := range locals {
			fd.localRefs++
			n.satisfy(lt)
		}
		if f.Size > 0 {
			fd.expectedGets = int32(len(remote))
		}
		for _, r := range remote {
			act := fd.meta
			act.subtree = nil
			n.sendActivate(int(r), act, -1)
		}
	}
}
