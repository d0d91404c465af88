package parsec

import (
	"amtlci/internal/core"
	"amtlci/internal/sim"
	"amtlci/internal/steal"
)

// Inter-rank work stealing (Config.Steal). A rank whose workers have all
// gone idle — the same quiet transition the termination detector watches —
// probes the other ranks in ring order. A loaded victim grants up to half
// of its *eligible* ready tasks as RMA-style task frames: the task identity
// plus its input-flow sizes. The thief rebuilds each task's dependence
// state from the taskpool (identical on every rank by contract) and pulls
// the actual input tiles over the ordinary GET DATA / put machinery, so
// migrated data moves under the existing flow-word protocol and stolen
// results are announced exactly like home-grown ones. All three steal
// messages are counted by the termination detector: an in-flight grant
// vetoes termination like any other dataflow message.
//
// Eligibility: a ready task can migrate only if every input flow is
// resident (flowReady) at the victim. The thief may itself be a consumer
// rank of an input flow — common under block-cyclic placement — in which
// case an ACTIVATE for that flow has been or will be multicast to it. If
// the activation arrives first, the thief adopts into the existing entry
// and RELEASEs the victim's pin; if the steal lands first, the entry is
// flagged stolen and the later activation merges into it
// (mergeActivation) instead of colliding as a duplicate.
//
// Pin accounting: for each granted task input with a payload the victim
// increments the flow's expectedGets (a pin) so cleanup cannot retire the
// copy before the thief has it. The thief settles every pin exactly once:
// either its GET DATA (the fetch serves and unpins) or an explicit RELEASE
// (the thief already holds or is already fetching its own copy). Shared
// inputs across stolen tasks pin once per granted task and settle once per
// pin.

// maybeProbe sends one steal probe if this (quiet) rank's rotation still
// has victims to try. At most one probe is outstanding; the rotation goes
// dormant after a full unsuccessful cycle and re-arms when local work
// appears or a grant lands — two mutually idle ranks therefore stop probing
// each other instead of ping-ponging forever.
func (n *node) maybeProbe() {
	if n.rot == nil || n.probeOut || n.rt.failed != nil || n.rt.term.Announced() {
		return
	}
	v, ok := n.rot.Next(func(r int) bool { return !n.rt.nodes[r].dead })
	if !ok {
		return
	}
	n.probeOut = true
	n.probeSentAt = n.eng.Now()
	req := steal.Request{Epoch: n.epoch, Max: uint16(n.cfg.StealMax)}
	n.books.CountSend()
	n.ce.SendAM(tagStealReq, v, steal.EncodeRequest(req))
}

// onStealReq runs at the victim: decode, count, and defer the grant
// decision to the communication thread.
func (n *node) onStealReq(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	req, err := steal.DecodeRequest(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad steal request from %d: %w", n.rank, src, err)
		return
	}
	if !n.admit(req.Epoch) {
		return
	}
	o := n.newOp(opServeSteal)
	o.peer, o.sreq = src, req
	n.submit(n.cfg.GetDataCost, o)
}

// serveSteal grants up to half of the eligible ready tasks to the thief —
// always answering, because the thief's rotation blocks on the reply. A
// denied thief is remembered as starving: when this rank next gains ready
// work it pushes a grant unprompted (serveStarving). Push-on-demand is what
// keeps stealing live without retry timers — a periodic re-probe would be a
// perpetual event source, which would both hold the simulation open and feed
// the termination detector an endless stream of counted messages.
func (n *node) serveSteal(src int, req steal.Request) {
	if n.rt.nodes[src].dead {
		return // granting to a crashed thief would strand the tasks
	}
	rep := steal.Reply{Epoch: n.epoch}
	if !n.paused && n.ready.Len() >= 1 {
		// Anything still queued is surplus: the workers are all busy or the
		// queue would have drained into them.
		rep.Tasks = n.grantTasks(src, int(req.Max))
	}
	if len(rep.Tasks) == 0 {
		if n.starving == nil {
			n.starving = make(map[int]bool)
		}
		n.starving[src] = true
	}
	n.books.CountSend()
	n.ce.SendAM(tagStealRep, src, steal.EncodeReply(rep))
}

// serveStarving runs on the victim's communication thread after new ready
// work appeared while denied thieves were on record: it pushes each starving
// thief (in rank order, for determinism) an unsolicited grant while surplus
// remains. Thieves that cannot be served right now simply stay starving and
// are retried at the next makeReady.
func (n *node) serveStarving() {
	n.stealSvcQueued = false
	if n.dead || n.paused || n.rt.failed != nil {
		return
	}
	for r := 0; r < n.rt.ranks() && len(n.starving) > 0; r++ {
		if !n.starving[r] {
			continue
		}
		if n.rt.nodes[r].dead {
			delete(n.starving, r)
			continue
		}
		if n.ready.Len() < 1 {
			return
		}
		frames := n.grantTasks(r, n.cfg.StealMax)
		if len(frames) == 0 {
			return // nothing eligible for anyone right now; retry later
		}
		delete(n.starving, r)
		rep := steal.Reply{Epoch: n.epoch, Tasks: frames}
		n.books.CountSend()
		n.ce.SendAM(tagStealRep, r, steal.EncodeReply(rep))
	}
}

// grantTasks pops the entire ready queue, selects the lowest-priority
// eligible tasks (the steal-half policy: the victim keeps at least half,
// and keeps its high-priority critical path), detaches them from local
// scheduler state, pins their inputs, and returns their wire frames.
func (n *node) grantTasks(thief, reqMax int) []steal.TaskFrame {
	all := make([]prioItem, 0, n.ready.Len())
	for n.ready.Len() > 0 {
		all = append(all, n.ready.Pop()) // highest priority first
	}
	eligible := make([]int, 0, len(all)) // indices into all
	for i, it := range all {
		if n.stealEligible(it.task, thief) {
			eligible = append(eligible, i)
		}
	}
	// Steal half, but at least one: post-crash imbalance on small graphs
	// trickles tasks into the victim's queue one at a time, and a strict
	// half-of-queue policy would never migrate anything.
	grant := steal.Half(len(eligible))
	if grant == 0 && len(eligible) > 0 {
		grant = 1
	}
	if grant > n.cfg.StealMax {
		grant = n.cfg.StealMax
	}
	if grant > reqMax {
		grant = reqMax
	}
	if grant > steal.MaxTasksPerReply {
		grant = steal.MaxTasksPerReply
	}

	// Take the granted tasks from the low-priority end of the eligible set.
	granted := make(map[int]bool, grant)
	for i := 0; i < grant; i++ {
		granted[eligible[len(eligible)-1-i]] = true
	}
	frames := make([]steal.TaskFrame, 0, grant)
	for i, it := range all {
		if !granted[i] {
			n.ready.Push(it.priority, it.task, 0)
			continue
		}
		frames = append(frames, n.detachTask(it.task))
	}
	if len(frames) > 0 {
		n.stealGrantedC.Add(uint64(len(frames)))
	}
	return frames
}

// stealEligible reports whether t can migrate to thief: all inputs resident.
func (n *node) stealEligible(t TaskID, thief int) bool {
	n.inputScratch = n.rt.tp.Inputs(t, n.inputScratch[:0])
	for _, dep := range n.inputScratch {
		fd := n.flow(flowKey{dep.Task, dep.Flow})
		if fd == nil || fd.state != flowReady {
			return false
		}
	}
	return true
}

// detachTask removes one ready task from this rank's scheduler state and
// pins its inputs for the thief, returning the wire frame.
func (n *node) detachTask(t TaskID) steal.TaskFrame {
	n.tasks.remove(flowKey{task: t})
	n.total--
	n.inputScratch = n.rt.tp.Inputs(t, n.inputScratch[:0])
	frame := steal.TaskFrame{Class: t.Class, Index: t.Index}
	if len(n.inputScratch) > 0 {
		frame.InputSizes = make([]int64, len(n.inputScratch))
	}
	for i, dep := range n.inputScratch {
		key := flowKey{dep.Task, dep.Flow}
		fd := n.flow(key) // eligibility guaranteed flowReady above
		frame.InputSizes[i] = fd.size
		// The local reference the ready task held moves to the thief: the
		// thief settles it with a GET (data flows) or a RELEASE.
		fd.localRefs--
		if fd.size > 0 {
			fd.expectedGets++ // pin until the thief settles
		} else {
			n.maybeClean(key, fd)
		}
	}
	return frame
}

// onStealRep runs at the thief: adopt the granted tasks.
func (n *node) onStealRep(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	rep, err := steal.DecodeReply(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad steal reply from %d: %w", n.rank, src, err)
		return
	}
	if !n.admit(rep.Epoch) {
		return
	}
	cost := n.cfg.DeliverCost * sim.Duration(1+len(rep.Tasks))
	o := n.newOp(opAdoptStolen)
	o.peer, o.srep = src, rep
	n.submit(cost, o)
}

// adoptStolen integrates a steal reply at the thief: record latency,
// rebuild each task's dependence state, settle each input pin with a fetch
// or a release, and let the ordinary satisfy/dispatch machinery take over.
func (n *node) adoptStolen(victim int, rep steal.Reply) {
	if n.probeOut {
		// Solicited reply: settle the probe. (A pushed grant from a starving
		// registration arrives with no probe outstanding and no latency to
		// attribute.)
		n.probeOut = false
		n.stealLat.Observe(uint64(n.eng.Now().Sub(n.probeSentAt) / sim.Nanosecond))
	}
	if len(rep.Tasks) == 0 {
		// Denial: the victim has registered us as starving. The submit
		// wrapper's pollQuiet probes the next rotation victim if this rank is
		// still quiet.
		return
	}
	n.stealsC.Inc()
	n.stealTasksC.Add(uint64(len(rep.Tasks)))
	n.rot.Reset() // a feeding victim is worth another full cycle later
	for _, f := range rep.Tasks {
		n.adoptTask(victim, f)
	}
}

func (n *node) adoptTask(victim int, f steal.TaskFrame) {
	t := TaskID{Class: f.Class, Index: f.Index}
	n.total++
	n.stateOf(t) // remaining = len(Inputs); the satisfactions below drain it
	n.inputScratch = n.rt.tp.Inputs(t, n.inputScratch[:0])
	if len(n.inputScratch) != len(f.InputSizes) {
		n.wireFail("parsec: steal frame for %v carries %d input sizes, task has %d inputs",
			t, len(f.InputSizes), len(n.inputScratch))
		return
	}
	// Iterate over a stable copy: satisfy() below may re-enter the taskpool
	// and clobber inputScratch.
	deps := append([]Dep(nil), n.inputScratch...)
	for i, dep := range deps {
		key := flowKey{dep.Task, dep.Flow}
		size := f.InputSizes[i]
		fd := n.flow(key)
		if fd == nil {
			if size == 0 {
				// Control flow: nothing to move; synthesize the satisfied
				// entry the activation would have left behind.
				fd = n.newFlow(flowReady, 0)
				fd.stolen = true
				fd.meta = activation{task: dep.Task, flow: dep.Flow,
					hopRank: int32(victim), epoch: n.epoch}
				n.putFlow(key, fd)
				fd.localRefs++
				n.satisfy(t) // execute() drops the ref and cleans the entry
				continue
			}
			// The victim holds the payload and has pinned it for us: fetch
			// over the ordinary GET DATA path, which settles the pin.
			fd = n.newFlow(flowAnnounced, size)
			fd.stolen = true
			fd.meta = activation{task: dep.Task, flow: dep.Flow, size: size,
				root: int32(victim), hopRank: int32(victim), epoch: n.epoch}
			n.putFlow(key, fd)
			fd.localRefs++
			n.waits.push(&fd.waiters, t)
			n.requestFetch(key, fd, n.rt.tp.Priority(t))
			continue
		}
		// A copy already exists here (we produced the flow ourselves, or an
		// earlier steal brought it): reuse it and release the victim's pin —
		// our GET, if any, targets the existing entry's source.
		fd.localRefs++
		if fd.state == flowReady {
			n.satisfy(t)
		} else {
			n.waits.push(&fd.waiters, t)
			if fd.state == flowAnnounced {
				n.requestFetch(key, fd, n.rt.tp.Priority(t))
			}
		}
		if size > 0 {
			rel := steal.Release{Class: dep.Task.Class, Index: dep.Task.Index,
				Flow: dep.Flow, Epoch: n.epoch}
			n.books.CountSend()
			n.ce.SendAM(tagStealRel, victim, steal.EncodeRelease(rel))
		}
	}
	if len(deps) == 0 {
		// A stolen root: ready immediately.
		n.makeReady(t)
	}
}

// mergeActivation folds a real activation, o's, into a steal-created store
// entry: the steal raced the multicast and won. Local consumers join exactly
// as in processActivation (stolen tasks are already among the waiters, and
// their RankOf is the victim's, so onActivate's scan never double-adds them);
// a subtree is forwarded as usual, with this rank's copy — fetched from the
// steal victim — serving the children when it lands.
func (n *node) mergeActivation(key flowKey, fd *flowData, o *commOp) {
	act := o.act
	fd.stolen = false
	if len(act.subtree) > 0 {
		// Control flows never draw GETs; counting children would leak the
		// entry.
		if children := n.forward(act); act.size > 0 {
			fd.expectedGets += children
		}
	}
	if fd.state == flowReady {
		// The stolen copy has already landed (or the flow carries no data):
		// release the fresh consumers directly.
		for t := range n.waits.drain(&o.waiters) {
			fd.localRefs++
			n.satisfy(t)
		}
		n.maybeClean(key, fd)
		return
	}
	fd.localRefs += o.nwait
	n.waits.splice(&fd.waiters, o.waiters)
	o.waiters = cellList{}
	n.requestFetch(key, fd, o.maxPrio) // no-op unless still announced
}

// onStealRel runs at the victim: the thief settled one input pin without
// fetching.
func (n *node) onStealRel(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	rel, err := steal.DecodeRelease(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad steal release from %d: %w", n.rank, src, err)
		return
	}
	if !n.admit(rel.Epoch) {
		return
	}
	o := n.newOp(opStealRelease)
	o.srel = rel
	n.submit(n.cfg.GetDataCost, o)
}

// releasePin is the deferred step of a RELEASE: settle one input pin.
func (n *node) releasePin(rel steal.Release) {
	key := flowKey{TaskID{Class: rel.Class, Index: rel.Index}, rel.Flow}
	fd := n.flow(key)
	if fd == nil {
		return // already fully retired; the pin died with the epoch
	}
	fd.servedGets++
	n.maybeClean(key, fd)
}
