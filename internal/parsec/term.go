package parsec

import (
	"fmt"

	"amtlci/internal/core"
	"amtlci/internal/metrics"
)

// Distributed termination detection. The runtime never *assumes* the
// computation is over: it proves it with a consensus round, in the style of
// PowerGraph's async_consensus, using Safra's token algorithm over the
// rank ring.
//
// Every dataflow protocol message (ACTIVATE, GET DATA, put completion,
// steal traffic) is *counted*: the sender increments csent, the receiver
// increments crecv after the message passes its epoch check, and a receiver
// blackens. A coordinator (the lowest ring member) circulates a token when
// it is locally quiet; each member holds the token until it too is quiet,
// then adds its counter imbalance (csent−crecv) and activity sum
// (csent+crecv) to the token, ORs in its color, whitens itself, and
// forwards. When the token returns white with a zero global imbalance,
// every rank was quiet at its visit and no counted message was in flight —
// in-flight sends veto termination through the q accounting — so the
// coordinator announces termination: listeners fire (the chaos harness
// stops rel heartbeats here) and an ANNOUNCE goes to every member.
//
// Crash interplay: a dead-but-unrecovered rank stays a ring member, so the
// token parks at the inert rank and no round can complete — the dead rank's
// unexecuted work keeps vetoing termination until the restart migrates it.
// The restart (one atomic simulation event) zeroes every rank's counters,
// drops the dead member, and resets the round state; stale cross-epoch
// traffic is never counted on receive, matching its sender counters having
// been zeroed. Survivor convergence before the restart also rides this
// protocol: each survivor's death verdict travels as a DEADVOTE control
// message to the lowest live rank, which schedules the restart when every
// survivor has voted — replacing the old direct-call barrier.
//
// Detector control traffic (token, announce, nudge, deadvote), heartbeats,
// and checkpoint frames are deliberately uncounted: they are not part of
// the computation being detected.

// termMsg kinds.
const (
	termToken    = 1 // Safra token circulating the member ring
	termAnnounce = 2 // coordinator's termination announcement
	termNudge    = 3 // "my counters changed and I am quiet again" hint
	termDeadvote = 4 // survivor's peer-death verdict (rank = the dead peer)
)

// termMsg is the single wire format of the termination control channel.
type termMsg struct {
	kind  byte
	epoch int32
	round int32
	q     int64 // token: accumulated csent−crecv
	acts  int64 // token: accumulated csent+crecv
	black bool  // token: OR of visited colors
	rank  int32 // nudge: sender; deadvote: the dead rank
}

// termMsgBytes is the fixed encoded size of a termMsg.
const termMsgBytes = 1 + 4 + 4 + 8 + 8 + 1 + 4

// sendTerm sends one termination control message from n (encoded in the
// node's scratch: SendAM copies its payload).
func (n *node) sendTerm(to int, m termMsg) {
	n.encBuf = appendTermMsg(n.encBuf[:0], m)
	n.ce.SendAM(tagTerm, to, n.encBuf)
}

func appendTermMsg(b []byte, m termMsg) []byte {
	b = append(b, m.kind)
	b = le32(b, m.epoch)
	b = le32(b, m.round)
	b = le64(b, m.q)
	b = le64(b, m.acts)
	if m.black {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le32(b, m.rank)
	return b
}

// decodeTermMsg parses a termination control message. Strict: exact length,
// known kind, boolean color; anything else is an error, never a panic
// (fuzzed).
func decodeTermMsg(b []byte) (termMsg, error) {
	var m termMsg
	if len(b) != termMsgBytes {
		return m, fmt.Errorf("parsec: term message is %d bytes, want %d", len(b), termMsgBytes)
	}
	m.kind = b[0]
	if m.kind < termToken || m.kind > termDeadvote {
		return m, fmt.Errorf("parsec: unknown term message kind %d", m.kind)
	}
	rest := b[1:]
	m.epoch, rest = rd32(rest)
	m.round, rest = rd32(rest)
	m.q, rest = rd64(rest)
	m.acts, rest = rd64(rest)
	switch rest[0] {
	case 0:
	case 1:
		m.black = true
	default:
		return m, fmt.Errorf("parsec: term message color byte %d is not boolean", rest[0])
	}
	m.rank, _ = rd32(rest[1:])
	return m, nil
}

// termState is the runtime-wide detector bookkeeping. The per-rank pieces
// (message counters, color, dirty flag, held token) live on each node; this
// holds the ring membership and the coordinator's round state.
type termState struct {
	// members[r] is true while rank r is part of the token ring. A crashed
	// rank stays a member until its restart completes, which is what makes
	// a false announcement between crash and recovery impossible: the token
	// parks at the inert rank.
	members []bool

	outstanding bool  // a token is in flight (or lost to a dead member)
	round       int32 // rounds initiated this epoch
	lastActs    int64 // previous round's activity sum, for the park rule
	lastValid   bool

	announced bool
	listeners []func()

	rounds    *metrics.Counter
	nudges    *metrics.Counter
	announces *metrics.Counter
}

func newTermState(ranks int, reg *metrics.Registry) *termState {
	ts := &termState{members: make([]bool, ranks)}
	for i := range ts.members {
		ts.members[i] = true
	}
	ts.rounds = reg.Counter("parsec", "term_rounds", metrics.StackRank)
	ts.nudges = reg.Counter("parsec", "term_nudges", metrics.StackRank)
	ts.announces = reg.Counter("parsec", "term_announced", metrics.StackRank)
	return ts
}

// coordinator is the lowest ring member.
func (ts *termState) coordinator() int {
	for r, in := range ts.members {
		if in {
			return r
		}
	}
	return -1
}

// nextMember returns the ring member after r (wrapping), or -1 if r is the
// only member.
func (ts *termState) nextMember(r int) int {
	n := len(ts.members)
	for i := 1; i < n; i++ {
		c := (r + i) % n
		if ts.members[c] {
			return c
		}
	}
	return -1
}

// OnTerminate registers fn to run when the detector announces termination.
// The chaos harness uses it to stop the heartbeat detector — the one event
// source that would otherwise keep the simulation alive forever. fn may fire
// more than once only across recovery epochs, never within one.
func (rt *Runtime) OnTerminate(fn func()) {
	rt.term.listeners = append(rt.term.listeners, fn)
}

// Terminated reports whether the detector has announced termination.
func (rt *Runtime) Terminated() bool { return rt.term.announced }

// TermRounds returns how many detector rounds were initiated.
func (rt *Runtime) TermRounds() int64 { return int64(rt.term.rounds.Value()) }

// tryInitiate starts a detector round at the coordinator. It is a no-op
// unless the coordinator rank itself is locally quiet, no token is in
// flight, and nothing has been announced — so at most one token exists, and
// rounds never spin while the coordinator has work.
func (rt *Runtime) tryInitiate() {
	ts := rt.term
	if ts.announced || ts.outstanding || rt.Err() != nil {
		return
	}
	coord := ts.coordinator()
	if coord < 0 {
		return
	}
	cn := rt.nodes[coord]
	if !cn.localQuiet() {
		return
	}
	ts.round++
	ts.rounds.Inc()
	ts.outstanding = true
	tok := termMsg{kind: termToken, epoch: cn.epoch, round: ts.round}
	next := ts.nextMember(coord)
	if next < 0 {
		// Single-member ring: the round begins and returns right here.
		cn.contributeAndSettle(tok)
		return
	}
	cn.sendTerm(next, tok)
}

// contributeAndSettle folds this (locally quiet) rank's counters into the
// token, whitens the rank, and either forwards the token to the next member
// or — back at the coordinator — evaluates the round.
func (n *node) contributeAndSettle(tok termMsg) {
	tok.q += n.csent - n.crecv
	tok.acts += n.csent + n.crecv
	tok.black = tok.black || n.black
	n.black = false

	ts := n.rt.term
	coord := ts.coordinator()
	if n.rank != coord {
		next := ts.nextMember(n.rank)
		if next < 0 {
			return // membership collapsed under us; the restart reset recovers
		}
		n.sendTerm(next, tok)
		return
	}

	// Round complete. White with zero imbalance proves global termination;
	// otherwise re-initiate — unless the round was white and the activity
	// sum did not move, in which case nothing happened since the last look
	// and the detector parks until a counted receive nudges it awake (the
	// lost-message deadlock case: re-initiating would spin forever).
	ts.outstanding = false
	if !tok.black && tok.q == 0 {
		n.rt.announce()
		return
	}
	changed := tok.black || !ts.lastValid || tok.acts != ts.lastActs
	ts.lastActs = tok.acts
	ts.lastValid = true
	if changed {
		n.rt.tryInitiate()
	}
}

// announce fires the termination consensus: listeners run (heartbeats stop
// here), and an ANNOUNCE control message goes to every other member so each
// rank learns the verdict through the protocol rather than by fiat.
func (rt *Runtime) announce() {
	ts := rt.term
	if ts.announced {
		return
	}
	ts.announced = true
	ts.announces.Inc()
	coord := ts.coordinator()
	cn := rt.nodes[coord]
	ann := termMsg{kind: termAnnounce, epoch: cn.epoch, round: ts.round}
	for r, in := range ts.members {
		if in && r != coord {
			cn.sendTerm(r, ann)
		}
	}
	for _, fn := range ts.listeners {
		fn()
	}
}

// termNudge tells the coordinator this rank went quiet with fresh counter
// activity: a parked (or never-started) detector should look again. Local
// when this rank is the coordinator, a control message otherwise.
func (n *node) termNudge() {
	ts := n.rt.term
	ts.nudges.Inc()
	coord := ts.coordinator()
	if coord == n.rank {
		n.rt.tryInitiate()
		return
	}
	if coord < 0 {
		return
	}
	m := termMsg{kind: termNudge, epoch: n.epoch, rank: int32(n.rank)}
	n.sendTerm(coord, m)
}

// onTerm is the control-channel AM handler.
func (n *node) onTerm(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	m, err := decodeTermMsg(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad term message from %d: %w", n.rank, src, err)
		return
	}
	// Control traffic from before a restart describes a detector epoch that
	// no longer exists. Death verdicts are exempt: a death is permanent and
	// epoch-independent, and a vote crossing a restart (sent pre-bump,
	// arriving post-bump) must still count — its caster will not re-cast
	// until its own next verdict, so dropping it could wedge convergence on
	// the next crash. Late votes for already-recovered ranks are ignored in
	// recordDeadvote instead.
	if m.epoch != n.epoch && m.kind != termDeadvote {
		n.staleDrops.Inc()
		return
	}
	switch m.kind {
	case termToken:
		// Hold the token until this rank is locally quiet; pollQuiet
		// forwards it the moment that becomes true.
		n.heldToken, n.holdsToken = m, true
		n.pollQuiet()
	case termAnnounce:
		// Informational at the member: the global verdict already fired at
		// the coordinator. (A real deployment would gate local teardown on
		// this; the simulated stack tears down via the listeners.)
	case termNudge:
		n.rt.tryInitiate()
	case termDeadvote:
		n.rt.recordDeadvote(int(m.rank), src)
	}
}

// localQuiet is the detector's per-rank activity predicate: every worker
// idle, nothing ready or queued, no fetch in any stage, and no deferred
// communication-thread operation pending. A paused or dead rank is never
// quiet — during a crash-recovery window the detector stalls by design.
func (n *node) localQuiet() bool {
	return !n.dead && !n.paused &&
		len(n.idle) == len(n.workers) &&
		n.ready.Len() == 0 &&
		n.fetchQ.Len() == 0 &&
		n.activeFetches == 0 &&
		n.pendingOps == 0 &&
		n.pendingDests == 0
}

// pollQuiet runs at every point where this rank may have just gone quiet:
// worker idling, completion of a deferred communication-thread operation,
// token arrival, and post-restart resume. When quiet it forwards a held
// token, nudges the coordinator if counters moved since the last nudge, and
// probes for work to steal.
func (n *node) pollQuiet() {
	if !n.localQuiet() {
		return
	}
	if n.holdsToken {
		n.holdsToken = false
		n.contributeAndSettle(n.heldToken)
	}
	if n.dirty {
		n.dirty = false
		n.termNudge()
	}
	n.maybeProbe()
}

// countRecv books one counted protocol message accepted by this rank (its
// epoch check passed): the receive counter balances the sender's csent, the
// rank blackens (a round that visited it earlier must not conclude), and the
// dirty flag arms the next quiet-transition nudge.
func (n *node) countRecv() {
	n.crecv++
	n.black = true
	n.dirty = true
}

// recordDeadvote collects one survivor's death verdict at the lowest live
// rank, growing the dead-set the current recovery round must absorb. A rank
// newly joining the set bumps the generation, which aborts any restart armed
// for the older, smaller set — the interruption that lets a crash landing
// mid-convergence fold into one combined round instead of corrupting the
// in-flight one. When every live survivor has voted for every member of the
// set, the restart is scheduled — the same convergence the old direct-call
// barrier provided, now carried by the detector's control channel.
func (rt *Runtime) recordDeadvote(dead, voter int) {
	rec := rt.rec
	if rec == nil || rt.Err() != nil {
		return
	}
	if rec.recovered[dead] {
		return // late duplicate from before the round that absorbed it
	}
	if !rec.deadSet[dead] {
		rec.deadSet[dead] = true
		rec.gen++
		if rec.armed {
			rec.armed = false
			rec.aborted.Inc()
		}
	}
	if rec.votes[dead] == nil {
		rec.votes[dead] = make(map[int]bool)
	}
	rec.votes[dead][voter] = true
	rt.maybeScheduleRestart()
}
