package parsec

import (
	"fmt"

	"amtlci/internal/core"
	"amtlci/internal/metrics"
	"amtlci/internal/term"
)

// Distributed termination detection: internal/term's detector, fed from
// here. Every dataflow protocol message (ACTIVATE, GET DATA, put completion,
// steal traffic) is counted on the rank's own term.Books once it passes its
// epoch check; control traffic, heartbeats and checkpoint frames are not.

// termMsg is the single wire format of the termination control channel: a
// detector message stamped with its sender's epoch.
type termMsg struct {
	term.Msg
	epoch int32
}

// termMsgBytes is the fixed encoded size of a termMsg.
const termMsgBytes = 1 + 4 + 4 + 8 + 8 + 1 + 4

// termCounters registers the detector's instruments and returns its count
// function: rounds started, nudges and announcements.
func termCounters(reg *metrics.Registry) func(term.Kind) {
	c := [...]*metrics.Counter{
		term.Token:    reg.Counter("parsec", "term_rounds", metrics.StackRank),
		term.Nudge:    reg.Counter("parsec", "term_nudges", metrics.StackRank),
		term.Announce: reg.Counter("parsec", "term_announced", metrics.StackRank),
	}
	return func(k term.Kind) { c[k].Inc() }
}

// newDetector builds the detector over every rank's books; a rank is quiet
// to it when localQuiet holds and the run has not failed.
func (rt *Runtime) newDetector(count func(term.Kind), send func(from, to int, m term.Msg)) *term.Detector {
	books := make([]*term.Books, len(rt.nodes))
	for i, n := range rt.nodes {
		books[i] = &n.books
	}
	quiet := func(r int) bool { return rt.Err() == nil && rt.nodes[r].localQuiet() }
	return term.New(books, send, quiet, count)
}

// sendTerm, the detector's send function, sends one control message from
// rank from, stamped with its epoch (SendAM copies the node's scratch).
func (rt *Runtime) sendTerm(from, to int, m term.Msg) {
	n := rt.nodes[from]
	n.encBuf = appendTermMsg(n.encBuf[:0], termMsg{Msg: m, epoch: n.epoch})
	n.ce.SendAM(tagTerm, to, n.encBuf)
}

func appendTermMsg(b []byte, m termMsg) []byte {
	b = append(b, byte(m.Kind))
	b = le32(b, m.epoch)
	b = le32(b, m.Round)
	b = le64(b, m.Q)
	b = le64(b, m.Acts)
	if m.Black {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le32(b, m.Rank)
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
	m.Kind = term.Kind(b[0])
	if m.Kind < term.Token || m.Kind > term.Deadvote {
		return m, fmt.Errorf("parsec: unknown term message kind %d", m.Kind)
	}
	rest := b[1:]
	m.epoch, rest = rd32(rest)
	m.Round, rest = rd32(rest)
	m.Q, rest = rd64(rest)
	m.Acts, rest = rd64(rest)
	switch rest[0] {
	case 0:
	case 1:
		m.Black = true
	default:
		return m, fmt.Errorf("parsec: term message color byte %d is not boolean", rest[0])
	}
	m.Rank, _ = rd32(rest[1:])
	return m, nil
}

// OnTerminate registers fn to run when the detector announces termination.
// The chaos harness uses it to stop the heartbeat detector — the one event
// source that would otherwise keep the simulation alive forever. fn may fire
// more than once only across recovery epochs, never within one.
func (rt *Runtime) OnTerminate(fn func()) { rt.term.OnAnnounce(fn) }

// Terminated reports whether the detector has announced termination.
func (rt *Runtime) Terminated() bool { return rt.term.Announced() }

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
	// Death verdicts skip the epoch check: a death is permanent, and a vote
	// crossing a restart must still count, or convergence on the next crash
	// could wedge (the vote book ignores late votes for recovered ranks).
	// Detector traffic from before a restart belongs to a dead epoch.
	if m.Kind == term.Deadvote {
		if rt := n.rt; rt.rec != nil && rt.Err() == nil {
			rt.rec.Vote(int(m.Rank), src)
		}
		return
	}
	if m.epoch != n.epoch {
		n.staleDrops.Inc()
		return
	}
	n.rt.term.Deliver(n.rank, m.Msg)
	if m.Kind == term.Token {
		n.pollQuiet() // forwards the token the moment this rank is quiet
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
// token arrival, and post-restart resume. When quiet it tells the detector
// and probes for work to steal.
func (n *node) pollQuiet() {
	if !n.localQuiet() {
		return
	}
	n.rt.term.Quiet(n.rank)
	n.maybeProbe()
}

// admit is the epoch check of every counted message but ACTIVATE: a stale
// one is dropped uncounted (the restart zeroed its sender's books).
func (n *node) admit(epoch int32) bool {
	if epoch != n.epoch {
		n.staleDrops.Inc()
		return false
	}
	n.books.CountRecv()
	return true
}
