// Package term holds the runtime's two pure consensus objects, in the style
// of PowerGraph's async_consensus: state machines that know nothing of
// engines, epochs or virtual time. Detector is the termination detector,
// Safra's token algorithm over a rank ring: the host feeds it counted sends
// and receives, "rank r may be quiet", delivered control messages and a
// restart, and it answers through one send function and the announcement
// listeners.
//
// The coordinator (the lowest ring member) starts a round when it is quiet.
// Each member holds the token until it too is quiet, then adds its imbalance
// (sent−recv) and activity (sent+recv), ORs in its color (black once it has
// received since the last visit), whitens, and forwards. A token back white
// with zero imbalance proves every rank was quiet at its visit with no
// counted message in flight, and the coordinator announces. A white round
// with the activity sum unchanged parks the detector; a nudge — sent by a
// rank that received since its last nudge, when it next goes quiet — wakes
// it. A nudge that finds a round out latches, and that round's end counts as
// a change (SNIPPETS.md §1: a cancel during the done-test fails the test).
//
// Recovery (recovery.go) is crash recovery's dead-set consensus: survivors'
// death verdicts, collected as Deadvote messages at the lowest live rank,
// converge on the set of ranks one restart must absorb, fenced by a
// generation so a crash landing mid-round aborts it.
package term

// Kind is a control message's type.
type Kind byte

// The control messages: the detector's three, and Recovery's.
const (
	Token    Kind = 1 // Safra token circulating the member ring
	Announce Kind = 2 // coordinator's termination announcement
	Nudge    Kind = 3 // "my counters moved and I am quiet again"
	Deadvote Kind = 4 // a survivor's verdict that rank Rank is dead, to the collector
)

// Msg is one control message. Round is informational; Q, Acts and Black are
// the token's sums; Rank is a nudge's sender or a deadvote's dead rank.
type Msg struct {
	Kind  Kind
	Round int32
	Q     int64 // token: accumulated sent−recv
	Acts  int64 // token: accumulated sent+recv
	Black bool  // token: OR of visited colors
	Rank  int32
}

// Books is one rank's half of the detector, embedded in the rank's own state
// so counting stays a plain increment on the rank's own memory.
type Books struct {
	sent, recv int64
	black      bool // received since the token's last visit
	nudged     bool // a nudge already reported the current counters
	holds      bool // held is a token waiting for this rank to go quiet
	held       Msg
}

// CountSend books one counted message sent.
func (b *Books) CountSend() { b.sent++ }

// CountRecv books one counted message admitted: the receive balances the
// sender's send, blackens the rank (a round that visited it earlier must not
// conclude), and arms the next quiet-transition nudge.
func (b *Books) CountRecv() {
	b.recv++
	b.black = true
	b.nudged = false
}

// Counts returns the rank's counted sends and receives in this epoch.
func (b *Books) Counts() (sent, recv int64) { return b.sent, b.recv }

// Detector is the ring-wide half: membership, the coordinator's round state,
// and every rank's Books.
type Detector struct {
	// gone[r] is true once rank r has left the token ring. A crashed rank
	// leaves only at its restart, so until then the token parks at the inert
	// rank and no round can complete.
	gone  []bool
	books []*Books
	rounds

	send      func(from, to int, m Msg)
	quiet     func(r int) bool
	count     func(Kind)
	listeners []func()
}

// rounds is the coordinator's round state.
type rounds struct {
	outstanding bool  // a token is in flight (or lost to a dead member)
	round       int32 // rounds initiated so far
	lastActs    int64 // previous round's activity sum, for the park rule; -1 before one
	pending     bool  // a nudge found a round out: that round's end is a change
	announced   bool
}

// New builds the detector over one Books per rank. send delivers a control
// message from rank from to rank to; quiet reports whether rank r is locally
// quiet (the coordinator asks it before starting a round); count(k) is called
// at every round started (Token), nudge (Nudge) and announcement (Announce).
func New(books []*Books, send func(from, to int, m Msg), quiet func(r int) bool, count func(Kind)) *Detector {
	d := &Detector{gone: make([]bool, len(books)), books: books, send: send, quiet: quiet, count: count}
	d.lastActs = -1
	return d
}

// OnAnnounce registers fn to run at the announcement.
func (d *Detector) OnAnnounce(fn func()) { d.listeners = append(d.listeners, fn) }

// Announced reports whether termination has been announced.
func (d *Detector) Announced() bool { return d.announced }

// nextMember returns the first ring member after r, wrapping round to r
// itself, or -1 when the ring is empty.
func (d *Detector) nextMember(r int) int {
	for i := 1; i <= len(d.gone); i++ {
		if c := (r + i) % len(d.gone); !d.gone[c] {
			return c
		}
	}
	return -1
}

// coordinator is the lowest ring member.
func (d *Detector) coordinator() int { return d.nextMember(len(d.gone) - 1) }

// Quiet tells the detector rank r is locally quiet: r forwards a held token,
// and if its counters moved since its last nudge it nudges the coordinator —
// a parked (or never started) detector should look again. The host calls it
// only after its own quiet check passed.
func (d *Detector) Quiet(r int) {
	b := d.books[r]
	if b.holds {
		b.holds = false
		d.settle(r, b.held)
	}
	if b.nudged {
		return
	}
	b.nudged = true
	d.count(Nudge)
	if coord := d.coordinator(); coord == r {
		d.tryInitiate()
	} else if coord >= 0 {
		d.send(r, coord, Msg{Kind: Nudge, Rank: int32(r)})
	}
}

// Deliver hands rank r a token or a nudge. A token is held until r is quiet:
// the host polls r right after. An announcement needs nothing: the listeners
// fired at the coordinator.
func (d *Detector) Deliver(r int, m Msg) {
	switch m.Kind {
	case Token:
		d.books[r].held, d.books[r].holds = m, true
	case Nudge:
		d.tryInitiate()
	}
}

// Restart absorbs a recovery restart: the dead ranks leave the ring, and the
// books (held tokens included) and the round state start clean. The host
// drops stale cross-epoch messages uncounted, so the books stay balanced.
func (d *Detector) Restart(dead []int) {
	for _, r := range dead {
		d.gone[r] = true
	}
	for _, b := range d.books {
		*b = Books{}
	}
	d.outstanding, d.lastActs, d.pending = false, -1, false
}

// Balance sums every rank's counted sends and receives.
func (d *Detector) Balance() (sent, recv int64) {
	for _, b := range d.books {
		sent += b.sent
		recv += b.recv
	}
	return sent, recv
}

// tryInitiate starts a round at the coordinator. It is a no-op unless the
// coordinator is quiet, no token is out, and nothing has been announced — so
// at most one token exists, and rounds never spin while the coordinator has
// work. A call that finds a round out latches: the caller's news may have
// missed that round, so its end counts as a change. A call that finds the
// coordinator busy needs no latch: a rank turns busy only at the start, by a
// counted receive or at a restart, each of which re-arms its nudge, so the
// coordinator calls again when it next goes quiet.
func (d *Detector) tryInitiate() {
	coord := d.coordinator()
	if d.announced || coord < 0 || !d.quiet(coord) {
		return
	}
	if d.outstanding {
		d.pending = true
		return
	}
	d.pending = false
	d.round++
	d.count(Token)
	d.outstanding = true
	tok := Msg{Kind: Token, Round: d.round}
	if next := d.nextMember(coord); next != coord {
		d.send(coord, next, tok)
	} else {
		d.settle(coord, tok) // a one-member ring: the round returns right here
	}
}

// settle folds quiet rank r's books into the token, whitens r, and either
// forwards the token or — back at the coordinator — evaluates the round.
func (d *Detector) settle(r int, tok Msg) {
	b := d.books[r]
	tok.Q += b.sent - b.recv
	tok.Acts += b.sent + b.recv
	tok.Black = tok.Black || b.black
	b.black = false
	if r != d.coordinator() {
		d.send(r, d.nextMember(r), tok)
		return
	}

	// Round complete. White with zero imbalance proves termination;
	// otherwise re-initiate, unless the round was white and the activity sum
	// did not move: then nothing happened since the last look, and the
	// detector parks until a nudge wakes it.
	d.outstanding = false
	if !tok.Black && tok.Q == 0 {
		d.announce()
		return
	}
	changed := tok.Black || tok.Acts != d.lastActs || d.pending
	d.lastActs = tok.Acts
	if changed {
		d.tryInitiate()
	}
}

// announce sends an announcement to every other member and runs the
// listeners.
func (d *Detector) announce() {
	d.announced = true
	d.count(Announce)
	coord := d.coordinator()
	ann := Msg{Kind: Announce, Round: d.round}
	for r, gone := range d.gone {
		if !gone && r != coord {
			d.send(coord, r, ann)
		}
	}
	for _, fn := range d.listeners {
		fn()
	}
}
