package term

// Recovery is the dead-set consensus of crash recovery: who has declared
// whom dead, which ranks the next restart must absorb, and when that
// restart may fire. Like Detector it is a pure state machine; the host
// supplies liveness and acts on its three outputs (send a vote, arm a
// restart timer, count an aborted round). The restart itself — remap,
// checkpoint repair, state wipe, restore — stays with the host.
//
// A survivor's verdict (Verdict) re-casts every verdict it holds to the
// collector, the lowest live rank, so votes lost with a dying collector are
// replayed at the next one. The collector books each vote (Vote); a rank
// newly joining the dead-set bumps the generation and aborts an armed round,
// and once every live rank has voted for every member the round arms for
// that generation. Fire(gen) hands the host the converged set and retires
// it, unless the generation moved on or a crashed rank is still outside the
// set, in which case the round aborts and convergence re-forms.
type Recovery struct {
	held  [][]bool // held[o][d]: observer o has raised a verdict for d
	votes [][]bool // votes[d][v]: the collector holds v's vote for d
	flags []uint8  // per rank: spent, inSet, recovered
	// gen names one convergence attempt: it bumps whenever the dead-set
	// grows and whenever a fired round aborts, so arm sees each value once.
	gen    int
	armed  bool
	budget int // distinct deaths still absorbable

	dead  func(r int) bool
	send  func(from, to int, m Msg)
	arm   func(gen int)
	abort func()
}

// Per-rank flags of a Recovery.
const (
	spent     uint8 = 1 << iota // counted against the budget
	inSet                       // in the dead-set of the unfinished round
	recovered                   // absorbed by a fired round
)

// NewRecovery builds the consensus over n ranks, absorbing at most budget
// distinct deaths. dead reports whether rank r has crashed; send delivers a
// Deadvote from rank from to rank to; arm(gen) schedules Fire(gen) after the
// host's restart delay; abort is called at every aborted round.
func NewRecovery(n, budget int, dead func(r int) bool, send func(from, to int, m Msg), arm func(gen int), abort func()) *Recovery {
	held, votes := make([][]bool, n), make([][]bool, n)
	cells := make([]bool, 2*n*n)
	for r := range held {
		held[r], cells = cells[:n:n], cells[n:]
		votes[r], cells = cells[:n:n], cells[n:]
	}
	return &Recovery{held: held, votes: votes, flags: make([]uint8, n), budget: budget,
		dead: dead, send: send, arm: arm, abort: abort}
}

// Spend charges rank d's death against the budget, once per rank; it
// reports false when d is new and the budget is exhausted.
func (rc *Recovery) Spend(d int) bool {
	if rc.flags[d]&spent == 0 {
		if rc.budget == 0 {
			return false
		}
		rc.budget--
		rc.flags[d] |= spent
	}
	return true
}

// Verdict records observer o's verdict that d is dead and re-casts every
// verdict o holds, in ascending rank order, to the lowest live rank — booked
// directly when o is that rank. A repeated verdict does nothing. It reports
// false when no rank is alive to collect.
func (rc *Recovery) Verdict(o, d int) bool {
	if rc.held[o][d] {
		return true
	}
	rc.held[o][d] = true
	c := rc.NextLive(len(rc.flags) - 1)
	if c < 0 {
		return false
	}
	for x, h := range rc.held[o] {
		if !h {
			continue
		}
		if c == o {
			rc.Vote(x, o)
		} else {
			rc.send(o, c, Msg{Kind: Deadvote, Rank: int32(x)})
		}
	}
	return true
}

// Vote books, at the collector, voter v's vote that d is dead. Votes for
// recovered ranks are late duplicates and are ignored, as is a vote naming
// no rank (a corrupted frame). A new member bumps the generation and aborts an armed round; the
// round arms once every live rank has voted for every member of the set.
func (rc *Recovery) Vote(d, v int) {
	if uint(d) >= uint(len(rc.flags)) || rc.flags[d]&recovered != 0 {
		return
	}
	if rc.flags[d]&inSet == 0 {
		rc.flags[d] |= inSet
		rc.gen++
		if rc.armed {
			rc.armed = false
			rc.abort()
		}
	}
	rc.votes[d][v] = true
	if rc.armed {
		return
	}
	for x, f := range rc.flags {
		for y, voted := range rc.votes[x] {
			if f&inSet != 0 && !voted && !rc.dead(y) {
				return
			}
		}
	}
	rc.armed = true
	rc.arm(rc.gen)
}

// Fire returns the dead-set armed for gen in ascending order and retires
// it: its members become recovered and their votes and held verdicts are
// dropped. It returns nil when gen is stale, and aborts (also nil) when a
// crashed rank is outside the set — its verdicts have not converged yet.
func (rc *Recovery) Fire(gen int) []int {
	if gen != rc.gen {
		return nil
	}
	rc.armed = false
	for x, f := range rc.flags {
		if f&(inSet|recovered) == 0 && rc.dead(x) {
			rc.gen++
			rc.abort()
			return nil
		}
	}
	var set []int
	for d, f := range rc.flags {
		if f&inSet == 0 {
			continue
		}
		set = append(set, d)
		rc.flags[d] = f&^inSet | recovered
		clear(rc.votes[d])
		for _, h := range rc.held {
			h[d] = false
		}
	}
	return set
}

// NextLive returns the first live rank after r on the ring, wrapping round
// to r itself, or -1 when no rank is alive.
func (rc *Recovery) NextLive(r int) int {
	n := len(rc.flags)
	for i := 1; i <= n; i++ {
		if c := (r + i) % n; !rc.dead(c) {
			return c
		}
	}
	return -1
}
