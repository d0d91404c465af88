package term

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// An explicit-state model checker of the detector. The model is the host
// contract parsec keeps: a busy rank may send a counted application message
// (at most maxApp of them in the whole run) or go quiet; a quiet rank is
// polled (Quiet); a delivered application message is booked (CountRecv) and
// makes its receiver busy; a delivered token is held and the receiver polled
// if quiet. Every message — application or control — travels on a per-link
// FIFO, and any link's head may be delivered next. Every subset of ranks may
// start busy, and the run seeds each quiet rank with one poll, as Run does.
//
// Every reachable state is hashed and checked for:
//   - safety: announced implies every rank quiet and no application message
//     in flight;
//   - one token: no token is sent while another is in flight or held;
//   - no lost wake-up: every maximal path reaches the announcement — no
//     reachable terminal state is unannounced, and no cycle exists (a
//     livelock of rounds would be one).
//
// The round number is informational (only Msg.Round carries it) and is
// dropped from the state, which keeps the state space finite.

const (
	maxRanks = 3
	maxApp   = 4
	linkCap  = 12
)

// Link entries.
const (
	eApp byte = iota
	eToken
	eNudge
)

// link is one FIFO, packed: its length in the low 4 bits, then 2 bits per
// entry, head first.
type link uint32

func (l link) len() int { return int(l & 15) }

func (l link) at(i int) byte { return byte(l>>(4+2*i)) & 3 }

func (l *link) push(e byte) {
	n := l.len()
	if n == linkCap {
		panic("term check: link capacity exceeded")
	}
	*l += link(e)<<(4+2*n) + 1
}

func (l *link) pop() byte {
	e, n := l.at(0), l.len()
	*l = *l>>6<<4 | link(n-1)
	return e
}

// mstate is one model state: the application, the detector and the links.
type mstate struct {
	busy   [maxRanks]bool
	books  [maxRanks]Books
	rounds rounds
	tok    Msg // the token in flight, when a link holds eToken
	links  [maxRanks][maxRanks]link
	budget int8
}

func (s *mstate) quiescent(n int) bool {
	for r := 0; r < n; r++ {
		if s.busy[r] {
			return false
		}
		for to := 0; to < n; to++ {
			l := s.links[r][to]
			for i := 0; i < l.len(); i++ {
				if l.at(i) == eApp {
					return false
				}
			}
		}
	}
	return true
}

//go:norace
func (s *mstate) tokens(n int) int {
	k := 0
	for r := 0; r < n; r++ {
		if s.books[r].holds {
			k++
		}
		for to := 0; to < n; to++ {
			l := s.links[r][to]
			for i := 0; i < l.len(); i++ {
				if l.at(i) == eToken {
					k++
				}
			}
		}
	}
	return k
}

func (s *mstate) String(n int) string {
	var b strings.Builder
	for r := 0; r < n; r++ {
		bk := &s.books[r]
		state := "quiet"
		if s.busy[r] {
			state = "busy"
		}
		fmt.Fprintf(&b, " r%d{%s s%d r%d", r, state, bk.sent, bk.recv)
		if bk.black {
			b.WriteString(" black")
		}
		if bk.holds {
			b.WriteString(" holds token")
		}
		b.WriteString("}")
	}
	rs := s.rounds
	fmt.Fprintf(&b, " round out=%v pending=%v lastActs=%d announced=%v", rs.outstanding, rs.pending, rs.lastActs, rs.announced)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			l := s.links[from][to]
			for i := 0; i < l.len(); i++ {
				if i == 0 {
					fmt.Fprintf(&b, " r%d->r%d:", from, to)
				}
				b.WriteString([]string{" app", " token", " nudge"}[l.at(i)])
			}
		}
	}
	return b.String()
}

// model runs the detector over one state at a time.
type model struct {
	n   int
	cur mstate
	d   *Detector
	err string // an invariant the detector itself broke while stepping
}

func newModel(n int) *model {
	m := &model{n: n}
	books := make([]*Books, n)
	for r := range books {
		books[r] = &m.cur.books[r]
	}
	m.d = New(books, m.send, func(r int) bool { return !m.cur.busy[r] }, func(Kind) {})
	return m
}

func (m *model) send(from, to int, msg Msg) {
	l := &m.cur.links[from][to]
	switch msg.Kind {
	case Token:
		if m.cur.tokens(m.n) > 0 {
			m.err = "a second token was sent"
		}
		m.cur.tok = msg
		l.push(eToken)
	case Nudge:
		l.push(eNudge)
	}
	// Announcements are not modelled as messages: delivering one does
	// nothing, and an announced state is not expanded.
}

// load makes s the detector's state.
//
//go:norace
func (m *model) load(s *mstate) {
	m.cur = *s
	m.d.rounds = s.rounds
	m.err = ""
}

// save returns the state the detector and the model are in, packed.
//
//go:norace
func (m *model) save() key {
	m.cur.rounds = m.d.rounds
	return m.cur.pack()
}

// poll is the host's pollQuiet.
func (m *model) poll(r int) {
	if !m.cur.busy[r] {
		m.d.Quiet(r)
	}
}

// move names one transition: kind, and the ranks it involves.
type move struct{ kind, a, b uint8 }

// Move kinds.
const (
	mStart   = iota // a: the busy-rank mask
	mSend           // a sends an application message to b
	mQuiet          // a goes quiet
	mDeliver        // the head of link a->b is delivered
)

// describe renders mv, taken from state from (nil for a start).
func (mv move) describe(from *mstate) string {
	switch mv.kind {
	case mStart:
		busy := "start, busy:"
		for r := 0; r < maxRanks; r++ {
			if mv.a&(1<<r) != 0 {
				busy += fmt.Sprintf(" r%d", r)
			}
		}
		return busy
	case mSend:
		return fmt.Sprintf("r%d sends app to r%d", mv.a, mv.b)
	case mQuiet:
		return fmt.Sprintf("r%d goes quiet", mv.a)
	}
	what := "app"
	switch from.links[mv.a][mv.b].at(0) {
	case eToken:
		what = fmt.Sprintf("token(q%d a%d black=%v)", from.tok.Q, from.tok.Acts, from.tok.Black)
	case eNudge:
		what = "nudge"
	}
	return fmt.Sprintf("deliver %s r%d->r%d", what, mv.a, mv.b)
}

// step is one transition: its move, and the state it leads to.
type step struct {
	mv  move
	to  key
	err string
}

// initial returns the start states: every subset of busy ranks, each quiet
// rank polled once in rank order.
func (m *model) initial() []step {
	var out []step
	for mask := 0; mask < 1<<m.n; mask++ {
		var s mstate
		s.budget = maxApp
		s.rounds.lastActs = -1 // as New leaves it
		for r := 0; r < m.n; r++ {
			s.busy[r] = mask&(1<<r) != 0
		}
		m.load(&s)
		for r := 0; r < m.n; r++ {
			m.poll(r)
		}
		out = append(out, step{move{mStart, uint8(mask), 0}, m.save(), m.err})
	}
	return out
}

// successors lists every transition enabled in s.
//
//go:norace
func (m *model) successors(s *mstate, out []step) []step {
	out = out[:0]
	for r := 0; r < m.n; r++ {
		if !s.busy[r] {
			continue
		}
		if s.budget > 0 {
			for to := 0; to < m.n; to++ {
				if to == r {
					continue
				}
				m.load(s)
				m.cur.books[r].CountSend()
				m.cur.links[r][to].push(eApp)
				m.cur.budget--
				out = append(out, step{move{mSend, uint8(r), uint8(to)}, m.save(), m.err})
			}
		}
		m.load(s)
		m.cur.busy[r] = false
		m.poll(r)
		out = append(out, step{move{mQuiet, uint8(r), 0}, m.save(), m.err})
	}
	for from := 0; from < m.n; from++ {
		for to := 0; to < m.n; to++ {
			if s.links[from][to] == 0 {
				continue
			}
			m.load(s)
			switch m.cur.links[from][to].pop() {
			case eApp:
				m.cur.books[to].CountRecv()
				m.cur.busy[to] = true
			case eToken:
				tok := m.cur.tok
				m.cur.tok = Msg{}
				m.d.Deliver(to, tok)
				m.poll(to)
			case eNudge:
				m.d.Deliver(to, Msg{Kind: Nudge, Rank: int32(from)})
			}
			out = append(out, step{move{mDeliver, uint8(from), uint8(to)}, m.save(), m.err})
		}
	}
	return out
}

// key is a packed mstate, the form the checker stores and hashes: per rank
// a byte of flags, sent|recv<<4, and a held token's sums; then the round
// state, the token in flight and the budget; then every link between two
// ranks. Round numbers are left out.
type key struct {
	ranks [maxRanks]uint32
	state uint64
	links [maxRanks * (maxRanks - 1)]link
}

func flag(b bool, bit uint) uint64 {
	if b {
		return 1 << bit
	}
	return 0
}

//go:norace
func (s *mstate) pack() key {
	var k key
	for r := range s.books {
		b := &s.books[r]
		w := flag(s.busy[r], 0) | flag(b.black, 1) | flag(b.nudged, 2) | uint64(b.sent)<<8 | uint64(b.recv)<<12
		if b.holds {
			w |= flag(true, 3) | flag(b.held.Black, 4) | uint64(uint8(b.held.Q))<<16 | uint64(b.held.Acts)<<24
		}
		k.ranks[r] = uint32(w)
	}
	rs := &s.rounds
	k.state = flag(rs.outstanding, 0) | flag(rs.pending, 2) | flag(rs.announced, 3) |
		uint64(uint8(rs.lastActs))<<8 | uint64(uint8(s.tok.Q))<<16 | uint64(s.tok.Acts)<<24 | flag(s.tok.Black, 32) |
		uint64(s.budget)<<40
	i := 0
	for from := range s.links {
		for to, l := range s.links[from] {
			if from != to {
				k.links[i] = l
				i++
			}
		}
	}
	return k
}

//go:norace
func (k *key) unpack() mstate {
	var s mstate
	for r, w := range k.ranks {
		b := &s.books[r]
		s.busy[r], b.black, b.nudged, b.holds = w&1 != 0, w&2 != 0, w&4 != 0, w&8 != 0
		b.sent, b.recv = int64(w>>8&15), int64(w>>12&15)
		if b.holds {
			b.held = Msg{Kind: Token, Q: int64(int8(w >> 16)), Acts: int64(uint8(w >> 24)), Black: w&16 != 0}
		}
	}
	w := k.state
	s.rounds = rounds{outstanding: w&1 != 0, pending: w&4 != 0, announced: w&8 != 0,
		lastActs: int64(int8(w >> 8))}
	s.budget = int8(w >> 40)
	hasTok := false
	i := 0
	for from := range s.links {
		for to := range s.links[from] {
			if from == to {
				continue
			}
			l := k.links[i]
			i++
			s.links[from][to] = l
			for e := 0; e < l.len(); e++ {
				hasTok = hasTok || l.at(e) == eToken
			}
		}
	}
	if hasTok {
		s.tok = Msg{Kind: Token, Q: int64(int8(w >> 16)), Acts: int64(uint8(w >> 24)), Black: w&(1<<32) != 0}
	}
	return s
}

// graph is the explored state space: every state once, in breadth-first
// order, with the move that first reached it and its successors.
type graph struct {
	n      int
	index  map[key]int32
	keys   []key
	parent []int32
	moves  []move
	// Successor lists in CSR form, for the cycle check.
	off, succ, indeg []int32
}

// add returns k's state number, numbering it if it is new.
//
//go:norace
func (g *graph) add(k key, from int32, mv move) int32 {
	if i, ok := g.index[k]; ok {
		return i
	}
	i := int32(len(g.keys))
	g.index[k] = i
	g.keys = append(g.keys, k)
	g.parent = append(g.parent, from)
	g.moves = append(g.moves, mv)
	g.indeg = append(g.indeg, 0)
	return i
}

// fail reports a violation at state i with the path that first reached it.
func (g *graph) fail(i int32, what string) error {
	var steps []string
	for ; i >= 0; i = g.parent[i] {
		s := g.keys[i].unpack()
		var from *mstate
		if p := g.parent[i]; p >= 0 {
			ps := g.keys[p].unpack()
			from = &ps
		}
		steps = append(steps, fmt.Sprintf("  %-36s ->%s", g.moves[i].describe(from), s.String(g.n)))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d ranks: %s; trace:\n", g.n, what)
	for k := len(steps) - 1; k >= 0; k-- {
		b.WriteString(steps[k])
		b.WriteByte('\n')
	}
	return errors.New(b.String())
}

// check explores every reachable state of the n-rank model breadth first, so
// a violation's trace is a shortest one. It returns the explored graph and
// the first violation, nil when both properties hold. The checker runs on
// one goroutine: its hot functions opt out of race instrumentation, which
// would only multiply their time.
//
//go:norace
func check(n int) (*graph, error) {
	m := newModel(n)
	g := &graph{n: n, index: make(map[key]int32), off: []int32{0}}
	for _, st := range m.initial() {
		i := g.add(st.to, -1, st.mv)
		if st.err != "" {
			return g, g.fail(i, st.err)
		}
	}
	var buf []step
	for i := int32(0); int(i) < len(g.keys); i++ {
		s := g.keys[i].unpack()
		if s.rounds.announced {
			// Safety. An announced state is not expanded: its ranks are
			// quiet and no application message is in flight, so nothing
			// but control traffic can follow.
			if !s.quiescent(n) {
				return g, g.fail(i, "announced while a rank is busy or an application message is in flight")
			}
			g.off = append(g.off, int32(len(g.succ)))
			continue
		}
		buf = m.successors(&s, buf)
		if len(buf) == 0 {
			return g, g.fail(i, "lost wake-up: every rank is quiet, nothing is in flight, and termination was never announced")
		}
		for k := range buf {
			st := &buf[k]
			j := g.add(st.to, i, st.mv)
			if st.err != "" {
				return g, g.fail(j, st.err)
			}
			g.succ = append(g.succ, j)
			g.indeg[j]++
		}
		g.off = append(g.off, int32(len(g.succ)))
	}
	// Kahn's algorithm: whatever cannot be peeled off in topological order
	// lies on or before a cycle.
	queue := make([]int32, 0, len(g.keys))
	for i, d := range g.indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	for k := 0; k < len(queue); k++ {
		i := queue[k]
		for _, j := range g.succ[g.off[i]:g.off[i+1]] {
			if g.indeg[j]--; g.indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	for i, d := range g.indeg {
		if d > 0 {
			return g, g.fail(int32(i), "livelock: the state lies on a cycle that never announces")
		}
	}
	return g, nil
}

// TestDetectorModelCheck proves safety and the absence of lost wake-ups for
// two and three ranks.
func TestDetectorModelCheck(t *testing.T) {
	for n := 2; n <= maxRanks; n++ {
		g, err := check(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d ranks: %d states, %d transitions, both properties hold", n, len(g.keys), len(g.succ))
	}
}

// TestNudgeDuringRoundStartsAnother replays the wedge the checker finds in
// the detector without the pending latch. Rank 1's nudge reaches the
// coordinator while the round that already visited rank 1 is out; that
// round comes back white with its activity sum unchanged, which parks the
// detector. The latched nudge must count as a change and start the round
// that announces.
func TestNudgeDuringRoundStartsAnother(t *testing.T) {
	script := []move{
		{mStart, 1 << 2, 0},
		{mSend, 2, 1}, {mQuiet, 2, 0},
		{mDeliver, 0, 1}, {mDeliver, 1, 0}, {mDeliver, 1, 2}, {mDeliver, 2, 0}, // round 1
		{mDeliver, 2, 0}, {mDeliver, 0, 1}, {mDeliver, 1, 2}, // round 2 passes rank 1
		{mDeliver, 2, 1}, {mQuiet, 1, 0}, {mDeliver, 1, 0}, // rank 1 receives, nudges
		{mDeliver, 2, 0}, // round 2 returns
	}
	m := newModel(3)
	s := m.initial()[script[0].a].to.unpack()
	var buf []step
	for i, mv := range script[1:] {
		buf = m.successors(&s, buf)
		k := slices.IndexFunc(buf, func(st step) bool { return st.mv == mv })
		if k < 0 {
			t.Fatalf("step %d: %s is not enabled in%s", i+1, mv.describe(&s), s.String(3))
		}
		s = buf[k].to.unpack()
	}
	if !s.rounds.outstanding {
		t.Fatalf("the latched nudge started no round:%s", s.String(3))
	}
	for {
		buf = m.successors(&s, buf)
		if len(buf) == 0 || s.rounds.announced {
			break
		}
		s = buf[0].to.unpack()
	}
	if !s.rounds.announced {
		t.Fatalf("never announced:%s", s.String(3))
	}
}
