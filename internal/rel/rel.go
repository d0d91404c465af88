// Package rel restores exactly-once, in-order delivery on top of a lossy
// fabric. It is the reliability boundary of the stack: the communication
// libraries (internal/mpi, internal/lci) are written for a lossless wire, and
// rel.Stack gives them one even when fault injection drops, duplicates,
// reorders or corrupts messages underneath.
//
// The protocol is deliberately classical — a per-peer go-back-N variant:
//
//   - every data message carries a per-(src,dst) sequence number and an
//     FNV-1a checksum over header and payload;
//   - the receiver delivers strictly in sequence order, buffers early
//     arrivals, discards duplicates and corrupted frames, and returns a
//     delayed cumulative ACK;
//   - the sender retransmits on a virtual-time timeout (measured from egress
//     completion) with exponential backoff, and after a capped number of
//     retries declares the peer dead, surfacing PeerUnreachable through the
//     registered error handler instead of retrying forever.
//
// When no faults are injected the layer costs one framing header per data
// message and one delayed ACK per burst; when it is absent entirely (the
// default stack), the libraries bind straight to the fabric and nothing here
// runs at all.
package rel

import (
	"fmt"
	"sync"

	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Config tunes the reliability protocol.
type Config struct {
	// HeaderBytes is the framing overhead added to every data message
	// (sequence number, checksum, length).
	HeaderBytes int64
	// AckBytes is the wire size of a cumulative ACK.
	AckBytes int64
	// AckDelay batches ACKs: the receiver acknowledges the highest
	// in-order sequence seen AckDelay after the first unacknowledged
	// delivery.
	AckDelay sim.Duration
	// RTO is the initial retransmit timeout, measured from egress
	// completion (OnTx) so queueing in the transmit engine is not charged
	// against the peer.
	RTO sim.Duration
	// Backoff multiplies the timeout after each retransmission.
	Backoff float64
	// MaxRTO caps the backed-off timeout.
	MaxRTO sim.Duration
	// MaxRetries is the retry budget: after this many retransmissions of
	// one frame without an ACK the peer is declared unreachable.
	MaxRetries int

	// HeartbeatPeriod arms the lease-based failure detector (see
	// heartbeat.go): each endpoint beacons to every peer it has not
	// transmitted to for a full period. Zero disables the detector, which
	// is the default — detection then happens only through per-send retry
	// exhaustion, as before.
	HeartbeatPeriod sim.Duration
	// LeaseTimeout is how long a peer may stay completely silent before it
	// is declared dead (PeerDead). Must be set together with
	// HeartbeatPeriod, and at least twice it.
	LeaseTimeout sim.Duration
}

// DefaultConfig returns timeouts sized for the simulated fabric: RTT is a
// few microseconds, so a 50us initial timeout only fires on real loss, and
// the full retry budget resolves a severed link in single-digit virtual
// milliseconds.
func DefaultConfig() Config {
	return Config{
		HeaderBytes: 16,
		AckBytes:    32,
		AckDelay:    500 * sim.Nanosecond,
		RTO:         50 * sim.Microsecond,
		Backoff:     2,
		MaxRTO:      sim.Millisecond,
		MaxRetries:  8,
	}
}

// Validate reports the first nonsensical parameter, or nil.
func (c *Config) Validate() error {
	switch {
	case c.HeaderBytes < 0 || c.AckBytes <= 0:
		return fmt.Errorf("rel: bad frame sizes header=%d ack=%d", c.HeaderBytes, c.AckBytes)
	case c.AckDelay < 0:
		return fmt.Errorf("rel: negative ack delay %v", c.AckDelay)
	case c.RTO <= 0:
		return fmt.Errorf("rel: retransmit timeout must be positive, got %v", c.RTO)
	case c.Backoff < 1:
		return fmt.Errorf("rel: backoff %g must be >= 1", c.Backoff)
	case c.MaxRTO < c.RTO:
		return fmt.Errorf("rel: max timeout %v below initial %v", c.MaxRTO, c.RTO)
	case c.MaxRetries < 1:
		return fmt.Errorf("rel: retry budget %d must be >= 1", c.MaxRetries)
	case c.HeartbeatPeriod < 0 || c.LeaseTimeout < 0:
		return fmt.Errorf("rel: negative heartbeat timing (period=%v lease=%v)", c.HeartbeatPeriod, c.LeaseTimeout)
	case (c.HeartbeatPeriod > 0) != (c.LeaseTimeout > 0):
		return fmt.Errorf("rel: heartbeat period (%v) and lease timeout (%v) must be set together", c.HeartbeatPeriod, c.LeaseTimeout)
	case c.LeaseTimeout > 0 && c.LeaseTimeout < 2*c.HeartbeatPeriod:
		return fmt.Errorf("rel: lease timeout %v below two heartbeat periods (%v)", c.LeaseTimeout, c.HeartbeatPeriod)
	}
	return nil
}

// EnableHeartbeats arms the failure detector with timings sized for the
// simulated fabric: the lease (2ms) expires well before a severed peer's
// retry budget (roughly 4.5ms of backed-off retransmits under
// DefaultConfig), so a whole-rank crash surfaces as one PeerDead verdict per
// survivor rather than a scatter of per-send aborts.
func (c *Config) EnableHeartbeats() {
	c.HeartbeatPeriod = 250 * sim.Microsecond
	c.LeaseTimeout = 2 * sim.Millisecond
}

// PeerUnreachable reports that From exhausted its retry budget toward To.
type PeerUnreachable struct {
	From, To int
	// Attempts is the total number of transmissions of the frame that gave
	// up (1 original + retries).
	Attempts int
	// LastSeq is the sequence number of that frame.
	LastSeq uint64
}

func (e *PeerUnreachable) Error() string {
	return fmt.Sprintf("rel: peer %d unreachable from rank %d (seq %d, %d attempts)",
		e.To, e.From, e.LastSeq, e.Attempts)
}

// frame is the reliability header of a data message; the upper layer's
// payload and Meta travel inside it so a retransmission redelivers pristine
// content even if the sender reused its buffer after OnTx.
type frame struct {
	seq     uint64
	sum     uint64
	size    int64
	payload []byte
	meta    any
	sent    sim.Time
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (fr *frame) checksum(src, dst int) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(uint64(src))
	mix(uint64(dst))
	mix(fr.seq)
	mix(uint64(fr.size))
	for _, b := range fr.payload {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// The layer's per-message state lives in pooled records (DESIGN.md §5),
// each with its callbacks bound once when it is first built, so the protocol
// allocates nothing in steady state. Records that ride the wire — a data
// transmission, an ACK, a heartbeat — are retired from the fabric's OnDone,
// when no copy of them can still arrive; a data message's txEntry is retired
// once it is settled and the OnTx of its last transmission has run. The free
// lists are the Stack's: the layer runs on one engine (New refuses a sharded
// domain).

// txEntry is the sender's record of one data message, from Send until it is
// settled: acknowledged, or discarded with the rest of its peer's queue by a
// failure verdict.
type txEntry struct {
	ep      *endpoint
	tp      *txPeer
	fr      frame
	userTx  func()
	timer   sim.Event
	rto     sim.Duration
	retries int
	txOut   int  // transmissions whose OnTx has not run yet
	settled bool // acknowledged or discarded: no timer, no retransmission
	live    bool // between takeEntry and retire; a second retire panics

	expire func() // the retransmit timer's callback, bound once
}

// wire is one transmission of a data frame: the fabric message (Meta points
// back here) and the frame it carries, copied from the entry so that a late
// copy — a duplicate, a reordered retransmission — reads its own frame even
// after the entry has been retired and reused.
type wire struct {
	s     *Stack
	e     *txEntry
	first bool
	fr    frame
	msg   fabric.Message
	live  bool

	onTx, onDone func()
}

// ack is a cumulative ACK in flight: every frame below cum has been delivered
// in order.
type ack struct {
	s    *Stack
	cum  uint64
	msg  fabric.Message
	live bool

	onDone func()
}

type txPeer struct {
	peer    int
	nextSeq uint64
	q       []*txEntry // unacknowledged, ascending seq
	dead    bool
}

type rxPeer struct {
	ep       *endpoint
	src      int
	next     uint64           // next expected seq
	ooo      map[uint64]frame // early arrivals
	ackTimer sim.Event

	sendAck func() // the delayed ACK's callback, bound once
}

type endpoint struct {
	s     *Stack
	rank  int
	eng   *sim.Engine
	up    fabric.Handler
	errFn func(peer int, err error)
	tx    map[int]*txPeer
	rx    map[int]*rxPeer
	// upMsg is the one message deliverUp hands the upper layer, refilled per
	// delivery: it is valid only during the handler call.
	upMsg fabric.Message

	// notified dedupes upper-layer failure notifications: a dead peer
	// produces exactly one callback per endpoint, whether the verdict came
	// from retry exhaustion, a lease expiry, or both — and no matter how
	// many detectors fire concurrently. notifyMu guards the check-and-set
	// (and every other read of the map), so of racing verdicts the winner of
	// the lock is the one the upper layer hears.
	notifyMu sync.Mutex
	notified map[int]bool

	// Failure-detector state (heartbeat.go); the maps stay nil when the
	// detector is off.
	crashed   bool
	hbSeq     uint64
	hbTick    sim.Event
	tickFn    func() // tickHeartbeats, bound once
	lastSent  map[int]sim.Time
	lastHeard map[int]sim.Time
	// Stall watch (WatchProgress): the progress last sampled at this
	// endpoint's tick and when it last differed from the sample before
	// (virtual time zero, the start of the run, until it first moves).
	lastWork   uint64
	lastWorkAt sim.Time

	// Protocol counters (metrics registry, layer "rel", per rank): data_sent
	// counts upper-layer messages accepted and data_delivered those handed
	// up; out_of_order counts early frames buffered for later delivery, and
	// heartbeats_bad beacons the decoder dropped.
	dataSent, dataDelivered *metrics.Counter
	retransmits, acksSent   *metrics.Counter
	dupDropped, corruptDrop *metrics.Counter
	outOfOrder              *metrics.Counter
	hbSent, hbRecv, hbBad   *metrics.Counter
}

// inFlight is the total unacknowledged-frame window across all peers.
func (ep *endpoint) inFlight() int {
	n := 0
	for _, tp := range ep.tx {
		n += len(tp.q)
	}
	return n
}

// Stack is the reliable transport. It implements fabric.Network (so the
// communication libraries bind to it exactly as they would to the raw
// fabric) and fabric.ErrNotifier.
type Stack struct {
	fab *fabric.Fabric
	cfg Config
	eps []*endpoint

	unreachable *metrics.Counter
	peerDead    *metrics.Counter
	rtoHist     *metrics.Histogram

	entries sim.FreeList[txEntry]
	wires   sim.FreeList[wire]
	acks    sim.FreeList[ack]
	beacons sim.FreeList[beacon]

	// hbStopped ends the failure detector permanently (StopHeartbeats); the
	// flag keeps a tick that is already executing from re-arming itself.
	hbStopped bool
	// progress is the stall watch's probe and stallStops counts the stops it
	// caused (WatchProgress); both nil when unarmed.
	progress   func() (work uint64, busy bool)
	stallStops *metrics.Counter
}

// New interposes a reliability layer on fab. It takes over the fabric's
// delivery handlers; callers must register theirs through the returned
// Stack. The layer runs on one engine: a fabric on a sharded domain is
// refused.
func New(fab *fabric.Fabric, cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := fab.Domain().Shards(); n > 1 {
		return nil, fmt.Errorf("rel: the reliability layer requires a single-shard domain (have %d shards)", n)
	}
	reg := fab.Metrics()
	s := &Stack{
		fab: fab, cfg: cfg,
		unreachable: reg.Counter("rel", "unreachable", metrics.StackRank),
		peerDead:    reg.Counter("rel", "peer_dead", metrics.StackRank),
		rtoHist:     reg.Histogram("rel", "rto_ns", metrics.StackRank),
	}
	s.entries.Cap = sim.ShardListCap
	s.wires.Cap = sim.ShardListCap
	s.acks.Cap = sim.ShardListCap
	s.beacons.Cap = sim.ShardListCap
	s.eps = make([]*endpoint, fab.Ranks())
	for i := range s.eps {
		ep := &endpoint{
			s: s, rank: i, eng: fab.RankEngine(i),
			tx: make(map[int]*txPeer), rx: make(map[int]*rxPeer),
			notified:      make(map[int]bool),
			dataSent:      reg.Counter("rel", "data_sent", i),
			dataDelivered: reg.Counter("rel", "data_delivered", i),
			retransmits:   reg.Counter("rel", "retransmits", i),
			acksSent:      reg.Counter("rel", "acks_sent", i),
			dupDropped:    reg.Counter("rel", "dup_dropped", i),
			corruptDrop:   reg.Counter("rel", "corrupt_dropped", i),
			outOfOrder:    reg.Counter("rel", "out_of_order", i),
			hbSent:        reg.Counter("rel", "heartbeats_sent", i),
			hbRecv:        reg.Counter("rel", "heartbeats_received", i),
			hbBad:         reg.Counter("rel", "heartbeats_bad", i),
		}
		reg.Probe("rel", "in_flight", i, false, func() float64 { return float64(ep.inFlight()) })
		s.eps[i] = ep
		fab.SetHandler(i, ep.onArrival)
		if cfg.HeartbeatPeriod > 0 {
			ep.startHeartbeats()
		}
	}
	// A crashed rank's own endpoint goes silent too: without this, the dead
	// rank would stop hearing from everyone and "detect" all of its peers.
	fab.OnCrash(func(r int) { s.eps[r].freeze() })
	return s, nil
}

// Ranks returns the number of ranks (fabric.Network).
func (s *Stack) Ranks() int { return len(s.eps) }

// Metrics returns the fabric's registry, which the layer registers its
// instruments in: protocol counters per rank, in-flight window depth and an
// RTO histogram (fabric.Network).
func (s *Stack) Metrics() *metrics.Registry { return s.fab.Metrics() }

// SetHandler installs the upper layer's delivery handler for rank
// (fabric.Network). The *fabric.Message a handler receives is valid only
// during the call: the layer refills the same one for the next delivery.
func (s *Stack) SetHandler(rank int, h fabric.Handler) { s.eps[rank].up = h }

// SetErrHandler installs rank's unreachable-peer callback
// (fabric.ErrNotifier). Without one, an exhausted retry budget panics: a
// peer death nobody listens for is a silent hang waiting to happen.
func (s *Stack) SetErrHandler(rank int, fn func(peer int, err error)) {
	s.eps[rank].errFn = fn
}

// Send accepts an upper-layer message (fabric.Network). Loopback traffic
// bypasses the protocol — it models in-process delivery, and the fabric
// never faults it. Sends to a peer already declared unreachable are
// discarded: the error handler has fired and the graph is aborting. Except
// on loopback the layer copies what it needs and keeps no reference to m.
func (s *Stack) Send(m *fabric.Message) {
	ep := s.eps[m.Src]
	if ep.crashed {
		return
	}
	if m.Src == m.Dst {
		s.fab.Send(m)
		return
	}
	if tp := ep.txPeerFor(m.Dst); !tp.dead {
		ep.accept(tp, m)
	}
}

// accept frames m into a new entry on tp's queue and transmits it.
func (ep *endpoint) accept(tp *txPeer, m *fabric.Message) {
	s := ep.s
	e := s.takeEntry()
	e.ep, e.tp, e.userTx, e.rto = ep, tp, m.OnTx, s.cfg.RTO
	e.fr = frame{seq: tp.nextSeq, size: m.Size, meta: m.Meta, sent: ep.eng.Now()}
	tp.nextSeq++
	if m.Payload != nil {
		e.fr.payload = append([]byte(nil), m.Payload...)
	}
	e.fr.sum = e.fr.checksum(m.Src, m.Dst)
	tp.q = append(tp.q, e)
	ep.dataSent.Inc()
	ep.transmit(e, true)
}

func (s *Stack) takeEntry() *txEntry {
	e := s.entries.Get()
	if e == nil {
		e = &txEntry{}
		e.expire = func() { e.ep.timeout(e) }
	}
	e.live = true
	return e
}

// settle ends e's protocol life: its timer is cancelled and nothing will
// retransmit it. The record itself is retired once no OnTx of it is pending.
func (ep *endpoint) settle(e *txEntry) {
	ep.eng.Cancel(e.timer)
	e.settled = true
	if e.txOut == 0 {
		ep.s.retireEntry(e)
	}
}

func (s *Stack) retireEntry(e *txEntry) {
	if !e.live {
		panic("rel: data entry retired twice")
	}
	*e = txEntry{expire: e.expire}
	s.entries.Put(e)
}

func (s *Stack) takeWire() *wire {
	w := s.wires.Get()
	if w == nil {
		w = &wire{s: s}
		w.onTx, w.onDone = w.txDone, w.retire
	}
	w.live = true
	return w
}

// retire is the wire's OnDone: the fabric holds no copy of it any more.
func (w *wire) retire() {
	if !w.live {
		panic("rel: wire record retired twice")
	}
	s := w.s
	*w = wire{s: s, onTx: w.onTx, onDone: w.onDone}
	s.wires.Put(w)
}

func (s *Stack) takeAck() *ack {
	a := s.acks.Get()
	if a == nil {
		a = &ack{s: s}
		a.onDone = a.retire
	}
	a.live = true
	return a
}

// retire is the ACK's OnDone.
func (a *ack) retire() {
	if !a.live {
		panic("rel: ACK record retired twice")
	}
	s := a.s
	*a = ack{s: s, onDone: a.onDone}
	s.acks.Put(a)
}

func (ep *endpoint) txPeerFor(peer int) *txPeer {
	tp := ep.tx[peer]
	if tp == nil {
		tp = &txPeer{peer: peer}
		ep.tx[peer] = tp
	}
	return tp
}

func (ep *endpoint) rxPeerFor(peer int) *rxPeer {
	rp := ep.rx[peer]
	if rp == nil {
		rp = &rxPeer{ep: ep, src: peer, ooo: make(map[uint64]frame)}
		rp.sendAck = rp.flushAck
		ep.rx[peer] = rp
	}
	return rp
}

// transmit puts one framed copy of e on the wire. The retransmit timer
// starts at egress completion so transmit-queue backlog does not count
// against the peer; the timer is armed even when the injector drops the
// copy, because OnTx models NIC-side completion, not receipt.
func (ep *endpoint) transmit(e *txEntry, first bool) {
	s := ep.s
	w := s.takeWire()
	w.e, w.first, w.fr = e, first, e.fr
	w.msg = fabric.Message{
		Src:    ep.rank,
		Dst:    e.tp.peer,
		Size:   e.fr.size + s.cfg.HeaderBytes,
		Meta:   w,
		OnTx:   w.onTx,
		OnDone: w.onDone,
	}
	e.txOut++
	ep.noteSent(e.tp.peer)
	s.fab.Send(&w.msg)
}

// txDone is the transmission's OnTx.
func (w *wire) txDone() {
	e := w.e
	if w.first && e.userTx != nil {
		e.userTx()
	}
	e.txOut--
	switch {
	case !e.settled:
		e.timer = e.ep.eng.After(e.rto, e.expire)
	case e.txOut == 0:
		w.s.retireEntry(e)
	}
}

func (ep *endpoint) timeout(e *txEntry) {
	s := ep.s
	if e.retries >= s.cfg.MaxRetries {
		ep.declareDead(e)
		return
	}
	e.retries++
	ep.retransmits.Inc()
	e.rto = sim.Duration(float64(e.rto) * s.cfg.Backoff)
	if e.rto > s.cfg.MaxRTO {
		e.rto = s.cfg.MaxRTO
	}
	s.rtoHist.Observe(uint64(e.rto / sim.Nanosecond))
	ep.transmit(e, false)
}

func (ep *endpoint) declareDead(e *txEntry) {
	tp := e.tp
	err := &PeerUnreachable{From: ep.rank, To: tp.peer, Attempts: e.retries + 1, LastSeq: e.fr.seq}
	ep.silence(tp) // retires e
	ep.notifyPeerFailure(tp.peer, err)
}

// silence marks peer's tx side dead and settles every unacknowledged entry,
// cancelling its retransmit timer. Further sends toward the peer are
// swallowed.
func (ep *endpoint) silence(tp *txPeer) {
	tp.dead = true
	for _, e := range tp.q {
		ep.settle(e)
	}
	tp.q = nil
}

// alreadyNotified reports whether a failure verdict for peer has fired.
func (ep *endpoint) alreadyNotified(peer int) bool {
	ep.notifyMu.Lock()
	defer ep.notifyMu.Unlock()
	return ep.notified[peer]
}

// notifyPeerFailure surfaces one — exactly one — failure verdict per peer to
// the upper layer, whichever detector fired first; concurrent firings race
// for the claim under notifyMu and every loser returns silently. The
// callback itself runs outside the lock (it re-enters the stack: recovery
// casts deadvotes through rel). Without a registered handler the verdict
// panics: a peer death nobody listens for is a silent hang waiting to
// happen.
func (ep *endpoint) notifyPeerFailure(peer int, err error) {
	ep.notifyMu.Lock()
	if ep.notified[peer] {
		ep.notifyMu.Unlock()
		return
	}
	ep.notified[peer] = true
	ep.notifyMu.Unlock()
	switch err.(type) {
	case *PeerDead:
		ep.s.peerDead.Inc()
	default:
		ep.s.unreachable.Inc()
	}
	if ep.errFn == nil {
		panic(err.Error())
	}
	ep.errFn(peer, err)
}

func (ep *endpoint) onArrival(m *fabric.Message) {
	if ep.crashed {
		return
	}
	if m.Src == m.Dst {
		ep.up(m)
		return
	}
	// Any arrival — even a frame damaged in flight — proves the peer's NIC
	// is alive, so the lease renews before the protocol inspects content.
	ep.noteHeard(m.Src)
	switch meta := m.Meta.(type) {
	case *wire:
		ep.onFrame(m, &meta.fr)
	case *ack:
		if m.Corrupted {
			return
		}
		ep.onAck(m.Src, meta.cum)
	case *beacon:
		ep.onHeartbeat(m)
	default:
		panic(fmt.Sprintf("rel: rank %d: message from %d without reliability framing", ep.rank, m.Src))
	}
}

func (ep *endpoint) onFrame(m *fabric.Message, fr *frame) {
	if m.Corrupted || fr.sum != fr.checksum(m.Src, m.Dst) {
		// Damaged in flight: discard without touching receive state; the
		// sender's timeout redelivers an intact copy.
		ep.corruptDrop.Inc()
		return
	}
	rp := ep.rxPeerFor(m.Src)
	switch {
	case fr.seq < rp.next:
		// Duplicate of something already delivered (injector copy, or a
		// retransmission whose ACK was lost). Re-ACK so the sender stops.
		ep.dupDropped.Inc()
		ep.scheduleAck(rp)
	case fr.seq > rp.next:
		ep.outOfOrder.Inc()
		rp.ooo[fr.seq] = *fr
		ep.scheduleAck(rp)
	default:
		ep.deliverUp(m.Src, fr)
		rp.next++
		for {
			nf, ok := rp.ooo[rp.next]
			if !ok {
				break
			}
			delete(rp.ooo, rp.next)
			ep.deliverUp(m.Src, &nf)
			rp.next++
		}
		ep.scheduleAck(rp)
	}
}

func (ep *endpoint) deliverUp(src int, fr *frame) {
	ep.dataDelivered.Inc()
	ep.upMsg = fabric.Message{
		Src:     src,
		Dst:     ep.rank,
		Size:    fr.size,
		Payload: fr.payload,
		Meta:    fr.meta,
		Sent:    fr.sent,
	}
	ep.up(&ep.upMsg)
	ep.upMsg = fabric.Message{}
}

// scheduleAck arms the delayed cumulative ACK toward rp's peer if one is not
// already pending. The ACK carries rp.next as of fire time, so a burst of
// in-order deliveries is acknowledged once.
func (ep *endpoint) scheduleAck(rp *rxPeer) {
	if !rp.ackTimer.Pending() {
		rp.ackTimer = ep.eng.After(ep.s.cfg.AckDelay, rp.sendAck)
	}
}

// flushAck is the delayed ACK timer's callback.
func (rp *rxPeer) flushAck() {
	ep, s := rp.ep, rp.ep.s
	ep.acksSent.Inc()
	ep.noteSent(rp.src)
	a := s.takeAck()
	a.cum = rp.next
	a.msg = fabric.Message{
		Src:    ep.rank,
		Dst:    rp.src,
		Size:   s.cfg.AckBytes,
		Meta:   a,
		OnDone: a.onDone,
	}
	s.fab.Send(&a.msg)
}

func (ep *endpoint) onAck(peer int, cum uint64) {
	tp := ep.tx[peer]
	if tp == nil || tp.dead {
		return
	}
	n := 0
	for n < len(tp.q) && tp.q[n].fr.seq < cum {
		ep.settle(tp.q[n])
		n++
	}
	// Shift the rest down, so the queue reuses its array instead of
	// creeping along it and reallocating.
	k := copy(tp.q, tp.q[n:])
	clear(tp.q[k:])
	tp.q = tp.q[:k]
}
