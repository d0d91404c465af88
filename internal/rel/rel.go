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
	"sync/atomic"

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

	// Metrics is the registry the layer registers its instruments in
	// (protocol counters per rank, in-flight window depth, an RTO
	// histogram). Nil gets a private registry; stack.Build shares one
	// across every layer.
	Metrics *metrics.Registry
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

// frame is the reliability header riding in Message.Meta of a data message;
// the upper layer's payload and Meta travel inside it so a retransmission
// redelivers pristine content even if the sender reused its buffer after
// OnTx.
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

// ackMsg is the Meta of a cumulative ACK: every frame below cum has been
// delivered in order.
type ackMsg struct {
	cum uint64
}

type txEntry struct {
	seq     uint64
	fr      *frame
	userTx  func()
	timer   sim.Event
	rto     sim.Duration
	retries int
	acked   bool
}

type txPeer struct {
	peer    int
	nextSeq uint64
	q       []*txEntry // unacknowledged, ascending seq
	dead    bool
}

type rxPeer struct {
	next     uint64            // next expected seq
	ooo      map[uint64]*frame // early arrivals
	ackTimer sim.Event
}

type endpoint struct {
	s     *Stack
	rank  int
	eng   *sim.Engine // owning shard engine: every timer this endpoint arms
	up    fabric.Handler
	errFn func(peer int, err error)
	tx    map[int]*txPeer
	rx    map[int]*rxPeer

	// notified dedupes upper-layer failure notifications: a dead peer
	// produces exactly one callback per endpoint, whether the verdict came
	// from retry exhaustion, a lease expiry, or both — and no matter how
	// many detectors fire concurrently. notifyMu guards the check-and-set
	// (and every other read of the map): under a sharded domain a retry
	// exhaustion on this endpoint's shard can race a lease expiry observed
	// through state another shard published, and the winner of the lock is
	// the one verdict the upper layer hears.
	notifyMu sync.Mutex
	notified map[int]bool

	// Failure-detector state (heartbeat.go); the maps stay nil when the
	// detector is off.
	crashed   bool
	hbSeq     uint64
	hbTick    sim.Event
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
	reg *metrics.Registry

	unreachable *metrics.Counter
	peerDead    *metrics.Counter
	rtoHist     *metrics.Histogram

	// hbStopped ends the failure detector permanently (StopHeartbeats); the
	// flag keeps a tick that is already executing from re-arming itself.
	// Atomic because the termination detector announces from one rank while
	// other shards' ticks read it.
	hbStopped atomic.Bool
	// progress is the stall watch's probe and stallStops counts the stops it
	// caused (WatchProgress); both nil when unarmed.
	progress   func() (work uint64, busy bool)
	stallStops *metrics.Counter
}

// New interposes a reliability layer on fab. It takes over the fabric's
// delivery handlers; callers must register theirs through the returned
// Stack.
func New(fab *fabric.Fabric, cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	s := &Stack{
		fab: fab, cfg: cfg, reg: reg,
		unreachable: reg.Counter("rel", "unreachable", metrics.StackRank),
		peerDead:    reg.Counter("rel", "peer_dead", metrics.StackRank),
		rtoHist:     reg.Histogram("rel", "rto_ns", metrics.StackRank),
	}
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

// SetHandler installs the upper layer's delivery handler for rank
// (fabric.Network).
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
// discarded: the error handler has fired and the graph is aborting.
func (s *Stack) Send(m *fabric.Message) {
	ep := s.eps[m.Src]
	if ep.crashed {
		return
	}
	if m.Src == m.Dst {
		s.fab.Send(m)
		return
	}
	tp := ep.txPeerFor(m.Dst)
	if tp.dead {
		return
	}
	fr := &frame{seq: tp.nextSeq, size: m.Size, meta: m.Meta, sent: ep.eng.Now()}
	tp.nextSeq++
	if m.Payload != nil {
		fr.payload = append([]byte(nil), m.Payload...)
	}
	fr.sum = fr.checksum(m.Src, m.Dst)
	e := &txEntry{seq: fr.seq, fr: fr, userTx: m.OnTx, rto: s.cfg.RTO}
	tp.q = append(tp.q, e)
	ep.dataSent.Inc()
	ep.transmit(tp, e, true)
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
		rp = &rxPeer{ooo: make(map[uint64]*frame)}
		ep.rx[peer] = rp
	}
	return rp
}

// transmit puts one framed copy of e on the wire. The retransmit timer
// starts at egress completion so transmit-queue backlog does not count
// against the peer; the timer is armed even when the injector drops the
// copy, because OnTx models NIC-side completion, not receipt.
func (ep *endpoint) transmit(tp *txPeer, e *txEntry, first bool) {
	s := ep.s
	userTx := e.userTx
	wm := &fabric.Message{
		Src:  ep.rank,
		Dst:  tp.peer,
		Size: e.fr.size + s.cfg.HeaderBytes,
		Meta: e.fr,
	}
	wm.OnTx = func() {
		if first && userTx != nil {
			userTx()
		}
		if e.acked || tp.dead {
			return
		}
		e.timer = ep.eng.After(e.rto, func() { ep.timeout(tp, e) })
	}
	ep.noteSent(tp.peer)
	s.fab.Send(wm)
}

func (ep *endpoint) timeout(tp *txPeer, e *txEntry) {
	if e.acked || tp.dead {
		return
	}
	s := ep.s
	if e.retries >= s.cfg.MaxRetries {
		ep.declareDead(tp, e)
		return
	}
	e.retries++
	ep.retransmits.Inc()
	e.rto = sim.Duration(float64(e.rto) * s.cfg.Backoff)
	if e.rto > s.cfg.MaxRTO {
		e.rto = s.cfg.MaxRTO
	}
	s.rtoHist.Observe(uint64(e.rto / sim.Nanosecond))
	ep.transmit(tp, e, false)
}

func (ep *endpoint) declareDead(tp *txPeer, e *txEntry) {
	ep.silence(tp)
	ep.notifyPeerFailure(tp.peer,
		&PeerUnreachable{From: ep.rank, To: tp.peer, Attempts: e.retries + 1, LastSeq: e.seq})
}

// silence marks peer's tx side dead and cancels every pending retransmit
// timer, discarding the unacknowledged queue. Further sends toward the peer
// are swallowed.
func (ep *endpoint) silence(tp *txPeer) {
	tp.dead = true
	for _, q := range tp.q {
		ep.eng.Cancel(q.timer)
	}
	tp.q = nil
}

// notifyPeerFailure surfaces one — exactly one — failure verdict per peer to
// the upper layer, whichever detector fired first; concurrent firings race
// for the claim under notifyMu and every loser returns silently. The
// callback itself runs outside the lock (it re-enters the stack: recovery
// casts deadvotes through rel). Without a registered handler the verdict
// panics: a peer death nobody listens for is a silent hang waiting to
// happen.
// alreadyNotified reports whether a failure verdict for peer has fired.
func (ep *endpoint) alreadyNotified(peer int) bool {
	ep.notifyMu.Lock()
	defer ep.notifyMu.Unlock()
	return ep.notified[peer]
}

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
	case *frame:
		ep.onFrame(m, meta)
	case *ackMsg:
		if m.Corrupted {
			return
		}
		ep.onAck(m.Src, meta.cum)
	case *hbMsg:
		ep.onHeartbeat(m)
	default:
		panic(fmt.Sprintf("rel: rank %d: message from %d without reliability framing", ep.rank, m.Src))
	}
}

func (ep *endpoint) onFrame(m *fabric.Message, fr *frame) {
	if m.Corrupted || fr.sum != fr.checksum(m.Src, m.Dst) {
		// Damaged in flight: discard without touching receive state; the
		// sender's timeout redelivers an intact copy. The payload of a
		// Corrupted message is a private copy the fabric made to flip a byte
		// in — hand it back for reuse.
		ep.corruptDrop.Inc()
		ep.s.fab.RecyclePayload(m)
		return
	}
	rp := ep.rxPeerFor(m.Src)
	switch {
	case fr.seq < rp.next:
		// Duplicate of something already delivered (injector copy, or a
		// retransmission whose ACK was lost). Re-ACK so the sender stops.
		ep.dupDropped.Inc()
		ep.scheduleAck(rp, m.Src)
	case fr.seq > rp.next:
		ep.outOfOrder.Inc()
		rp.ooo[fr.seq] = fr
		ep.scheduleAck(rp, m.Src)
	default:
		ep.deliverUp(m.Src, fr)
		rp.next++
		for {
			nf := rp.ooo[rp.next]
			if nf == nil {
				break
			}
			delete(rp.ooo, rp.next)
			ep.deliverUp(m.Src, nf)
			rp.next++
		}
		ep.scheduleAck(rp, m.Src)
	}
}

func (ep *endpoint) deliverUp(src int, fr *frame) {
	ep.dataDelivered.Inc()
	ep.up(&fabric.Message{
		Src:     src,
		Dst:     ep.rank,
		Size:    fr.size,
		Payload: fr.payload,
		Meta:    fr.meta,
		Sent:    fr.sent,
	})
}

// scheduleAck arms the delayed cumulative ACK for src if one is not already
// pending. The ACK carries rp.next as of fire time, so a burst of in-order
// deliveries is acknowledged once.
func (ep *endpoint) scheduleAck(rp *rxPeer, src int) {
	s := ep.s
	if rp.ackTimer.Pending() {
		return
	}
	rp.ackTimer = ep.eng.After(s.cfg.AckDelay, func() {
		ep.acksSent.Inc()
		ep.noteSent(src)
		s.fab.Send(&fabric.Message{
			Src:  ep.rank,
			Dst:  src,
			Size: s.cfg.AckBytes,
			Meta: &ackMsg{cum: rp.next},
		})
	})
}

func (ep *endpoint) onAck(peer int, cum uint64) {
	tp := ep.tx[peer]
	if tp == nil || tp.dead {
		return
	}
	for len(tp.q) > 0 && tp.q[0].seq < cum {
		e := tp.q[0]
		tp.q = tp.q[1:]
		e.acked = true
		ep.eng.Cancel(e.timer)
	}
}
