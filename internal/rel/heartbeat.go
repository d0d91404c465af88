package rel

import (
	"encoding/binary"
	"fmt"

	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Heartbeat failure detection. When Config.HeartbeatPeriod is set, every
// endpoint runs a lease-based failure detector over all of its peers:
//
//   - any arrival from a peer — data frame, ACK, or explicit heartbeat —
//     renews that peer's lease (lastHeard);
//   - a peer the endpoint has not transmitted anything to for a full period
//     receives an explicit heartbeat beacon, so the beacons piggyback on
//     regular protocol traffic and cost nothing on busy links;
//   - a peer whose lease has been silent for LeaseTimeout is declared dead
//     with a PeerDead notification — a whole-rank verdict, distinct from the
//     per-send PeerUnreachable of an exhausted retry budget.
//
// Because every endpoint monitors every peer, all survivors of a rank crash
// converge on the same verdict within LeaseTimeout + HeartbeatPeriod of the
// failure, whether or not they had traffic in flight toward the dead rank.
//
// The detector's tick is an ordinary simulation event, so detection does not
// depend on application traffic keeping the event loop alive; a recovery
// orchestrator stops the ticks at quiescence via StopHeartbeats.
//
// The ticks are also the one thing that can keep a wedged run alive forever:
// if the layer above never reaches the quiescence that stops them, the event
// queue never drains. WatchProgress closes that hole from inside the tick
// that causes it: with the upper layer's progress unchanged and no worker
// busy for stallLeases lease windows, the detector stops itself and the run
// ends in whatever verdict the upper layer gives a drained queue.

// stallLeases is how many lease windows the watched progress may stand still
// (with nothing computing) before the detector gives up. A death verdict, the
// restart it triggers and the retransmissions of a lossy link all move the
// watched counters within a lease or two; eight is far outside anything a
// live protocol does and still ends a wedged run after a few dozen ticks.
const stallLeases = 8

// WatchProgress arms the stall stop. fn reports a counter that changes
// whenever the upper layer gets something done and whether anything is
// computing right now (a long task moves no counter, and is not a stall). It is sampled on the existing
// detector ticks — no event is added to any run — and only read, so a run
// that terminates normally is unchanged. Call before the simulation starts.
// Arming registers rel/hb_stall_stops, so a watched run that never stalls
// reads 0 stops.
func (s *Stack) WatchProgress(fn func() (work uint64, busy bool)) {
	s.progress = fn
	s.stallStops = s.Metrics().Counter("rel", "hb_stall_stops", metrics.StackRank)
}

// stalled samples the watched progress at this endpoint's tick and reports
// whether it has stood still for stallLeases lease windows.
func (ep *endpoint) stalled(now sim.Time) bool {
	s := ep.s
	if s.progress == nil {
		return false
	}
	work, busy := s.progress()
	if busy || work != ep.lastWork {
		ep.lastWork, ep.lastWorkAt = work, now
		return false
	}
	return now.Sub(ep.lastWorkAt) > stallLeases*s.cfg.LeaseTimeout
}

// PeerDead reports that From's failure detector declared To dead: nothing
// has been heard from To for a full lease window.
type PeerDead struct {
	From, To int
	// LastHeard is the last virtual time anything arrived from To.
	LastHeard sim.Time
	// Lease is the configured lease timeout that expired.
	Lease sim.Duration
}

func (e *PeerDead) Error() string {
	return fmt.Sprintf("rel: rank %d declared peer %d dead (silent since %v, lease %v)",
		e.From, e.To, e.LastHeard, e.Lease)
}

// DeadPeer returns the rank declared dead (core.PeerDeath).
func (e *PeerDead) DeadPeer() int { return e.To }

// beacon is one heartbeat in flight: the fabric message (Meta points back
// here) and the encoded Heartbeat it carries as its payload, so fault
// injection can damage real bytes. Retired from the fabric's OnDone.
type beacon struct {
	s    *Stack
	buf  [HeartbeatBytes]byte
	msg  fabric.Message
	live bool

	onDone func()
}

// Heartbeat is the wire content of an explicit beacon.
type Heartbeat struct {
	// From is the sender's rank (validated against the fabric source on
	// receipt, so a corrupted beacon cannot renew the wrong lease).
	From int32
	// Seq increments per beacon the sender emits.
	Seq uint64
	// Sent is the send time in virtual picoseconds.
	Sent int64
}

const (
	hbMagic   = 0x4842 // "HB"
	hbVersion = 1
	// HeartbeatBytes is the encoded size of a beacon: magic, version,
	// sender, sequence number, send time.
	HeartbeatBytes = 2 + 1 + 4 + 8 + 8
)

// EncodeHeartbeat serializes a beacon.
func EncodeHeartbeat(h Heartbeat) []byte {
	b := make([]byte, HeartbeatBytes)
	putHeartbeat(b, h)
	return b
}

// putHeartbeat encodes h into b, which holds HeartbeatBytes bytes.
func putHeartbeat(b []byte, h Heartbeat) {
	binary.LittleEndian.PutUint16(b[0:], hbMagic)
	b[2] = hbVersion
	binary.LittleEndian.PutUint32(b[3:], uint32(h.From))
	binary.LittleEndian.PutUint64(b[7:], h.Seq)
	binary.LittleEndian.PutUint64(b[15:], uint64(h.Sent))
}

// DecodeHeartbeat parses a beacon, rejecting anything malformed: wrong
// length, wrong magic, unknown version, or a negative sender rank. It never
// panics on arbitrary input (fuzzed).
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	var h Heartbeat
	if len(b) != HeartbeatBytes {
		return h, fmt.Errorf("rel: heartbeat length %d, want %d", len(b), HeartbeatBytes)
	}
	if m := uint16(b[0]) | uint16(b[1])<<8; m != hbMagic {
		return h, fmt.Errorf("rel: heartbeat magic %#x, want %#x", m, hbMagic)
	}
	if b[2] != hbVersion {
		return h, fmt.Errorf("rel: heartbeat version %d, want %d", b[2], hbVersion)
	}
	rd32 := func(off int) uint32 {
		return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	}
	rd64 := func(off int) uint64 {
		return uint64(rd32(off)) | uint64(rd32(off+4))<<32
	}
	h.From = int32(rd32(3))
	h.Seq = rd64(7)
	h.Sent = int64(rd64(15))
	if h.From < 0 {
		return h, fmt.Errorf("rel: heartbeat from negative rank %d", h.From)
	}
	return h, nil
}

// startHeartbeats opens every peer's lease as of now and arms the first
// detector tick.
func (ep *endpoint) startHeartbeats() {
	s := ep.s
	ep.lastSent = make(map[int]sim.Time, len(s.eps)-1)
	ep.lastHeard = make(map[int]sim.Time, len(s.eps)-1)
	now := ep.eng.Now()
	for p := range s.eps {
		if p != ep.rank {
			ep.lastHeard[p] = now
		}
	}
	ep.tickFn = ep.tickHeartbeats
	ep.hbTick = ep.eng.After(s.cfg.HeartbeatPeriod, ep.tickFn)
}

// tickHeartbeats runs once per period: expire silent leases, then beacon to
// any peer the endpoint has not transmitted to for a full period.
func (ep *endpoint) tickHeartbeats() {
	s := ep.s
	if ep.crashed || s.hbStopped {
		return
	}
	now := ep.eng.Now()
	if ep.stalled(now) {
		s.stallStops.Inc()
		s.StopHeartbeats()
		return
	}
	for p := range s.eps {
		if p == ep.rank || ep.alreadyNotified(p) {
			continue
		}
		if now.Sub(ep.lastHeard[p]) > s.cfg.LeaseTimeout {
			ep.leaseExpired(p)
			continue
		}
		if now.Sub(ep.lastSent[p]) >= s.cfg.HeartbeatPeriod {
			ep.sendHeartbeat(p)
		}
	}
	// A failure callback above may have stopped the detector for good.
	if !s.hbStopped && !ep.crashed {
		ep.hbTick = ep.eng.After(s.cfg.HeartbeatPeriod, ep.tickFn)
	}
}

func (ep *endpoint) sendHeartbeat(peer int) {
	s := ep.s
	ep.hbSeq++
	b := s.takeBeacon()
	putHeartbeat(b.buf[:], Heartbeat{
		From: int32(ep.rank),
		Seq:  ep.hbSeq,
		Sent: int64(ep.eng.Now()),
	})
	ep.hbSent.Inc()
	ep.noteSent(peer)
	b.msg = fabric.Message{
		Src:     ep.rank,
		Dst:     peer,
		Size:    HeartbeatBytes,
		Payload: b.buf[:],
		Meta:    b,
		OnDone:  b.onDone,
	}
	s.fab.Send(&b.msg)
}

func (s *Stack) takeBeacon() *beacon {
	b := s.beacons.Get()
	if b == nil {
		b = &beacon{s: s}
		b.onDone = b.retire
	}
	b.live = true
	return b
}

// retire is the beacon's OnDone. A corrupted beacon's payload is the private
// copy the fabric flipped a byte in; it goes back to the fabric's scratch
// pool.
func (b *beacon) retire() {
	if !b.live {
		panic("rel: heartbeat record retired twice")
	}
	s := b.s
	s.fab.RecyclePayload(&b.msg)
	*b = beacon{s: s, onDone: b.onDone}
	s.beacons.Put(b)
}

// onHeartbeat validates an explicit beacon. The lease itself was already
// renewed by onArrival (any sign of life counts, even a damaged frame); the
// decode exists to keep the wire format honest and countable.
func (ep *endpoint) onHeartbeat(m *fabric.Message) {
	hb, err := DecodeHeartbeat(m.Payload)
	if err != nil || int(hb.From) != m.Src {
		ep.hbBad.Inc()
		return
	}
	ep.hbRecv.Inc()
}

// leaseExpired converts a silent lease into a PeerDead verdict: the tx side
// toward the peer is silenced exactly as an exhausted retry budget would,
// then the (deduplicated) notification fires.
func (ep *endpoint) leaseExpired(peer int) {
	s := ep.s
	ep.silence(ep.txPeerFor(peer))
	ep.notifyPeerFailure(peer, &PeerDead{
		From:      ep.rank,
		To:        peer,
		LastHeard: ep.lastHeard[peer],
		Lease:     s.cfg.LeaseTimeout,
	})
}

// noteSent records a transmission toward peer, suppressing the next explicit
// beacon (the traffic itself is the heartbeat). No-op when the detector is
// off.
func (ep *endpoint) noteSent(peer int) {
	if ep.lastSent != nil {
		ep.lastSent[peer] = ep.eng.Now()
	}
}

// noteHeard renews peer's lease. No-op when the detector is off.
func (ep *endpoint) noteHeard(peer int) {
	if ep.lastHeard != nil {
		ep.lastHeard[peer] = ep.eng.Now()
	}
}

// freeze models the failed rank's own side of a crash: the endpoint stops
// every timer it owns and goes silent, so the dead rank cannot observe its
// peers "failing" (it is the one that is gone). Registered on the fabric's
// crash notification.
func (ep *endpoint) freeze() {
	ep.crashed = true
	ep.eng.Cancel(ep.hbTick)
	ep.hbTick = sim.Event{}
	for _, tp := range ep.tx {
		ep.silence(tp)
	}
	for _, rp := range ep.rx {
		ep.eng.Cancel(rp.ackTimer)
	}
}

// StopHeartbeats cancels every endpoint's detector tick. The termination
// detector calls it when it *proves* the computation over — once the
// workload has completed everywhere there is nothing left to monitor, and
// the perpetual ticks would otherwise keep the simulation alive forever.
// Idempotent: the detector may announce once per recovery epoch, and crashed
// endpoints have already frozen their own timers.
func (s *Stack) StopHeartbeats() {
	if s.hbStopped {
		return
	}
	s.hbStopped = true
	// Cancel eagerly so the simulation ends at the announcement.
	for _, ep := range s.eps {
		ep.eng.Cancel(ep.hbTick)
		ep.hbTick = sim.Event{}
	}
}
