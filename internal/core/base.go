package core

import (
	"errors"
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// dataTagBase starts the tag range put data transfers draw from, disjoint
// from active-message tags.
const dataTagBase = 1 << 24

// Base is the backend-independent half of an Engine, which both backends
// embed: the communication thread (Submit, CommProc), the tag and
// registration tables, the OnError/Err contract, the counters every engine
// keeps, the Put prologue and the data-tag allocator. A backend adds its
// protocol and its purge rule.
//
// The failure contract, as both backends behave:
//
//   - Fail records the first unrecoverable failure, purges the queued work
//     involving the offending peer (when there is one) and notifies the
//     handler. From then on Drops reports true for every peer: the engine
//     issues no new traffic.
//   - A transport error that carries a PeerDeath evicts the dead peer
//     instead, once: its queued work is purged, traffic toward it is dropped
//     (Drops), put handshakes from it are dropped (Handshake), and the
//     handler hears the death. Err stays nil and the survivors keep being
//     served. Active messages the dead peer sent before it died are still
//     delivered to their callbacks; the runtime above discards them by its
//     own epoch and dead-rank bookkeeping.
type Base struct {
	registry
	// Tags maps active-message tags to their callbacks.
	Tags *TagTable

	layer      string // the engine's metrics layer, also the prefix of its errors
	rank, size int
	comm       *sim.Proc
	purge      func(peer int, dead bool)

	errFn       func(error)
	failed      error
	deadPeers   map[int]bool
	nextDataTag int32

	// Activity counters (metrics registry, the engine's layer); Deferred
	// counts operations that could not start immediately.
	AMsSent, AMsDelivered *metrics.Counter
	PutsStarted, PutsDone *metrics.Counter
	PutBytes, Deferred    *metrics.Counter
}

// Init sets up b for rank of a size-rank job, its communication thread on
// eng, and registers its instruments in reg (the library's registry, never
// nil) under layer: the six counters, then whatever extra registers (if
// non-nil), then the comm_busy probe. purge is the backend's purge rule: it
// drops the queued work involving peer, after a failure blamed on peer or,
// with dead set, after peer's eviction.
func (b *Base) Init(eng *sim.Engine, layer string, rank, size int, reg *metrics.Registry,
	purge func(peer int, dead bool), extra func()) {
	b.registry = registry{rank: int32(rank), mem: make(map[uint64]buf.Buf)}
	b.Tags = NewTagTable()
	b.layer, b.rank, b.size = layer, rank, size
	b.comm = sim.NewProc(eng)
	b.purge = purge
	b.AMsSent = reg.Counter(layer, "ams_sent", rank)
	b.AMsDelivered = reg.Counter(layer, "ams_delivered", rank)
	b.PutsStarted = reg.Counter(layer, "puts_started", rank)
	b.PutsDone = reg.Counter(layer, "puts_done", rank)
	b.PutBytes = reg.Counter(layer, "put_bytes", rank)
	b.Deferred = reg.Counter(layer, "deferred", rank)
	if extra != nil {
		extra()
	}
	reg.Probe(layer, "comm_busy", rank, true, func() float64 { return b.comm.BusyTime().Seconds() })
}

// Rank returns this engine's rank.
func (b *Base) Rank() int { return b.rank }

// Size returns the job size.
func (b *Base) Size() int { return b.size }

// CommProc returns the communication thread.
func (b *Base) CommProc() *sim.Proc { return b.comm }

// Submit runs fn on the communication thread after charging cost.
func (b *Base) Submit(cost sim.Duration, fn func()) { b.comm.Submit(cost, fn) }

// OnError registers the failure handler; the latest registration wins and a
// nil fn is ignored (see Engine).
func (b *Base) OnError(fn func(error)) {
	if fn != nil {
		b.errFn = fn
	}
}

// Err returns the first unrecoverable failure, or nil.
func (b *Base) Err() error { return b.failed }

// notify hands err to the registered handler, or panics without one —
// silence would be a hang.
func (b *Base) notify(err error) {
	if b.errFn == nil {
		panic(err)
	}
	b.errFn(err)
}

// Fail records the first unrecoverable failure and notifies the handler.
// The queued work involving peer is purged first — it can never succeed and
// would keep feeding traffic into a black hole; peer < 0 means the failure
// is not attributable to one peer.
func (b *Base) Fail(peer int, err error) {
	if b.failed != nil {
		return
	}
	b.failed = err
	if peer >= 0 {
		b.purge(peer, false)
	}
	b.notify(err)
}

// evictPeer handles a whole-rank death verdict (PeerDeath) without entering
// the failed state; see Base.
func (b *Base) evictPeer(peer int, err error) {
	if b.failed != nil || b.deadPeers[peer] {
		return
	}
	if b.deadPeers == nil {
		b.deadPeers = make(map[int]bool)
	}
	b.deadPeers[peer] = true
	b.purge(peer, true)
	b.notify(err)
}

// TransportError is the error handler a backend installs on its transport:
// a PeerDeath in err's chain evicts the dead peer, anything else fails the
// engine.
func (b *Base) TransportError(peer int, err error) {
	// The layer is spliced into the format rather than passed as an
	// argument, which would box it on every verdict a run delivers.
	werr := fmt.Errorf(b.layer+" rank %d: %w", b.rank, err)
	var pd PeerDeath
	if errors.As(err, &pd) {
		b.evictPeer(pd.DeadPeer(), werr)
		return
	}
	b.Fail(peer, werr)
}

// Drops reports whether traffic toward peer is dropped: the engine has
// failed, or peer was evicted.
func (b *Base) Drops(peer int) bool { return b.failed != nil || b.deadPeers[peer] }

// Callback resolves tag's callback for an n-byte payload from src. A payload
// longer than the tag's registered maxLen fails the engine with ErrAMTooLong
// and yields nil.
func (b *Base) Callback(tag Tag, n int64, src int) AMCallback {
	cb, maxLen := b.Tags.Lookup(tag)
	if n > maxLen {
		b.Fail(src, AMTooLong(b.layer, b.rank, tag, n, maxLen, src))
		return nil
	}
	return cb
}

// BeginPut is the prologue of Put: a put toward a dropped peer is ignored
// (ok false); otherwise it is counted and its local source region returned.
func (b *Base) BeginPut(a PutArgs) (local buf.Buf, ok bool) {
	if b.Drops(a.Remote) {
		return buf.Buf{}, false
	}
	b.PutsStarted.Inc()
	b.PutBytes.Add(uint64(a.Size))
	return b.Lookup(a.LReg).Slice(a.LDispl, a.Size), true
}

// NextDataTag allocates the tag of a put's data transfer.
func (b *Base) NextDataTag() int {
	b.nextDataTag++
	return dataTagBase + int(b.nextDataTag)
}

// Handshake decodes a put handshake from src. One from an evicted peer is
// dropped — its data will never follow; a malformed one means the peer
// engine is broken and fails this engine rather than crashing the rank.
func (b *Base) Handshake(data []byte, src int) (h PutHeader, ok bool) {
	if b.deadPeers[src] {
		return h, false
	}
	h, err := UnmarshalPutHeader(data)
	if err != nil {
		b.Fail(src, fmt.Errorf("%s rank %d: bad put handshake from %d: %w", b.layer, b.rank, src, err))
		return h, false
	}
	return h, true
}

// registry is the MemReg half of an engine.
type registry struct {
	rank   int32
	nextID uint64
	mem    map[uint64]buf.Buf
}

// MemReg registers b and returns its handle.
func (g *registry) MemReg(b buf.Buf) MemHandle {
	g.nextID++
	g.mem[g.nextID] = b
	return MemHandle{Rank: g.rank, ID: g.nextID}
}

// MemDereg releases h. Deregistering an unknown handle panics — it means a
// put raced with deregistration, which would corrupt memory on real RDMA
// hardware.
func (g *registry) MemDereg(h MemHandle) {
	if h.Rank != g.rank {
		panic(fmt.Sprintf("core: deregistering remote handle %+v at rank %d", h, g.rank))
	}
	if _, ok := g.mem[h.ID]; !ok {
		panic(fmt.Sprintf("core: deregistering unknown handle %+v", h))
	}
	delete(g.mem, h.ID)
}

// Lookup resolves h to its registered buffer, panicking on a foreign or
// unknown handle.
func (g *registry) Lookup(h MemHandle) buf.Buf {
	if h.Rank != g.rank {
		panic(fmt.Sprintf("core: handle %+v looked up at rank %d", h, g.rank))
	}
	b, ok := g.mem[h.ID]
	if !ok {
		panic(fmt.Sprintf("core: unknown handle %+v", h))
	}
	return b
}
