// Package mpi implements the message-passing library that serves as the
// paper's baseline communication layer (Section 4.2 builds the PaRSEC MPI
// backend on it). It is a faithful functional subset of MPI point-to-point
// semantics on top of the simulated fabric:
//
//   - nonblocking two-sided communication (Isend/Irecv) with tag and
//     ANY_SOURCE matching, an unexpected-message queue, and eager versus
//     rendezvous (RTS/CTS) protocols selected by message size;
//   - persistent receive requests (RecvInit/Start), which the PaRSEC MPI
//     backend uses for active messages (five per registered tag). A
//     persistent receive declares a capacity, not a buffer: the request takes
//     storage for a message when one matches and gives it back at the next
//     Start, so an armed receive that nothing is sent to costs no memory;
//   - Testsome over a request array, with a CPU cost model that grows with
//     the array length — the polling overhead the paper identifies as an MPI
//     scaling bottleneck;
//   - the progress-runs-inside-calls behavior of real MPI implementations:
//     arrived wire traffic is only matched, copied, and completed when some
//     MPI call executes progress. A communication thread stuck in a long
//     callback therefore delays rendezvous handshakes, exactly as in §4.3;
//   - the mpi_assert_allow_overtaking Info key (§4.2.2), always asserted as
//     PaRSEC does: matching pays no per-pair ordering cost;
//   - a global lock modeling MPI_THREAD_MULTIPLE contention (§4.3, [24]):
//     calls from worker threads serialize through it.
//
// CPU cost accounting convention: the library mutates state immediately and
// exposes cost estimators (SendCost, PostCost, ProgressAndTestCost). Callers
// (the communication-engine backends) charge those costs on their thread
// Procs and invoke the state transitions from the charged item's completion,
// so all visible effects occur at correctly accounted virtual times.
package mpi

import (
	"slices"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// AnySource matches a receive against senders of any rank.
const AnySource = -1

// Config holds the software cost model and protocol parameters.
type Config struct {
	// EagerThreshold is the largest payload sent eagerly (copied through
	// library buffers); larger messages use the RTS/CTS rendezvous.
	EagerThreshold int64
	// PostCost is the CPU cost of posting one Isend/Irecv/Start.
	PostCost sim.Duration
	// TestBase and TestPerReq model MPI_Testsome: base call overhead plus a
	// per-inspected-request scan cost.
	TestBase   sim.Duration
	TestPerReq sim.Duration
	// MatchCost is the per-arrival cost of matching one staged wire message
	// against the posted-receive list during progress; ScanPerEntry adds a
	// linear term in the current posted + unexpected queue lengths, the
	// classic MPI matching penalty under bursty many-message load.
	MatchCost    sim.Duration
	ScanPerEntry sim.Duration
	// CopyPsPerByte is the memory-copy cost in picoseconds per byte; eager
	// messages are copied once on each side.
	CopyPsPerByte int64
	// HeaderBytes is the wire framing added to every payload-bearing
	// message; CtrlBytes is the size of RTS/CTS control messages.
	HeaderBytes int64
	CtrlBytes   int64
	// RndvCost is the per-message software cost of the rendezvous path on
	// each side: registration-cache lookup and RNDV protocol processing.
	// RndvPerMiB adds the size-dependent part — page pinning for memory
	// registration. PaRSEC's fetch buffers are allocated dynamically per
	// transfer, so registrations rarely hit the cache (§6.1.2 notes the UCX
	// registration-cache trouble this causes: the authors had to cap
	// UCX_IB_RCACHE_MAX_REGIONS to avoid crashes).
	RndvCost   sim.Duration
	RndvPerMiB sim.Duration
	// LockHold is how long one multithreaded call occupies the library's
	// global lock.
	LockHold sim.Duration
}

// DefaultConfig returns a cost model calibrated against Open MPI/UCX-class
// software overheads (Table 1 stack) — a few hundred nanoseconds per posted
// operation and microsecond-scale polling when the request array is long.
func DefaultConfig() Config {
	return Config{
		EagerThreshold: 8 << 10,
		PostCost:       600 * sim.Nanosecond,
		TestBase:       450 * sim.Nanosecond,
		TestPerReq:     60 * sim.Nanosecond,
		MatchCost:      800 * sim.Nanosecond,
		ScanPerEntry:   40 * sim.Nanosecond,
		CopyPsPerByte:  50, // ~20 GB/s memcpy
		HeaderBytes:    64,
		CtrlBytes:      64,
		RndvCost:       5 * sim.Microsecond,
		RndvPerMiB:     30 * sim.Microsecond,
		LockHold:       350 * sim.Nanosecond,
	}
}

// copyCost returns the one-sided memcpy cost for n bytes.
func (c Config) copyCost(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(n * c.CopyPsPerByte)
}

// SendCost is the caller-side CPU cost of initiating a send of n bytes:
// posting plus, for eager messages, the library-buffer copy, or, for
// rendezvous messages, the registration/protocol cost.
func (c Config) SendCost(n int64) sim.Duration {
	if n <= c.EagerThreshold {
		return c.PostCost + c.copyCost(n)
	}
	return c.PostCost + c.rndvCost(n)
}

// RecvCost is the caller-side CPU cost of posting a receive of n bytes.
func (c Config) RecvCost(n int64) sim.Duration {
	if n <= c.EagerThreshold {
		return c.PostCost
	}
	return c.PostCost + c.rndvCost(n)
}

func (c Config) rndvCost(n int64) sim.Duration {
	return c.RndvCost + sim.Duration(float64(c.RndvPerMiB)*float64(n)/(1<<20))
}

// TestCost is the CPU cost of scanning nreq requests in Testsome,
// excluding progress work (see Rank.ProgressCost).
func (c Config) TestCost(nreq int) sim.Duration {
	return c.TestBase + sim.Duration(nreq)*c.TestPerReq
}

// World is the set of communicating ranks (MPI_COMM_WORLD).
type World struct {
	dom   sim.Domain
	fab   fabric.Network
	cfg   Config
	ranks []*Rank
}

// NewWorld attaches one Rank per fabric port and installs delivery handlers.
// fab may be the raw fabric or a reliability layer; when it can report peer
// failures (fabric.ErrNotifier), those are forwarded to each rank's error
// handler. Every rank registers its instruments in fab's registry.
func NewWorld(dom sim.Domain, fab fabric.Network, cfg Config) *World {
	reg := fab.Metrics()
	w := &World{dom: dom, fab: fab, cfg: cfg}
	pools := sim.ShardFreeLists[wire](dom)
	w.ranks = make([]*Rank, fab.Ranks())
	for i := range w.ranks {
		r := &Rank{
			w: w, me: i, lock: sim.NewProc(dom.RankEngine(i)),
			pool:           pools[dom.ShardOf(i)],
			sent:           reg.Counter("mpi", "sent", i),
			received:       reg.Counter("mpi", "received", i),
			unexpectedHits: reg.Counter("mpi", "unexpected_hits", i),
			isendsInFlight: reg.Gauge("mpi", "isends_in_flight", i),
		}
		reg.Probe("mpi", "unexpected_depth", i, false, func() float64 { return float64(len(r.unexpected)) })
		reg.Probe("mpi", "posted_depth", i, false, func() float64 { return float64(len(r.posted)) })
		reg.Probe("mpi", "lock_queue_depth", i, false, func() float64 { return float64(r.lock.QueueLen()) })
		w.ranks[i] = r
		fab.SetHandler(i, r.onArrival)
	}
	if en, ok := fab.(fabric.ErrNotifier); ok {
		for i := range w.ranks {
			r := w.ranks[i]
			en.SetErrHandler(i, r.deliverErr)
		}
	}
	return w
}

// Rank returns the per-rank MPI context.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Config returns the world's cost model.
func (w *World) Config() Config { return w.cfg }

// Metrics returns the network's registry, which the world's instruments
// live in (send/receive counters, unexpected-queue depth, rendezvous sends
// in flight, lock-queue depth).
func (w *World) Metrics() *metrics.Registry { return w.fab.Metrics() }

// Rank is one process's view of the library. All methods must run on the
// owning simulation engine's goroutine.
type Rank struct {
	w    *World
	me   int
	lock *sim.Proc // MPI_THREAD_MULTIPLE global lock

	// staged holds arrivals awaiting progress; spare is the slice Progress
	// drained last, swapped back in so staging does not regrow one per pass.
	staged, spare []*wire
	posted        []*Request // active receive requests, post order
	unexpected    []*wire    // progressed but unmatched arrivals

	// pool is the wire-record free list of this rank's shard: wire records
	// cross the fabric and are retired where they are delivered, so the list
	// belongs to the shard (per-rank lists would drain on every one-way
	// stream). reqs recycles the requests callers hand back through
	// Request.Free; testOut is Testsome's result scratch.
	pool    *sim.FreeList[wire]
	reqs    sim.FreeList[Request]
	testOut []int

	wake  func()
	errFn func(peer int, err error)

	// Counters for experiments and tests (metrics registry, layer "mpi"):
	// messages posted, payload deliveries, and receives satisfied from the
	// unexpected-message queue rather than by a fresh arrival.
	sent, received, unexpectedHits *metrics.Counter
	// isendsInFlight tracks rendezvous sends posted but not yet locally
	// complete (eager sends complete at post time and never appear here).
	isendsInFlight *metrics.Gauge
}

// ID returns this rank's index.
func (r *Rank) ID() int { return r.me }

// DropRecords empties the rank's request free list and its shard's wire free
// list, payload slabs included, for the end of a run: both lists keep every
// record they are handed while a run goes on (sim.FreeList). It forgets the
// arrivals and the nonpersistent receives still pending too, which nothing
// completes once the run is over (on a crashed rank, whatever was pending at
// the crash); persistent receives stay posted.
func (r *Rank) DropRecords() {
	r.posted = slices.DeleteFunc(r.posted, func(q *Request) bool { return !q.persistent })
	r.staged, r.spare, r.unexpected = nil, nil, nil
	r.reqs.Drop()
	r.pool.Drop()
}

// SetWake installs a callback invoked whenever new library-level work
// appears (a wire arrival or a local send completion). Backends use it to
// schedule a progress pass instead of busy-polling.
func (r *Rank) SetWake(fn func()) { r.wake = fn }

func (r *Rank) notify() {
	if r.wake != nil {
		r.wake()
	}
}

// SetErrHandler installs the callback run when the transport declares a peer
// unreachable. Without one, the failure panics: an unnoticed dead peer
// otherwise turns into a silent hang.
func (r *Rank) SetErrHandler(fn func(peer int, err error)) { r.errFn = fn }

func (r *Rank) deliverErr(peer int, err error) {
	if r.errFn == nil {
		panic(err)
	}
	r.errFn(peer, err)
}

type wireKind int8

const (
	wireEager wireKind = iota
	wireRTS
	wireCTS
	wireData
	wireSendDone // local pseudo-arrival: rendezvous send buffer released
)

// wire is the pooled record of one library-level message: the header the
// receiver reads, the fabric message it travels in, and that message's egress
// callback, bound once when the record is first made. The sender fills it and
// does not touch it after OnTx; the RECEIVING rank retires it into its own
// shard's free list once progress has consumed it (DESIGN.md §3). The
// local pseudo-arrival wireSendDone is a wire too, taken and retired at the
// same rank.
type wire struct {
	msg  fabric.Message
	onTx func() // w.txDone
	r    *Rank  // sender; read by txDone only
	live bool   // between take and retire

	kind    wireKind
	src     int
	tag     int
	size    int64 // payload size (not counting framing)
	payload buf.Buf
	data    []byte   // backs an eager payload with real bytes; kept across uses
	sreq    *Request // rendezvous: originating send request
	rreq    *Request // rendezvous: matched receive request
}

type reqKind int8

const (
	reqSend reqKind = iota
	reqRecv
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int64
}

// Request is a communication request handle, analogous to MPI_Request. A
// caller that is done with a completed, collected request may hand it back
// with Free; one that keeps the handle simply lets the GC have it.
type Request struct {
	r          *Rank
	kind       reqKind
	persistent bool
	active     bool
	done       bool

	// Matching fields. For receives, src may be AnySource.
	src, tag int
	// b is the send's source, or where a receive lands: the caller's buffer
	// for Irecv; for a persistent receive the message it matched last, a copy
	// held in slab (virtual payloads need none) until the next Start, of at
	// most capacity bytes.
	b        buf.Buf
	capacity int64
	slab     []byte

	// Send-side fields.
	dst  int
	size int64

	// Rendezvous receive: set once an RTS has been matched.
	awaitingData bool

	Status Status
}

// Active reports whether the request has been started and not yet collected.
func (q *Request) Active() bool { return q.active }

// Done reports whether the operation has completed (it may still need to be
// collected by Testsome).
func (q *Request) Done() bool { return q.done }

// Data returns the message a completed persistent receive matched. The bytes
// belong to the request and are valid until it is re-Started. A message longer
// than the receive's capacity is cut to it; Status.Size still reports the
// sender's length, which is how the caller tells.
func (q *Request) Data() buf.Buf {
	if !q.persistent || !q.done {
		panic("mpi: Data of a request that is not a completed persistent receive")
	}
	return q.b
}

// Free releases a request for reuse by a later Isend or Irecv of the same
// rank (MPI_Request_free). The operation must be complete and collected
// (Done and no longer Active) and the request must not be persistent: at that
// point the library holds no reference to it. The handle is dead afterwards;
// a second Free, or a Free of an unfinished request, panics.
func (q *Request) Free() {
	if q.r == nil {
		panic("mpi: Free of a request that was already freed")
	}
	if q.persistent || q.active || !q.done {
		panic("mpi: Free of a persistent, active or incomplete request")
	}
	r := q.r
	*q = Request{}
	r.reqs.Put(q)
}
