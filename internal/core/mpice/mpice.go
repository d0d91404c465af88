// Package mpice is the MPI backend of the PaRSEC communication engine,
// implementing Section 4.2 of the paper:
//
//   - active messages are received through a fixed number of persistent
//     receives per registered tag (five, §4.2.1), started with wildcard
//     source and re-enabled after each callback. The requests are what the
//     model charges for (every Testsome scans all of them); their buffers are
//     a declared capacity that the library backs only once a message has
//     arrived, and only until the run ends, so registering a tag costs the
//     host five small records, not 5 x maxLen bytes;
//   - active messages are sent with blocking eager MPI_Send;
//   - the one-sided put is emulated with two-sided traffic: an active-message
//     handshake tells the target where to receive and on what tag, then a
//     nonblocking send moves the data (§4.2.2);
//   - at most MaxTransfers data transfers are polled concurrently in a
//     global request array; surplus sends are deferred and surplus receives
//     are posted on dynamically allocated requests that are only promoted
//     into the array — and hence only observed — when space frees (§4.2.2);
//   - progress is MPI_Testsome over the whole array, with completion
//     callbacks executed on the same communication thread, so a long
//     callback stalls all further progress (§4.2.3, §4.3).
package mpice

import (
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/metrics"
	"amtlci/internal/mpi"
	"amtlci/internal/sim"
)

// handshakeTag is the engine-internal active-message tag used for put
// handshakes. It occupies persistent-receive slots like any registered tag.
const handshakeTag core.Tag = 0x7FFF0000

// Config holds the backend's structural parameters (the values in the paper
// are the defaults; sweeping them is the point of the ablation benches).
type Config struct {
	// PersistentPerTag is the number of persistent receives pre-posted per
	// registered active-message tag.
	PersistentPerTag int
	// MaxTransfers caps concurrently polled data transfers (sends plus
	// receives) in the global request array.
	MaxTransfers int
	// WakeLatency models how long the communication thread takes to notice
	// new work when idle.
	WakeLatency sim.Duration
	// DispatchCost is the fixed cost of dispatching one completion callback
	// (fetching it from the parallel array, argument setup).
	DispatchCost sim.Duration
	// MaxAMLen bounds active-message payloads of a tag registered with
	// maxLen 0.
	MaxAMLen int64
}

// DefaultConfig returns the paper's configuration: 5 persistent receives per
// tag and 30 concurrent transfers.
func DefaultConfig() Config {
	return Config{
		PersistentPerTag: 5,
		MaxTransfers:     30,
		WakeLatency:      150 * sim.Nanosecond,
		DispatchCost:     400 * sim.Nanosecond,
		MaxAMLen:         8 << 10,
	}
}

// amSlot is one persistent receive of a registered tag, request included: a
// tag's slots are one allocation, made at TagReg. At most one delivery is in
// flight per slot (the request is re-Started only after its callback ran),
// so the two deferred steps of a delivery — run the callback, re-arm the
// receive — alternate in one method, step, bound once at TagReg.
type amSlot struct {
	e   *Engine
	tag core.Tag
	cb  core.AMCallback
	req mpi.Request // its capacity is the tag's registered maxLen

	delivered bool   // the callback ran; step re-arms next
	step      func() // s.next
}

// sendRec is one deferred active-message send: SendAM (or SendAMMT) fills it,
// the communication thread (or the MPI global lock) runs it, and it retires
// itself into e.sends. buf is the record's own copy of the payload, kept
// across uses.
type sendRec struct {
	e      *Engine
	live   bool // between newSend and its send
	tag    core.Tag
	remote int
	buf    []byte
	// SendAMMT only: the calling worker and its continuation.
	worker *sim.Proc
	done   func()

	run func() // s.send
}

// xferSlot is one put data transfer in (or waiting for) the global request
// array, and the record of its deferred steps: post the Isend/Irecv, dispatch
// the remote completion. A slot whose transfer completed is retired into
// e.slots (with its request freed) once nothing can reach it any more — at
// compaction, or for a receive after its completion callback returned. A
// slot abandoned by a dead-peer eviction is only dropped: its posting step
// may still be queued, and its request may still be named by wire traffic.
type xferSlot struct {
	e      *Engine
	live   bool // between newSlot and retireSlot
	req    *mpi.Request
	done   bool // leaves the array at the next compaction
	isSend bool
	// completed: done by Testsome, not by eviction. dispatching: the remote
	// completion callback is queued and retires the slot when it returns.
	completed   bool
	dispatching bool

	data    buf.Buf // send: local source; receive: registered target
	dataTag int
	// Send-side: the put's local completion callback.
	// Recv-side: remote-completion dispatch arguments; rcbData is the slot's
	// own copy, kept across uses.
	localCB func()
	rtag    core.Tag
	rcb     core.AMCallback
	rcbData []byte
	src     int
	dst     int // send-side destination, for dead-peer eviction
	size    int64

	post     func() // s.postTransfer
	dispatch func() // s.runRemoteCompletion
}

type pendingKind int8

const (
	pendingSend pendingKind = iota
	pendingPromote
)

type pendingOp struct {
	kind pendingKind
	// pendingSend: everything needed to post the data Isend.
	data    buf.Buf
	dst     int
	dataTag int
	localCB func()
	size    int64
	// pendingPromote: the already-posted dynamic receive to promote.
	slot *xferSlot
}

// Engine is the per-rank MPI communication engine.
type Engine struct {
	core.Base
	w    *mpi.World
	rank *mpi.Rank
	cfg  Config

	amSlots []*amSlot
	xfer    []*xferSlot
	pending []pendingOp

	// reqs is the global request array Testsome scans: the persistent
	// receives of amSlots, appended once at TagReg, then the requests of xfer,
	// appended behind them for one pass and cleared after it.
	reqs []*mpi.Request

	// Free lists of the engine's deferred-step records, run-scoped
	// (ReleaseRunState), and runPass bound once: a method value made per
	// schedule() call would allocate.
	sends     sim.FreeList[sendRec]
	slots     sim.FreeList[xferSlot]
	runPassFn func()

	progressScheduled bool
	progressPasses    *metrics.Counter // runPass calls (layer "mpice")
}

var _ core.Engine = (*Engine)(nil)

// New builds the engine for rank over world w. The engine installs itself as
// the rank's wake target; one engine per rank. Its instruments (active-message
// and put counters, comm-thread utilization, deferred-queue and
// transfer-array depth, progress passes) go in the world's registry.
func New(eng *sim.Engine, w *mpi.World, rank int, cfg Config) *Engine {
	if cfg.PersistentPerTag <= 0 || cfg.MaxTransfers <= 0 {
		panic("mpice: PersistentPerTag and MaxTransfers must be positive")
	}
	e := &Engine{w: w, rank: w.Rank(rank), cfg: cfg}
	reg := w.Metrics()
	e.Init(eng, "mpice", rank, w.Size(), reg, e.purge, func() {
		e.progressPasses = reg.Counter("mpice", "progress_passes", rank)
	})
	reg.Probe("mpice", "deferred_queue_depth", rank, false, func() float64 { return float64(len(e.pending)) })
	reg.Probe("mpice", "xfer_depth", rank, false, func() float64 { return float64(len(e.xfer)) })
	e.CommProc().WakeLatency = cfg.WakeLatency
	e.runPassFn = e.runPass
	e.rank.SetWake(e.schedule)
	e.rank.SetErrHandler(e.TransportError)
	// The engine registers its put handshake like any other active message
	// (§4.2.2: "The origin process of the put sends an active message...").
	e.TagReg(handshakeTag, e.onHandshake, 0)
	return e
}

// purge is the engine's purge rule (core.Base): deferred sends toward peer
// and promotions of receives posted from it are dropped. On a death verdict
// the global-array transfers involving peer are abandoned too — a send's
// data would vanish on the wire, a receive's data will never arrive. Marked
// done, they free their slots at the next compaction, and their completion
// callbacks never run (that state belongs to the aborted exchange).
func (e *Engine) purge(peer int, dead bool) {
	kept := e.pending[:0]
	for _, op := range e.pending {
		switch {
		case op.kind == pendingSend && op.dst == peer:
			continue
		case op.kind == pendingPromote && op.slot.src == peer:
			continue
		}
		kept = append(kept, op)
	}
	for i := len(kept); i < len(e.pending); i++ {
		e.pending[i] = pendingOp{}
	}
	e.pending = kept
	if !dead {
		return
	}
	purged := false
	for _, s := range e.xfer {
		if s.done {
			continue
		}
		if (s.isSend && s.dst == peer) || (!s.isSend && s.src == peer) {
			s.done = true // not completed: compaction drops it unrecycled
			purged = true
		}
	}
	if purged {
		e.compact()
		e.refill()
	}
	e.schedule()
}

// ReleaseRunState drops the engine's run-scoped records (core.Engine): its
// send and transfer-slot free lists, the transfers left in its global array
// and deferred queue, its MPI rank's request and wire lists and in-flight
// receives, and the slabs of its persistent receives. Once the run has
// returned nothing completes a transfer still in flight; on a crashed rank
// that is everything in flight at the crash.
func (e *Engine) ReleaseRunState() {
	e.sends.Drop()
	e.slots.Drop()
	clear(e.xfer)
	clear(e.pending)
	e.xfer, e.pending = nil, nil
	for _, s := range e.amSlots {
		s.req.DropSlab()
	}
	e.rank.DropRecords()
}

// TagReg registers an active-message callback and pre-posts its persistent
// receives (§4.2.1), each with room for maxLen bytes.
func (e *Engine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	if maxLen <= 0 {
		maxLen = e.cfg.MaxAMLen
	}
	e.Tags.Register(tag, cb, maxLen)
	slots := make([]amSlot, e.cfg.PersistentPerTag)
	for i := range slots {
		s := &slots[i]
		s.e, s.tag, s.cb = e, tag, cb
		s.step = s.next
		e.rank.RecvInit(&s.req, maxLen, mpi.AnySource, int(tag))
		e.rank.Start(&s.req)
		e.amSlots = append(e.amSlots, s)
		e.reqs = append(e.reqs, &s.req)
	}
}

// newSend takes a send record holding a copy of data.
func (e *Engine) newSend(tag core.Tag, remote int, data []byte) *sendRec {
	s := e.sends.Get()
	if s == nil {
		s = &sendRec{e: e}
		s.run = s.send
	}
	s.live, s.tag, s.remote = true, tag, remote
	s.buf = append(s.buf[:0], data...)
	return s
}

// retireSend recycles a send record whose send has run.
func (e *Engine) retireSend(s *sendRec) {
	if !s.live {
		panic("mpice: send record used after retirement")
	}
	s.live, s.worker, s.done, s.buf = false, nil, nil, s.buf[:0]
	e.sends.Put(s)
}

// send is the deferred body of SendAM and SendAMMT (blocking eager MPI_Send;
// §4.2.1); a worker's continuation runs once the call has returned to it.
func (s *sendRec) send() {
	e := s.e
	if !e.Drops(s.remote) {
		e.rank.Send(buf.FromBytes(s.buf), s.remote, int(s.tag))
		e.AMsSent.Inc()
	}
	if s.done != nil {
		s.worker.Submit(0, s.done)
	}
	e.retireSend(s)
}

// SendAM sends an eager active message from the communication thread
// (blocking MPI_Send; §4.2.1). data is copied before the call returns.
func (e *Engine) SendAM(tag core.Tag, remote int, data []byte) {
	s := e.newSend(tag, remote, data)
	e.Submit(e.w.Config().SendCost(int64(len(data))), s.run)
}

// SendAMMT sends an active message from a worker thread. The call serializes
// through the MPI global lock (MPI_THREAD_MULTIPLE), which is why the paper
// finds multithreaded sends "generally neutral or negatively impacted" on
// the MPI backend (§6.4.3).
func (e *Engine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	s := e.newSend(tag, remote, data)
	s.worker, s.done = worker, done
	e.rank.LockedSubmit(e.w.Config().SendCost(int64(len(data))), s.run)
	e.schedule()
}

// Put starts the emulated one-sided transfer (§4.2.2). Must run on the
// communication thread.
func (e *Engine) Put(a core.PutArgs) {
	local, ok := e.BeginPut(a)
	if !ok {
		return
	}
	dataTag := e.NextDataTag()

	// The handshake is marshalled straight into its send record.
	hs := e.newSend(handshakeTag, a.Remote, nil)
	hs.buf = core.PutHeader{
		RReg: a.RReg, RDispl: a.RDispl, Size: a.Size,
		DataTag: int32(dataTag), RTag: a.RTag, RCBData: a.RCBData,
	}.AppendTo(hs.buf)
	e.Submit(e.w.Config().SendCost(int64(len(hs.buf))), hs.run)

	if len(e.xfer) < e.cfg.MaxTransfers {
		e.postDataSend(local, a.Remote, dataTag, a.LocalCB, a.Size)
	} else {
		// §4.2.2: insufficient space in the global array defers the send.
		e.Deferred.Inc()
		e.pending = append(e.pending, pendingOp{
			kind: pendingSend, data: local, dst: a.Remote, dataTag: dataTag,
			localCB: a.LocalCB, size: a.Size,
		})
	}
	e.schedule()
}

// newSlot takes a transfer slot record.
func (e *Engine) newSlot() *xferSlot {
	s := e.slots.Get()
	if s == nil {
		s = &xferSlot{e: e}
		s.post, s.dispatch = s.postTransfer, s.runRemoteCompletion
	}
	s.live = true
	return s
}

// retireSlot frees the slot's completed request and recycles the slot.
func (e *Engine) retireSlot(s *xferSlot) {
	if !s.live {
		panic("mpice: transfer slot used after retirement")
	}
	if s.req != nil {
		s.req.Free()
	}
	*s = xferSlot{e: e, post: s.post, dispatch: s.dispatch, rcbData: s.rcbData[:0]}
	e.slots.Put(s)
}

func (e *Engine) postDataSend(data buf.Buf, dst, dataTag int, localCB func(), size int64) {
	// Reserve the array slot synchronously so concurrent refills cannot
	// overshoot MaxTransfers; the Isend itself is charged to the thread.
	s := e.newSlot()
	s.isSend, s.data, s.dst, s.dataTag, s.localCB, s.size = true, data, dst, dataTag, localCB, size
	e.xfer = append(e.xfer, s)
	e.Submit(e.w.Config().SendCost(size), s.post)
}

// postTransfer is the slot's deferred posting step on the communication
// thread: the data Isend at the put's origin, the matching Irecv at its
// target.
func (s *xferSlot) postTransfer() {
	if !s.live {
		panic("mpice: transfer slot used after retirement")
	}
	e := s.e
	if s.isSend {
		if s.done {
			// Purged by a dead-peer eviction before the Isend was posted.
			return
		}
		s.req = e.rank.Isend(s.data, s.dst, s.dataTag)
		e.schedule()
		return
	}
	s.req = e.rank.Irecv(s.data, s.src, s.dataTag)
	if len(e.xfer) < e.cfg.MaxTransfers {
		e.xfer = append(e.xfer, s)
	} else {
		// Posted but unpolled until promoted (§4.2.2).
		e.Deferred.Inc()
		e.pending = append(e.pending, pendingOp{kind: pendingPromote, slot: s})
	}
	e.schedule()
}

// onHandshake is the handshake AM callback at the put target: it posts the
// matching receive, into the global array if there is room and onto a
// dynamically allocated request otherwise (§4.2.2).
func (e *Engine) onHandshake(_ core.Engine, _ core.Tag, data []byte, src int) {
	h, ok := e.Handshake(data, src)
	if !ok {
		return
	}
	s := e.newSlot()
	s.data = e.Lookup(h.RReg).Slice(h.RDispl, h.Size)
	s.dataTag, s.src, s.size = int(h.DataTag), src, h.Size
	s.rtag, s.rcbData = h.RTag, append(s.rcbData, h.RCBData...)
	e.Submit(e.w.Config().RecvCost(h.Size), s.post)
}

// schedule arranges one progress pass on the communication thread if none is
// queued. It is the backend's analogue of the §4.2.3 progress loop: each
// pass charges the Testsome cost for the whole global array plus the staged
// matching work, then collects and dispatches completions.
func (e *Engine) schedule() {
	if e.progressScheduled {
		return
	}
	e.progressScheduled = true
	nreq := len(e.amSlots) + len(e.xfer)
	cost := e.rank.ProgressCost() + e.w.Config().TestCost(nreq)
	e.Submit(cost, e.runPassFn)
}

func (e *Engine) runPass() {
	e.progressScheduled = false
	e.progressPasses.Inc()

	// Assemble the global array: persistent AM requests first, then data
	// transfers ("of length 5 x Nam + 30", §4.2.3). Only the second part
	// changes between passes, and index i of the array is amSlots[i] or
	// xfer[i-nAM]: completions are dispatched, not run, inside the loop, so
	// neither slice moves under it.
	nAM := len(e.amSlots)
	for _, s := range e.xfer {
		e.reqs = append(e.reqs, s.req)
	}

	idxs := e.rank.Testsome(e.reqs)
	for _, i := range idxs {
		if i < nAM {
			e.dispatchAM(e.amSlots[i])
		} else if s := e.xfer[i-nAM]; !s.done { // eviction may have abandoned the slot
			e.completeXfer(s)
		}
	}
	// The pass's transfer requests leave the scratch array: one that
	// completed is freed at compaction, and a stale entry would pin it.
	clear(e.reqs[nAM:])
	e.reqs = e.reqs[:nAM]
	if len(idxs) > 0 {
		// Compact the array (free entries at the back) and fill freed space
		// from the deferred FIFO.
		e.compact()
		e.refill()
		// "If no communications were completed ... the progress function
		// returns; otherwise, it repeats" (§4.2.3).
		e.schedule()
	}
}

func (e *Engine) dispatchAM(s *amSlot) {
	e.AMsDelivered.Inc()
	// The callback and the persistent-receive re-arm both execute on the
	// communication thread; while they run, no Testsome happens — the
	// §4.3 head-of-line blocking.
	e.Submit(e.cfg.DispatchCost, s.step)
}

// next runs a delivery's next deferred step: the callback, then the re-arm.
func (s *amSlot) next() {
	if s.delivered {
		s.delivered = false
		s.restart()
		return
	}
	s.delivered = true
	s.runCallback()
}

// runCallback hands the received payload to the tag's callback. The request's
// status and message stay as Testsome left them until restart re-arms it. A
// message longer than the tag was registered for — the library cut it to the
// receive's capacity — is a protocol violation by the sending engine: it fails
// this engine instead of reaching the callback cut short.
func (s *amSlot) runCallback() {
	e, st, data := s.e, s.req.Status, s.req.Data()
	if st.Size > data.Size {
		e.Fail(st.Source, core.AMTooLong("mpice", e.Rank(), s.tag, st.Size, data.Size, st.Source))
	} else {
		s.cb(e, s.tag, data.Bytes, st.Source)
	}
	e.Submit(e.w.Config().PostCost, s.step)
}

func (s *amSlot) restart() {
	s.e.rank.Start(&s.req)
	s.e.schedule()
}

func (e *Engine) completeXfer(s *xferSlot) {
	s.done, s.completed = true, true // compaction removes and recycles it
	if s.isSend {
		e.PutsDone.Inc()
		if s.localCB != nil {
			e.Submit(e.cfg.DispatchCost, s.localCB)
		}
		return
	}
	// Data landed: fire the remote completion callback registered for RTag,
	// unless its data is longer than the tag accepts (compaction then retires
	// the slot).
	if s.rcb = e.Callback(s.rtag, int64(len(s.rcbData)), s.src); s.rcb == nil {
		return
	}
	s.dispatching = true
	e.Submit(e.cfg.DispatchCost, s.dispatch)
}

// runRemoteCompletion runs the put's remote completion callback and retires
// the slot: rcbData is only valid during the call.
func (s *xferSlot) runRemoteCompletion() {
	s.rcb(s.e, s.rtag, s.rcbData, s.src)
	s.e.retireSlot(s)
}

func (e *Engine) compact() {
	out := e.xfer[:0]
	for _, s := range e.xfer {
		if !s.done {
			out = append(out, s)
		} else if s.completed && !s.dispatching {
			e.retireSlot(s)
		}
	}
	for i := len(out); i < len(e.xfer); i++ {
		e.xfer[i] = nil
	}
	e.xfer = out
}

// refill starts deferred operations, oldest first, while the global array
// has room. The started ones leave the queue with one copy, and the slots the
// copy vacates are cleared, as purge clears its own: a stale slot would
// keep a started put's data buffer and completion callback, and whatever the
// callback names, alive for as long as the engine.
func (e *Engine) refill() {
	i := 0
	for i < len(e.pending) && len(e.xfer) < e.cfg.MaxTransfers {
		op := e.pending[i]
		i++
		switch op.kind {
		case pendingSend:
			e.postDataSend(op.data, op.dst, op.dataTag, op.localCB, op.size)
		case pendingPromote:
			e.xfer = append(e.xfer, op.slot)
		default:
			panic(fmt.Sprintf("mpice: unknown pending op %d", op.kind))
		}
	}
	kept := copy(e.pending, e.pending[i:])
	clear(e.pending[kept:])
	e.pending = e.pending[:kept]
}
