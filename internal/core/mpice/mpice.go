// Package mpice is the MPI backend of the PaRSEC communication engine,
// implementing Section 4.2 of the paper:
//
//   - active messages are received through a fixed number of persistent
//     receives per registered tag (five, §4.2.1), started with wildcard
//     source and re-enabled after each callback. The requests are what the
//     model charges for (every Testsome scans all of them); their buffers are
//     a declared capacity that the library backs only while a message sits in
//     one, so registering a tag costs the host five small records, not
//     5 x maxLen bytes;
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
	"errors"
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

// dataTagBase starts the tag range used for put data transfers, disjoint
// from active-message tags.
const dataTagBase = 1 << 24

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

	// UseRMA transports put data with MPI_Put on a dynamic window instead
	// of the §4.2.2 two-sided emulation — the option the paper leaves as
	// future work. Remote completion still needs an explicit notification
	// message (standard MPI RMA cannot express it), and every registration
	// pays the dynamic-window attach/detach costs of [25].
	UseRMA bool

	// Metrics is the registry the engine registers its instruments in
	// (active-message and put counters, comm-thread utilization, deferred-queue and
	// transfer-array depth, progress passes). Nil gets a private registry;
	// stack.Build shares one across every layer.
	Metrics *metrics.Registry
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
	eng  *sim.Engine
	w    *mpi.World
	rank *mpi.Rank
	cfg  Config
	comm *sim.Proc

	tags *core.TagTable
	reg  *core.Registry

	amSlots []*amSlot
	xfer    []*xferSlot
	pending []pendingOp

	// reqs is the global request array Testsome scans: the persistent
	// receives of amSlots, appended once at TagReg, then the requests of xfer,
	// re-appended behind them on every pass.
	reqs []*mpi.Request

	// Free lists of the engine's deferred-step records, and runPass bound
	// once: a method value made per schedule() call would allocate.
	sends     sim.FreeList[sendRec]
	slots     sim.FreeList[xferSlot]
	runPassFn func()

	progressScheduled bool
	nextDataTag       int32

	// Engine activity counters (metrics registry, layer "mpice"); deferred
	// counts operations that could not start immediately.
	amsSent, amsDelivered    *metrics.Counter
	putsStarted, putsDone    *metrics.Counter
	putBytes, deferredEvents *metrics.Counter
	progressPasses           *metrics.Counter

	errFn     func(error)
	failed    error
	deadPeers map[int]bool
}

var _ core.Engine = (*Engine)(nil)

// New builds the engine for rank over world w. The engine installs itself as
// the rank's wake target; one engine per rank.
func New(eng *sim.Engine, w *mpi.World, rank int, cfg Config) *Engine {
	if cfg.PersistentPerTag <= 0 || cfg.MaxTransfers <= 0 {
		panic("mpice: PersistentPerTag and MaxTransfers must be positive")
	}
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.New()
	}
	e := &Engine{
		eng:  eng,
		w:    w,
		rank: w.Rank(rank),
		cfg:  cfg,
		comm: sim.NewProc(eng),
		tags: core.NewTagTable(),
		reg:  core.NewRegistry(rank),

		amsSent:        mreg.Counter("mpice", "ams_sent", rank),
		amsDelivered:   mreg.Counter("mpice", "ams_delivered", rank),
		putsStarted:    mreg.Counter("mpice", "puts_started", rank),
		putsDone:       mreg.Counter("mpice", "puts_done", rank),
		putBytes:       mreg.Counter("mpice", "put_bytes", rank),
		deferredEvents: mreg.Counter("mpice", "deferred", rank),
		progressPasses: mreg.Counter("mpice", "progress_passes", rank),
	}
	mreg.Probe("mpice", "comm_busy", rank, true, func() float64 { return e.comm.BusyTime().Seconds() })
	mreg.Probe("mpice", "deferred_queue_depth", rank, false, func() float64 { return float64(len(e.pending)) })
	mreg.Probe("mpice", "xfer_depth", rank, false, func() float64 { return float64(len(e.xfer)) })
	e.comm.WakeLatency = cfg.WakeLatency
	e.runPassFn = e.runPass
	e.rank.SetWake(e.schedule)
	e.rank.SetErrHandler(func(peer int, err error) {
		werr := fmt.Errorf("mpice rank %d: %w", rank, err)
		var pd core.PeerDeath
		if errors.As(err, &pd) {
			e.evictPeer(pd.DeadPeer(), werr)
			return
		}
		e.fail(peer, werr)
	})
	// The engine registers its put handshake like any other active message
	// (§4.2.2: "The origin process of the put sends an active message...").
	e.TagReg(handshakeTag, e.onHandshake, 0)
	return e
}

// Rank returns this engine's rank.
func (e *Engine) Rank() int { return e.rank.ID() }

// Size returns the job size.
func (e *Engine) Size() int { return e.w.Size() }

// CommProc returns the communication thread.
func (e *Engine) CommProc() *sim.Proc { return e.comm }

// OnError registers the failure handler; the latest registration wins and a
// nil fn is ignored (core.Engine semantics).
func (e *Engine) OnError(fn func(error)) {
	if fn != nil {
		e.errFn = fn
	}
}

// Err returns the first unrecoverable failure, or nil.
func (e *Engine) Err() error { return e.failed }

// notify hands err to the registered handler, or panics without one —
// silence would be a hang.
func (e *Engine) notify(err error) {
	if e.errFn == nil {
		panic(err)
	}
	e.errFn(err)
}

// fail records the first unrecoverable failure and notifies the handler.
// Deferred sends headed for the dead peer are purged so the refill loop does
// not keep feeding traffic into a black hole; peer < 0 means the failure is
// not attributable to one peer.
func (e *Engine) fail(peer int, err error) {
	if e.failed != nil {
		return
	}
	e.failed = err
	if peer >= 0 {
		e.purgePending(peer)
	}
	e.notify(err)
}

// evictPeer handles a whole-rank death verdict (core.PeerDeath): traffic
// toward the dead peer is dropped from now on and every in-flight transfer
// involving it is abandoned, but the engine keeps serving the survivors —
// it does NOT enter the failed state. The registered handler still hears
// about the death so a recovery layer can re-map the dead rank's work.
func (e *Engine) evictPeer(peer int, err error) {
	if e.failed != nil || e.deadPeers[peer] {
		return
	}
	if e.deadPeers == nil {
		e.deadPeers = make(map[int]bool)
	}
	e.deadPeers[peer] = true
	e.purgePending(peer)
	// Abandon global-array transfers involving the peer: a send's data would
	// vanish on the wire; a receive's data will never arrive. Marking them
	// done frees their slots at the next compaction, and their completion
	// callbacks never run (that state belongs to the aborted exchange).
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
	e.notify(err)
}

// purgePending drops deferred operations involving peer: sends toward it
// and promotions of receives posted from it.
func (e *Engine) purgePending(peer int) {
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
}

// MemReg registers b for remote puts. In RMA mode the buffer is also
// attached to the rank's dynamic window, paying the attach cost on the
// communication thread.
func (e *Engine) MemReg(b buf.Buf) core.MemHandle {
	h := e.reg.MemReg(b)
	if e.cfg.UseRMA {
		e.rank.WinAttach(h.ID, b)
		e.Submit(e.w.Config().AttachCost(b.Size), nil)
	}
	return h
}

// MemDereg releases a registration (and detaches the window region in RMA
// mode).
func (e *Engine) MemDereg(h core.MemHandle) {
	if e.cfg.UseRMA {
		e.rank.WinDetach(h.ID)
		e.Submit(e.w.Config().DetachCost, nil)
	}
	e.reg.MemDereg(h)
}

// Lookup resolves a local registration.
func (e *Engine) Lookup(h core.MemHandle) buf.Buf { return e.reg.Lookup(h) }

// TagReg registers an active-message callback and pre-posts its persistent
// receives (§4.2.1), each with room for maxLen bytes.
func (e *Engine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	if maxLen <= 0 {
		maxLen = e.cfg.MaxAMLen
	}
	e.tags.Register(tag, cb, maxLen)
	e.reqs = e.reqs[:len(e.amSlots)] // drop the last pass's transfers
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
	s.live, s.worker, s.done, s.buf = false, nil, nil, buf.KeepSlab(s.buf)
	e.sends.Put(s)
}

// send is the deferred body of SendAM and SendAMMT (blocking eager MPI_Send;
// §4.2.1); a worker's continuation runs once the call has returned to it.
func (s *sendRec) send() {
	e := s.e
	if e.failed == nil && !e.deadPeers[s.remote] {
		e.rank.Send(buf.FromBytes(s.buf), s.remote, int(s.tag))
		e.amsSent.Inc()
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

// Submit runs fn on the communication thread after charging cost.
func (e *Engine) Submit(cost sim.Duration, fn func()) { e.comm.Submit(cost, fn) }

// Put starts the emulated one-sided transfer (§4.2.2). Must run on the
// communication thread.
func (e *Engine) Put(a core.PutArgs) {
	if e.failed != nil || e.deadPeers[a.Remote] {
		return
	}
	e.putsStarted.Inc()
	e.putBytes.Add(uint64(a.Size))
	local := e.reg.Lookup(a.LReg).Slice(a.LDispl, a.Size)

	if e.cfg.UseRMA {
		e.putRMA(a, local)
		return
	}

	e.nextDataTag++
	dataTag := dataTagBase + int(e.nextDataTag)

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
		e.deferredEvents.Inc()
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
	*s = xferSlot{e: e, post: s.post, dispatch: s.dispatch, rcbData: buf.KeepSlab(s.rcbData)}
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
		e.deferredEvents.Inc()
		e.pending = append(e.pending, pendingOp{kind: pendingPromote, slot: s})
	}
	e.schedule()
}

// putRMA transports the data with MPI_Put + flush, then sends the remote
// completion notification as an active message (which standard MPI RMA
// cannot deliver itself).
func (e *Engine) putRMA(a core.PutArgs, local buf.Buf) {
	rcb := append([]byte(nil), a.RCBData...)
	e.Submit(e.w.Config().SendCost(a.Size), func() {
		e.rank.RmaPut(a.Remote, a.RReg.ID, a.RDispl, local, func() {
			// Flush returned (runs during a progress pass on the
			// communication thread): notify both sides.
			e.putsDone.Inc()
			e.SendAM(a.RTag, a.Remote, rcb)
			if a.LocalCB != nil {
				e.comm.Submit(e.cfg.DispatchCost, a.LocalCB)
			}
		})
		e.schedule()
	})
}

// onHandshake is the handshake AM callback at the put target: it posts the
// matching receive, into the global array if there is room and onto a
// dynamically allocated request otherwise (§4.2.2).
func (e *Engine) onHandshake(_ core.Engine, _ core.Tag, data []byte, src int) {
	if e.deadPeers[src] {
		// A handshake that was already in flight when its sender was
		// declared dead; the data will never follow.
		return
	}
	h, err := core.UnmarshalPutHeader(data)
	if err != nil {
		// Handshakes only ever come from a peer engine, so a malformed one
		// means that peer is broken — abort the graph, don't crash the rank.
		e.fail(src, fmt.Errorf("mpice rank %d: bad put handshake from %d: %w", e.Rank(), src, err))
		return
	}
	s := e.newSlot()
	s.data = e.reg.Lookup(h.RReg).Slice(h.RDispl, h.Size)
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
	e.comm.Submit(cost, e.runPassFn)
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
	e.reqs = e.reqs[:nAM]
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
	e.amsDelivered.Inc()
	// The callback and the persistent-receive re-arm both execute on the
	// communication thread; while they run, no Testsome happens — the
	// §4.3 head-of-line blocking.
	e.comm.Submit(e.cfg.DispatchCost, s.step)
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
		e.fail(st.Source, core.AMTooLong("mpice", e.Rank(), s.tag, st.Size, data.Size, st.Source))
	} else {
		s.cb(e, s.tag, data.Bytes, st.Source)
	}
	e.comm.Submit(e.w.Config().PostCost, s.step)
}

func (s *amSlot) restart() {
	s.e.rank.Start(&s.req)
	s.e.schedule()
}

func (e *Engine) completeXfer(s *xferSlot) {
	s.done, s.completed = true, true // compaction removes and recycles it
	if s.isSend {
		e.putsDone.Inc()
		if s.localCB != nil {
			e.comm.Submit(e.cfg.DispatchCost, s.localCB)
		}
		return
	}
	// Data landed: fire the remote completion callback registered for RTag,
	// unless its data is longer than the tag accepts (compaction then retires
	// the slot).
	var maxLen int64
	s.rcb, maxLen = e.tags.Lookup(s.rtag)
	if n := int64(len(s.rcbData)); n > maxLen {
		e.fail(s.src, core.AMTooLong("mpice", e.Rank(), s.rtag, n, maxLen, s.src))
		return
	}
	s.dispatching = true
	e.comm.Submit(e.cfg.DispatchCost, s.dispatch)
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

func (e *Engine) refill() {
	for len(e.pending) > 0 && len(e.xfer) < e.cfg.MaxTransfers {
		op := e.pending[0]
		copy(e.pending, e.pending[1:])
		e.pending = e.pending[:len(e.pending)-1]
		switch op.kind {
		case pendingSend:
			e.postDataSend(op.data, op.dst, op.dataTag, op.localCB, op.size)
		case pendingPromote:
			e.xfer = append(e.xfer, op.slot)
		default:
			panic(fmt.Sprintf("mpice: unknown pending op %d", op.kind))
		}
	}
}
