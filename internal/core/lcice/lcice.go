// Package lcice is the LCI backend of the PaRSEC communication engine,
// implementing Section 5.3 of the paper:
//
//   - a dedicated progress thread calls LCI progress: it drains hardware
//     completion queues, matches direct traffic, answers rendezvous
//     handshakes, and runs LCI-level completion handlers. Active-message
//     callbacks therefore never block wire progress (§5.3.1);
//   - active messages go through a tag→callback hash table; receive buffers
//     are allocated dynamically by LCI at the destination, with no posted
//     receives and no message matching (§5.3.2);
//   - the put is a specialized handshake (bypassing the AM hash-table
//     lookup) followed by an LCI Direct transfer; sufficiently small data
//     rides inside the handshake itself, skipping the data transfer
//     entirely (§5.3.3);
//   - when the progress thread cannot post a matching Direct receive
//     (LCI back-pressure, ErrRetry), the post is delegated to the
//     communication thread rather than retried in the handler (§5.3.3);
//   - completions are consumed by the communication thread from two FIFO
//     queues — up to five active-message completions, then all bulk-data
//     completions, looping until both drain (§5.3.4).
package lcice

import (
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/lci"
	"amtlci/internal/sim"
)

// Tag-space layout on the LCI endpoint: user AM tags map to themselves,
// the put handshake uses hsTag, and Direct data transfers draw from
// core.Base's data-tag range (Direct matching is a separate protocol path,
// but keeping the ranges disjoint makes traces readable).
const (
	hsTag = -2
	// inlineDataTag marks a handshake whose data arrived inside it.
	inlineDataTag = -1
)

// Config holds the backend's structural parameters.
type Config struct {
	// CommWake and ProgWake model the wake-up granularity of the
	// communication and progress threads.
	CommWake sim.Duration
	ProgWake sim.Duration
	// DispatchCost is the per-completion dispatch cost on the communication
	// thread (pop from FIFO, argument setup).
	DispatchCost sim.Duration
	// AMBatch bounds how many active-message completions are processed
	// before the bulk queue gets a turn (five in the paper, §5.3.4).
	AMBatch int
	// EagerPutMax is the largest put payload carried inside the handshake
	// (§5.3.3). It must leave room for the header within the LCI Buffered
	// limit.
	EagerPutMax int64
	// InlineProgress runs LCI progress on the communication thread instead
	// of a dedicated progress thread — an ablation that removes the
	// paper's key structural change (§5.3.1).
	InlineProgress bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		CommWake:       150 * sim.Nanosecond,
		ProgWake:       80 * sim.Nanosecond,
		DispatchCost:   90 * sim.Nanosecond,
		AMBatch:        5,
		EagerPutMax:    8 << 10,
		InlineProgress: false,
	}
}

// handle is a callback handle pushed to the shared FIFO queues (§5.3.2:
// "allocated from a memory pool and filled with information specific to the
// active message"). It describes one dispatch on the communication thread —
// an active-message or remote-completion callback (cb), or a put's local
// completion (localCB) — and is retired into e.handles when that dispatch has
// run. data is the handle's own copy of the callback payload, kept across
// uses: the callback sees it only for the duration of the call.
type handle struct {
	e       *Engine
	live    bool // between newHandle and its dispatch
	cb      core.AMCallback
	tag     core.Tag
	src     int
	data    []byte
	localCB func()

	run func() // h.dispatch
}

// opKind selects what a sendOp issues.
type opKind int8

const (
	opEager    opKind = iota // Immediate/Buffered active message (or put handshake)
	opEagerPut               // handshake with the put data inside (Sendmx)
	opData                   // Direct send of put data
	opRecv                   // Direct receive matching a put handshake
)

// sendOp is one LCI operation the engine issues on behalf of SendAM, Put or a
// put handshake: the deferred step that issues it (issue, the Submit body)
// and the attempt itself (try), which the retry queue repeats on
// back-pressure. The record is retired into e.ops once the operation was
// accepted by LCI, or found pointless (engine failed, peer evicted).
type sendOp struct {
	e      *Engine
	live   bool // between newOp and retireOp
	kind   opKind
	remote int
	tag    int     // AM tag, or the Direct data tag
	buf    []byte  // the record's own copy of the AM payload / put header
	local  buf.Buf // put source (sends) or registered target (opRecv)
	h      *handle // completion handle travelling as the LCI user context
	// opEagerPut: the put's local completion.
	localCB func()
	// SendAMMT only: the worker's continuation.
	done func()

	issue func() // o.run
}

// Engine is the per-rank LCI communication engine.
type Engine struct {
	core.Base
	eng  *sim.Engine
	rt   *lci.Runtime
	ep   *lci.Endpoint
	cfg  Config
	prog *sim.Proc

	amQ   []*handle
	bulkQ []*handle
	// deferred holds operations that hit ErrRetry and retry on the
	// communication thread (§5.3.3), in issue order.
	deferred []*sendOp

	// Free lists of the engine's records, run-scoped (ReleaseRunState); the
	// LCI completion handlers and the thread bodies are bound once (a method
	// value made per call would allocate).
	handles         sim.FreeList[handle]
	ops             sim.FreeList[sendOp]
	putSent         lci.Handler
	putLanded       lci.Handler
	runProgressFn   func()
	drainFn         func()
	scheduleDrainFn func()

	drainScheduled bool
	progScheduled  bool
}

var _ core.Engine = (*Engine)(nil)

// New builds the engine for rank over the LCI runtime rt. Its instruments
// (active-message and put counters, comm/progress-thread utilization,
// deferred and FIFO queue depths) go in the runtime's registry.
func New(eng *sim.Engine, rt *lci.Runtime, rank int, cfg Config) *Engine {
	if cfg.AMBatch <= 0 {
		panic("lcice: AMBatch must be positive")
	}
	e := &Engine{eng: eng, rt: rt, ep: rt.Endpoint(rank), cfg: cfg}
	reg := rt.Metrics()
	e.Init(eng, "lcice", rank, rt.Size(), reg, e.purge, nil)
	e.CommProc().WakeLatency = cfg.CommWake
	if cfg.InlineProgress {
		e.prog = e.CommProc()
	} else {
		e.prog = sim.NewProc(eng)
		e.prog.WakeLatency = cfg.ProgWake
	}
	reg.Probe("lcice", "prog_busy", rank, true, func() float64 { return e.prog.BusyTime().Seconds() })
	reg.Probe("lcice", "deferred_queue_depth", rank, false, func() float64 { return float64(len(e.deferred)) })
	reg.Probe("lcice", "am_queue_depth", rank, false, func() float64 { return float64(len(e.amQ)) })
	reg.Probe("lcice", "bulk_queue_depth", rank, false, func() float64 { return float64(len(e.bulkQ)) })
	e.putSent, e.putLanded = e.onPutSent, e.onPutLanded
	e.runProgressFn, e.drainFn, e.scheduleDrainFn = e.runProgress, e.drain, e.scheduleDrain
	e.ep.SetWake(e.scheduleProgress)
	e.ep.SetMsgComp(lci.Handler(e.onMsg))
	e.ep.SetErrHandler(e.TransportError)
	return e
}

// ProgProc returns the progress thread (the communication thread when
// InlineProgress is set).
func (e *Engine) ProgProc() *sim.Proc { return e.prog }

// purge is the engine's purge rule (core.Base): every queued retry headed
// for peer is dropped, on a failure and an eviction alike. Left queued, they
// could never succeed and would keep the retry queue (and the safety-net
// timer) alive forever.
func (e *Engine) purge(peer int, _ bool) {
	kept := e.deferred[:0]
	for _, op := range e.deferred {
		if op.remote == peer {
			continue
		}
		kept = append(kept, op)
	}
	clear(e.deferred[len(kept):])
	e.deferred = kept
}

// ReleaseRunState drops the engine's run-scoped records (core.Engine): its
// handle and operation free lists and its LCI endpoint's.
func (e *Engine) ReleaseRunState() {
	e.handles.Drop()
	e.ops.Drop()
	e.ep.DropRecords()
}

// newOp takes an operation record toward remote.
func (e *Engine) newOp(kind opKind, remote int) *sendOp {
	o := e.ops.Get()
	if o == nil {
		o = &sendOp{e: e}
		o.issue = o.run
	}
	o.live, o.kind, o.remote = true, kind, remote
	return o
}

func (e *Engine) retireOp(o *sendOp) {
	if !o.live {
		panic("lcice: operation record used after retirement")
	}
	*o = sendOp{e: e, issue: o.issue, buf: o.buf[:0]}
	e.ops.Put(o)
}

// newHandle takes a FIFO handle.
func (e *Engine) newHandle() *handle {
	h := e.handles.Get()
	if h == nil {
		h = &handle{e: e}
		h.run = h.dispatch
	}
	h.live = true
	return h
}

// dispatch runs the handle's callback on the communication thread and retires
// the handle.
func (h *handle) dispatch() {
	if !h.live {
		panic("lcice: callback handle used after retirement")
	}
	e := h.e
	switch {
	case h.cb != nil:
		h.cb(e, h.tag, h.data, h.src)
	case h.localCB != nil:
		h.localCB()
	}
	e.retireHandle(h)
}

func (e *Engine) retireHandle(h *handle) {
	*h = handle{e: e, run: h.run, data: h.data[:0]}
	e.handles.Put(h)
}

// try issues the operation once; lci.ErrRetry means back-pressure.
func (o *sendOp) try() error {
	if !o.live {
		panic("lcice: operation record used after retirement")
	}
	e := o.e
	switch o.kind {
	case opEager:
		b := buf.FromBytes(o.buf)
		if b.Size <= e.rt.Config().ImmediateMax {
			return e.ep.Sends(o.remote, o.tag, b)
		}
		return e.ep.Sendm(o.remote, o.tag, b)
	case opEagerPut:
		if err := e.ep.Sendmx(o.remote, hsTag, buf.FromBytes(o.buf), o.local); err != nil {
			return err
		}
		// The local completion fires as soon as the send is posted.
		e.PutsDone.Inc()
		if o.localCB != nil {
			e.Submit(0, o.localCB)
		}
		return nil
	case opData:
		return e.ep.Sendd(o.remote, o.tag, o.local, e.putSent, o.h)
	case opRecv:
		return e.ep.Recvd(o.remote, o.tag, o.local, e.putLanded, o.h)
	}
	panic(fmt.Sprintf("lcice: unknown operation kind %d", o.kind))
}

// run is the deferred body of an operation: on the communication thread, or
// for SendAMMT on the calling worker, whose continuation runs afterwards. An
// active message counts as sent once it was attempted (a deferred one will
// go out), not when the engine has failed or evicted its peer.
func (o *sendOp) run() {
	e, done := o.e, o.done
	am := o.kind == opEager && o.tag != hsTag
	sent := am && !e.Drops(o.remote)
	e.attempt(o)
	if sent {
		e.AMsSent.Inc()
	}
	if done != nil {
		done()
	}
}

// attempt issues o, honoring back-pressure and the deferred queue's FIFO
// discipline: once one operation has been deferred, every later operation
// queues behind it instead of stealing the resources its retry is waiting
// for (the starvation the §5.3.3 delegation would otherwise allow). Safe
// because in-flight LCI operations complete without new engine submissions,
// so the queue head always eventually succeeds. o is retired unless it was
// deferred.
func (e *Engine) attempt(o *sendOp) {
	if e.Drops(o.remote) {
		e.retireOp(o)
		return
	}
	if len(e.deferred) > 0 {
		e.Deferred.Inc()
		e.pushDeferred(o)
		return
	}
	if err := o.try(); err != nil {
		if err == lci.ErrRetry {
			e.Deferred.Inc()
			e.pushDeferred(o)
			return
		}
		e.Fail(o.remote, fmt.Errorf("lcice rank %d: send to %d: %w", e.Rank(), o.remote, err))
	}
	e.retireOp(o)
}

// TagReg inserts the callback into the hash table (§5.3.2); nothing is
// posted — LCI allocates receive buffers dynamically — and maxLen is only
// checked against arrivals (onMsg).
func (e *Engine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	if maxLen <= 0 {
		maxLen = e.rt.Config().BufferedMax
	}
	e.Tags.Register(tag, cb, maxLen)
}

// SendAM sends an active message using the Immediate or Buffered protocol
// depending on length (§5.3.2), from the communication thread. data is copied
// before the call returns.
func (e *Engine) SendAM(tag core.Tag, remote int, data []byte) {
	o := e.newOp(opEager, remote)
	o.tag, o.buf = int(tag), append(o.buf, data...)
	e.Submit(e.rt.Config().SendCost(int64(len(data))), o.issue)
}

// SendAMMT sends an active message directly from a worker thread. LCI is
// designed for concurrent callers, so the only extra cost is an atomic
// packet reservation — no global lock (§6.4.3).
func (e *Engine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	o := e.newOp(opEager, remote)
	o.tag, o.buf, o.done = int(tag), append(o.buf, data...), done
	cfg := e.rt.Config()
	worker.Submit(cfg.SendCost(int64(len(data)))+cfg.MTSendCost, o.issue)
}

// Put starts the one-sided transfer with the §5.3.3 handshake emulation.
// Must run on the communication thread.
func (e *Engine) Put(a core.PutArgs) {
	local, ok := e.BeginPut(a)
	if !ok {
		return
	}
	cfg := e.rt.Config()

	if a.Size <= e.cfg.EagerPutMax {
		// Eager-data optimization: the data rides inside the handshake and
		// the local completion fires as soon as the send is posted.
		o := e.newOp(opEagerPut, a.Remote)
		o.buf = core.PutHeader{
			RReg: a.RReg, RDispl: a.RDispl, Size: a.Size,
			DataTag: inlineDataTag, RTag: a.RTag, RCBData: a.RCBData,
		}.AppendTo(o.buf)
		o.local, o.localCB = local, a.LocalCB
		e.Submit(cfg.SendCost(int64(len(o.buf))+a.Size), o.issue)
		return
	}

	dataTag := e.NextDataTag()
	hs := e.newOp(opEager, a.Remote)
	hs.tag = hsTag
	hs.buf = core.PutHeader{
		RReg: a.RReg, RDispl: a.RDispl, Size: a.Size,
		DataTag: int32(dataTag), RTag: a.RTag, RCBData: a.RCBData,
	}.AppendTo(hs.buf)
	e.Submit(cfg.SendCost(int64(len(hs.buf))), hs.issue)
	// The Direct send's completion handler (onPutSent) runs on the progress
	// thread; it only pushes the callback handle to the bulk FIFO (§5.3.3).
	o := e.newOp(opData, a.Remote)
	o.tag, o.local = dataTag, local
	o.h = e.newHandle()
	o.h.localCB = a.LocalCB
	e.Submit(cfg.PostCost, o.issue)
}

// onPutSent is the LCI completion of a put's data transfer at the origin
// (progress thread): the handle travelling as user context carries LocalCB.
func (e *Engine) onPutSent(r lci.Request) {
	e.PutsDone.Inc()
	e.pushBulk(r.UserCtx.(*handle))
}

// onMsg is the LCI message handler, invoked on the progress thread for every
// dynamically-buffered arrival: user active messages and put handshakes.
func (e *Engine) onMsg(r lci.Request) {
	if r.Tag != hsTag {
		// User AM: allocate a callback handle and push it to the AM FIFO
		// (§5.3.2). The hash-table lookup happens here, on the progress
		// thread, so the communication thread only dispatches.
		cb := e.Callback(core.Tag(r.Tag), r.Data.Size, r.Rank)
		if cb == nil {
			return
		}
		h := e.newHandle()
		h.tag, h.src, h.cb = core.Tag(r.Tag), r.Rank, cb
		h.data = append(h.data, r.Data.Bytes...)
		e.AMsDelivered.Inc()
		e.pushAM(h)
		return
	}

	// Put handshake: specialized path bypassing the AM hash table (§5.3.3).
	// One from an evicted peer is dropped: its data transfer will never
	// arrive (the fabric silenced the rank), so posting the matching receive
	// would dangle forever.
	h, ok := e.Handshake(r.Data.Bytes, r.Rank)
	if !ok {
		return
	}
	target := e.Lookup(h.RReg).Slice(h.RDispl, h.Size)
	done := e.remoteCompletion(h.RTag, h.RCBData, r.Rank)

	if h.DataTag == inlineDataTag {
		// Data arrived inside the handshake.
		buf.Copy(target, r.Extra)
		e.onPutLanded(lci.Request{UserCtx: done})
		return
	}

	// §5.3.3: on back-pressure the progress thread must not spin or recurse
	// into progress; attempt delegates the post to the communication
	// thread's retry queue (and keeps it FIFO with earlier deferrals).
	o := e.newOp(opRecv, r.Rank)
	o.tag, o.local, o.h = int(h.DataTag), target, done
	e.attempt(o)
}

// remoteCompletion fills a handle for the remote-completion callback of a put
// from src; rcbData is copied.
func (e *Engine) remoteCompletion(rtag core.Tag, rcbData []byte, src int) *handle {
	h := e.newHandle()
	h.tag, h.src = rtag, src
	h.data = append(h.data, rcbData...)
	return h
}

// onPutLanded is the LCI completion of a put's data at the target (progress
// thread): it resolves the remote-completion callback and pushes the handle
// to the bulk FIFO for the communication thread. Completion data longer than
// the tag accepts fails the engine instead, and the handle is retired.
func (e *Engine) onPutLanded(r lci.Request) {
	h := r.UserCtx.(*handle)
	if h.cb = e.Callback(h.tag, int64(len(h.data)), h.src); h.cb == nil {
		e.retireHandle(h)
		return
	}
	e.pushBulk(h)
}

func (e *Engine) pushAM(h *handle) {
	e.amQ = append(e.amQ, h)
	e.scheduleDrain()
}

func (e *Engine) pushBulk(h *handle) {
	e.bulkQ = append(e.bulkQ, h)
	e.scheduleDrain()
}

func (e *Engine) pushDeferred(o *sendOp) {
	e.deferred = append(e.deferred, o)
	e.scheduleDrain()
}

// scheduleProgress arranges an LCI progress pass on the progress thread.
func (e *Engine) scheduleProgress() {
	if e.progScheduled {
		return
	}
	e.progScheduled = true
	e.prog.Submit(e.ep.ProgressCost(), e.runProgressFn)
}

func (e *Engine) runProgress() {
	e.progScheduled = false
	e.ep.Progress()
	if e.ep.StagedWork() {
		e.scheduleProgress()
	}
}

// scheduleDrain arranges a communication-thread drain pass.
func (e *Engine) scheduleDrain() {
	if e.drainScheduled {
		return
	}
	e.drainScheduled = true
	e.Submit(0, e.drainFn)
}

// drain implements the §5.3.4 fairness loop: up to AMBatch active-message
// completions, then all bulk completions, repeating until both queues are
// empty. Retry-deferred operations are attempted between rounds.
func (e *Engine) drain() {
	e.drainScheduled = false

	n := len(e.amQ)
	if n > e.cfg.AMBatch {
		n = e.cfg.AMBatch
	}
	for _, h := range e.amQ[:n] {
		e.Submit(e.cfg.DispatchCost, h.run)
	}
	rest := copy(e.amQ, e.amQ[n:])
	clear(e.amQ[rest:])
	e.amQ = e.amQ[:rest]

	for _, h := range e.bulkQ {
		e.Submit(e.cfg.DispatchCost, h.run)
	}
	clear(e.bulkQ)
	e.bulkQ = e.bulkQ[:0]

	// Retry deferred operations in arrival order. Snapshot first: a retried
	// operation may itself defer follow-up work (pushDeferred during fn),
	// and that new work must land BEHIND the still-unsatisfied retries —
	// rebuilding the queue as [failed retries, then new deferrals] keeps it
	// FIFO by first-deferral time. A non-back-pressure error aborts.
	pend := e.deferred
	e.deferred = nil
	var kept []*sendOp
	for _, op := range pend {
		if e.Err() != nil {
			break
		}
		err := op.try()
		if err == lci.ErrRetry {
			kept = append(kept, op)
			continue
		}
		if err != nil {
			e.Fail(op.remote, fmt.Errorf("lcice rank %d: deferred send to %d: %w", e.Rank(), op.remote, err))
		}
		e.retireOp(op)
	}
	if e.Err() == nil {
		e.deferred = append(kept, e.deferred...)
	}

	if len(e.amQ) > 0 || len(e.bulkQ) > 0 {
		// Loop: queue another pass behind the dispatched callbacks.
		e.scheduleDrain()
	} else if len(e.deferred) > 0 {
		// Nothing dispatchable but retries remain: try again shortly rather
		// than spinning (resources free when completions arrive, which
		// wakes us anyway; this is a safety net).
		e.eng.After(sim.Microsecond, e.scheduleDrainFn)
	}
}
