package mpi

import (
	"slices"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

// takeWire takes a wire record of the given kind.
func (r *Rank) takeWire(kind wireKind) *wire {
	w := r.pool.Get()
	if w == nil {
		w = &wire{}
		w.onTx = w.txDone
	}
	w.live, w.r, w.kind, w.src = true, r, kind, r.me
	return w
}

// newWire takes a wire record for a message of size bytes on the fabric to
// dst.
func (r *Rank) newWire(kind wireKind, dst int, size int64) *wire {
	w := r.takeWire(kind)
	w.msg = fabric.Message{Src: r.me, Dst: dst, Size: size, Meta: w}
	return w
}

// retire returns a consumed wire record to this (the receiving) rank's shard.
func (r *Rank) retire(w *wire) {
	if !w.live {
		panic("mpi: wire record retired twice")
	}
	*w = wire{onTx: w.onTx, data: w.data[:0]}
	r.pool.Put(w)
}

// txDone is the fabric OnTx of a rendezvous data message: the source buffer
// is drained, so a local completion is staged for the next Testsome to
// observe. It is the sender's last touch of the record.
func (w *wire) txDone() {
	r := w.r
	d := r.takeWire(wireSendDone)
	d.sreq = w.sreq
	r.stage(d)
}

func (r *Rank) newRequest() *Request {
	q := r.reqs.Get()
	if q == nil {
		q = &Request{}
	}
	return q
}

// sendEager puts a copy of b on the wire (eager semantics: the copy lives in
// the wire record, so the sender may reuse its buffer): the send is locally
// complete at once.
func (r *Rank) sendEager(b buf.Buf, dst, tag int) {
	r.sent.Inc()
	w := r.newWire(wireEager, dst, b.Size+r.w.cfg.HeaderBytes)
	w.tag, w.size, w.payload = tag, b.Size, buf.Snapshot(&w.data, b)
	r.w.fab.Send(&w.msg)
}

// Isend starts a nonblocking send of b to dst with the given tag and returns
// its request. Eager-sized payloads are buffered and the request completes
// immediately (the wire transfer proceeds in the background); larger
// payloads follow the rendezvous protocol and complete when the NIC has
// drained the source buffer. The caller charges Config.SendCost.
func (r *Rank) Isend(b buf.Buf, dst, tag int) *Request {
	q := r.newRequest()
	*q = Request{r: r, kind: reqSend, active: true, dst: dst, tag: tag, size: b.Size, b: b}
	if b.Size <= r.w.cfg.EagerThreshold {
		r.sendEager(b, dst, tag)
		q.done = true
		return q
	}
	// Rendezvous: advertise with an RTS; data moves when the target matches.
	r.sent.Inc()
	r.isendsInFlight.Add(1)
	w := r.newWire(wireRTS, dst, r.w.cfg.CtrlBytes)
	w.tag, w.size, w.sreq = tag, b.Size, q
	r.w.fab.Send(&w.msg)
	return q
}

// Send is the blocking send used for active messages. PaRSEC only ever
// blocks on eager-sized messages (§4.2.1: "Active message sizes typically
// fall within the range where MPI implementations will use an eager
// protocol"), so Send requires an eager-sized payload and completes
// immediately, with no request to collect; a rendezvous-sized payload panics
// to surface the misuse, since truly blocking would deadlock a polling-based
// caller.
func (r *Rank) Send(b buf.Buf, dst, tag int) {
	if b.Size > r.w.cfg.EagerThreshold {
		panic("mpi: blocking Send beyond the eager threshold")
	}
	r.sendEager(b, dst, tag)
}

// Irecv posts a nonblocking receive into b matching (src, tag); src may be
// AnySource. The caller charges Config.PostCost. If a matching unexpected
// message is already queued it is consumed immediately.
func (r *Rank) Irecv(b buf.Buf, src, tag int) *Request {
	q := r.newRequest()
	*q = Request{r: r, kind: reqRecv, active: true, src: src, tag: tag, b: b}
	r.matchOrPost(q)
	return q
}

// RecvInit makes *q an inactive persistent receive (MPI_Recv_init) for
// messages of up to capacity bytes. Start activates it; the matched message is
// read with Request.Data. The request lives in storage the caller owns, so a
// caller that pre-posts many receives allocates them together; the library
// keeps q's address while the request lives, so *q must not be copied or
// moved.
func (r *Rank) RecvInit(q *Request, capacity int64, src, tag int) {
	if capacity < 0 {
		panic("mpi: negative receive capacity")
	}
	*q = Request{r: r, kind: reqRecv, persistent: true, src: src, tag: tag, capacity: capacity}
}

// Start activates a persistent request (MPI_Start), releasing the message the
// previous activation received; its slab is kept for the next one. The caller
// charges Config.PostCost. Starting an active request or a non-persistent
// request panics.
func (r *Rank) Start(q *Request) {
	if q.kind != reqRecv || !q.persistent {
		panic("mpi: Start supports persistent receives only")
	}
	if q.active {
		panic("mpi: Start on an already-active request")
	}
	q.done = false
	q.awaitingData = false
	q.Status = Status{}
	q.b, q.slab = buf.Buf{}, q.slab[:0]
	r.matchOrPost(q)
}

// DropSlab releases the payload copy a persistent receive keeps across
// activations, for the end of a run; a message it holds stays readable until
// the next Start, and the next message takes a new slab.
func (q *Request) DropSlab() { q.slab = nil }

func (r *Rank) matchOrPost(q *Request) {
	q.active = true
	for i, u := range r.unexpected {
		if !match(q, u.src, u.tag) {
			continue
		}
		r.unexpected = slices.Delete(r.unexpected, i, i+1)
		r.unexpectedHits.Inc()
		r.consume(q, u)
		r.retire(u)
		return
	}
	r.posted = append(r.posted, q)
}

// consume applies a matched arrival to a receive request.
func (r *Rank) consume(q *Request, u *wire) {
	switch u.kind {
	case wireEager:
		q.land(u)
	case wireRTS:
		// Clear the origin to send: the data message will carry q.
		q.awaitingData = true
		w := r.newWire(wireCTS, u.src, r.w.cfg.CtrlBytes)
		w.tag, w.size, w.sreq, w.rreq = u.tag, u.size, u.sreq, q
		r.w.fab.Send(&w.msg)
	default:
		panic("mpi: unexpected wire kind in consume")
	}
}

// land completes receive q with the payload of w: copied into the caller's
// buffer, or for a persistent receive into the request's own slab, cut to the
// declared capacity the way MPI cuts a message to the posted count.
func (q *Request) land(w *wire) {
	if q.persistent {
		p := w.payload
		if p.Size > q.capacity {
			p = p.Slice(0, q.capacity)
		}
		q.b = buf.Snapshot(&q.slab, p)
	} else {
		buf.Copy(q.b, w.payload)
	}
	q.Status = Status{Source: w.src, Tag: w.tag, Size: w.size}
	q.done = true
}

// onArrival is the fabric delivery handler: it stages traffic for the next
// progress pass, modeling a NIC writing completion entries that no software
// has looked at yet.
func (r *Rank) onArrival(m *fabric.Message) {
	r.stage(m.Meta.(*wire))
}

func (r *Rank) stage(w *wire) {
	if !w.live {
		panic("mpi: staging a retired wire record")
	}
	wasEmpty := len(r.staged) == 0
	r.staged = append(r.staged, w)
	if wasEmpty {
		r.notify()
	}
}

// ProgressCost returns the CPU cost of draining the currently staged
// arrivals: matching for every message and eager payload copies.
func (r *Rank) ProgressCost() sim.Duration {
	var d sim.Duration
	scan := sim.Duration(len(r.posted)+len(r.unexpected)) * r.w.cfg.ScanPerEntry
	for _, w := range r.staged {
		switch w.kind {
		case wireSendDone:
			d += r.w.cfg.TestPerReq // trivial CQ entry
		case wireEager:
			d += r.w.cfg.MatchCost + scan + r.w.cfg.copyCost(w.size)
		default:
			d += r.w.cfg.MatchCost + scan
		}
	}
	return d
}

// StagedWork reports whether a progress pass has anything to do.
func (r *Rank) StagedWork() bool { return len(r.staged) > 0 }

// Progress drains staged arrivals: matches eager messages and RTSes against
// posted receives, queues the unmatched as unexpected, reacts to CTSes by
// launching rendezvous data, and completes requests whose data arrived.
// Callers charge ProgressCost (sampled immediately before the call). Real
// MPI implementations only progress the wire inside MPI calls; this method
// is the library-side half of that behavior.
func (r *Rank) Progress() {
	staged := r.staged
	r.staged, r.spare = r.spare[:0], nil
	for _, w := range staged {
		switch w.kind {
		case wireEager, wireRTS:
			if w.kind == wireEager {
				r.received.Inc()
			}
			q := r.findPosted(w.src, w.tag)
			if q == nil {
				// Kept until a matching receive is posted (matchOrPost
				// retires it).
				r.unexpected = append(r.unexpected, w)
				continue
			}
			r.consume(q, w)
		case wireCTS:
			// We are the rendezvous origin: stream the payload. Its OnTx
			// stages the local completion (txDone).
			sreq := w.sreq
			d := r.newWire(wireData, w.src, sreq.size+r.w.cfg.HeaderBytes)
			d.tag, d.size, d.payload, d.sreq, d.rreq = w.tag, sreq.size, sreq.b, sreq, w.rreq
			d.msg.OnTx = d.onTx
			r.w.fab.Send(&d.msg)
		case wireData:
			w.rreq.land(w)
			w.rreq.awaitingData = false
			r.received.Inc()
		case wireSendDone:
			w.sreq.done = true
			r.isendsInFlight.Add(-1)
		}
		r.retire(w)
	}
	clear(staged)
	r.spare = staged[:0]
}

func (r *Rank) findPosted(src, tag int) *Request {
	for i, q := range r.posted {
		if q.done || q.awaitingData {
			continue
		}
		if match(q, src, tag) {
			r.posted = slices.Delete(r.posted, i, i+1)
			return q
		}
	}
	return nil
}

func match(q *Request, src, tag int) bool {
	return (q.src == AnySource || q.src == src) && q.tag == tag
}

// Testsome runs a progress pass and then collects every completed request
// in reqs, returning their indices. Persistent requests are deactivated
// until re-Started; others are permanently deactivated. nil entries are
// skipped, following the MPI convention for inactive slots. The returned
// slice is the rank's scratch, valid until the next Testsome. Callers charge
// ProgressCost() + TestCost(len(reqs)).
func (r *Rank) Testsome(reqs []*Request) []int {
	r.Progress()
	out := r.testOut[:0]
	for i, q := range reqs {
		if q == nil || !q.active || !q.done {
			continue
		}
		q.active = false
		out = append(out, i)
	}
	r.testOut = out
	return out
}

// LockedSubmit routes a multithreaded MPI call through the library's global
// lock: fn runs after cost plus any queueing delay behind other concurrent
// callers. This is the MPI_THREAD_MULTIPLE serialization the paper cites
// ([24]) as a reason PaRSEC funnels communication through one thread.
func (r *Rank) LockedSubmit(cost sim.Duration, fn func()) {
	r.lock.Submit(r.w.cfg.LockHold+cost, fn)
}

// LockQueue exposes the current depth of the global-lock queue (for tests
// and contention experiments).
func (r *Rank) LockQueue() int { return r.lock.QueueLen() }
