package fabric

import "amtlci/internal/sim"

// xfer is the pooled per-message transfer state. A message in flight needs
// several deferred steps — egress completion, wire arrival (twice when the
// injector duplicates), receive-engine completion — and expressing each as a
// fresh closure made every Send allocate four to six times. An xfer instead
// carries the message and its timing parameters in reusable fields, with the
// step callbacks bound ONCE when the object is first constructed: recycling
// the xfer recycles its closures, so the steady-state delivery path
// (virtual-payload scheduling in particular) allocates nothing.
//
// Ownership follows the message (DESIGN.md §3). Send takes an xfer from
// the free list of the SOURCE rank's shard; the early steps (loopback, ctlTx,
// bulkTx) run there. The wire hop hands the xfer to the destination shard
// through Domain.CrossAt, whose inbox lock orders everything the source did
// before everything the destination does, and the source never touches the
// xfer again. The remaining steps (ctlRx, bulkWire, bulkRx) run at the
// destination, and the last of them retires the xfer into the free list of
// the DESTINATION rank's shard: a record that crossed the wire is retired by
// the receiver, never returned to the sender. There is one path — an
// intra-shard message is the case where both lists are the same list. The
// lists are per shard and not per port because a record is retired where it
// is delivered: per-port lists would drain on every one-way stream.
//
// Lifecycle: Send arms pending with the number of delivery callbacks that
// will run (0 when the injector drops every copy, in which case the source
// retires the xfer after egress), and the last step retires the object
// *before* invoking the handler — the handler may re-enter Send and reuse it,
// which is safe because the finishing callback never touches the xfer again.
// Whichever step retires the xfer also runs the message's OnDone, after the
// handler returns: from then on the fabric holds no reference to it.
type xfer struct {
	f       *Fabric
	m       *Message
	src     *port
	live    bool // between getXfer and putXfer; a second retire panics
	wire    sim.Duration
	ser     sim.Duration
	copies  int
	dupGap  sim.Duration
	pending int

	// Step callbacks, bound to this object once at construction.
	loopback func()
	ctlTx    func()
	ctlRx    func()
	bulkTx   func()
	bulkWire func()
	bulkRx   func()
}

// shardPool holds the fabric's free lists for the ranks of one shard. Only
// that shard's goroutine touches it.
type shardPool struct {
	xfers sim.FreeList[xfer]
	// corrupt recycles the payload copies made for corrupted messages; a
	// reliability layer that discards a damaged frame hands the buffer back
	// through RecyclePayload.
	corrupt [][]byte
	_       [64]byte // neighbouring shards' pools must not share a cache line
}

func (f *Fabric) getXfer(m *Message) *xfer {
	src := f.ports[m.Src]
	x := src.pool.xfers.Get()
	if x == nil {
		x = &xfer{f: f}
		x.bind()
	}
	x.m = m
	x.src = src
	x.live = true
	return x
}

// putXfer retires x into the free list of at's shard: the destination port
// once a copy was delivered, the source port when the wire lost them all.
func (f *Fabric) putXfer(x *xfer, at *port) {
	if !x.live {
		panic("fabric: transfer state retired twice")
	}
	x.live = false
	x.m = nil
	x.src = nil
	at.pool.xfers.Put(x)
}

// finish retires one delivery copy at the destination: the xfer is released
// before the handler runs so a re-entrant Send can reuse it, and the last
// copy hands the message back to its sender (OnDone) once the handler has
// returned.
func (x *xfer) finish() {
	m := x.m
	x.pending--
	last := x.pending <= 0
	if last {
		x.f.putXfer(x, x.f.ports[m.Dst])
	}
	x.f.deliver(m)
	if last {
		m.done()
	}
}

// lost retires x at the source once egress is over and the wire lost every
// copy.
func (x *xfer) lost() {
	m := x.m
	x.f.putXfer(x, x.src)
	m.done()
}

// hop schedules fn on the destination rank's shard after delay, measured
// from the source shard's clock. delay always includes one wire latency, so
// cross-shard hops satisfy the domain's lookahead by construction.
func (x *xfer) hop(delay sim.Duration, fn func()) {
	x.f.dom.CrossAt(x.m.Src, x.m.Dst, x.src.eng.Now().Add(delay), fn)
}

func (x *xfer) bind() {
	f := x.f
	x.loopback = func() {
		if x.m.OnTx != nil {
			x.m.OnTx()
		}
		x.finish()
	}
	// Control lane: egress serialization done (source shard); schedule each
	// copy's arrival directly (the control lane bypasses the FIFO engines).
	x.ctlTx = func() {
		if x.m.OnTx != nil {
			x.m.OnTx()
		}
		if x.copies == 0 {
			x.lost()
			return
		}
		for c := 0; c < x.copies; c++ {
			x.hop(x.wire+f.cfg.RxOverhead+sim.Duration(c)*x.dupGap, x.ctlRx)
		}
	}
	x.ctlRx = func() { x.finish() }
	// Bulk lane: the transmit engine has drained the message from memory
	// (source shard).
	x.bulkTx = func() {
		x.src.txQueuedBytes.Add(-x.m.Size)
		if x.m.OnTx != nil {
			x.m.OnTx()
		}
		if x.copies == 0 {
			x.lost()
			return
		}
		for c := 0; c < x.copies; c++ {
			x.hop(x.wire+sim.Duration(c)*x.dupGap, x.bulkWire)
		}
	}
	// bulkWire onward runs on the destination shard.
	x.bulkWire = func() {
		rx := f.ports[x.m.Dst].rx
		rx.Submit(f.cfg.RxOverhead, x.bulkRx)
		if x.ser > 0 {
			rx.Submit(x.ser, nil)
		}
	}
	x.bulkRx = func() { x.finish() }
}

// getCorruptBuf returns an n-byte scratch buffer for a corrupted-payload
// copy, reusing buffers handed back through RecyclePayload when one is big
// enough (frame sizes within a run cluster around a few distinct values, so
// first-fit reuse almost always hits). Like the xfer, the buffer is taken at
// the source rank's shard and handed back at the destination's.
func (sp *shardPool) getCorruptBuf(n int) []byte {
	for i := len(sp.corrupt) - 1; i >= 0; i-- {
		if cap(sp.corrupt[i]) >= n {
			b := sp.corrupt[i][:n]
			last := len(sp.corrupt) - 1
			sp.corrupt[i] = sp.corrupt[last]
			sp.corrupt[last] = nil
			sp.corrupt = sp.corrupt[:last]
			return b
		}
	}
	return make([]byte, n)
}

// RecyclePayload hands the payload of a corrupted message to the scratch
// pool of its destination's shard. Only the private copy the fabric itself
// made when corrupting a message is eligible, and the call is a no-op for a
// message without the Corrupted flag, so a pristine sender-owned buffer is
// never taken. Callers pass a message the fabric is done with — from its
// OnDone, as the reliability layer's heartbeats do; on a sharded domain only
// on the destination rank's shard — and must not touch the payload
// afterwards.
func (f *Fabric) RecyclePayload(m *Message) {
	if !m.Corrupted || m.Payload == nil {
		return
	}
	sp := f.ports[m.Dst].pool
	if len(sp.corrupt) < 32 { // cap retained scratch memory
		sp.corrupt = append(sp.corrupt, m.Payload)
	}
	m.Payload = nil
}
