package lci

import (
	"fmt"
	"slices"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Runtime is an LCI deployment over a fabric: one Endpoint per rank.
type Runtime struct {
	dom sim.Domain
	fab fabric.Network
	cfg Config
	eps []*Endpoint
}

// NewRuntime attaches one Endpoint per fabric port. fab may be the raw
// fabric or a reliability layer; when it can report peer failures
// (fabric.ErrNotifier), those are forwarded to each endpoint's error
// handler. Every endpoint registers its instruments in fab's registry.
func NewRuntime(dom sim.Domain, fab fabric.Network, cfg Config) *Runtime {
	reg := fab.Metrics()
	rt := &Runtime{dom: dom, fab: fab, cfg: cfg}
	pools := sim.ShardFreeLists[packet](dom)
	rt.eps = make([]*Endpoint, fab.Ranks())
	for i := range rt.eps {
		ep := &Endpoint{
			rt: rt, me: i,
			pool:          pools[dom.ShardOf(i)],
			pktDone:       packet{kind: kindPktDone, live: true},
			sent:          reg.Counter("lci", "sent", i),
			received:      reg.Counter("lci", "received", i),
			retries:       reg.Counter("lci", "retries", i),
			progressCalls: reg.Counter("lci", "progress_calls", i),
			packets:       reg.Gauge("lci", "packets_in_flight", i),
			direct:        reg.Gauge("lci", "direct_in_flight", i),
		}
		reg.Probe("lci", "cq_depth", i, false, func() float64 { return float64(len(ep.staged)) })
		rt.eps[i] = ep
		fab.SetHandler(i, ep.onArrival)
	}
	if en, ok := fab.(fabric.ErrNotifier); ok {
		for i := range rt.eps {
			ep := rt.eps[i]
			en.SetErrHandler(i, ep.deliverErr)
		}
	}
	return rt
}

// Endpoint returns rank i's endpoint.
func (rt *Runtime) Endpoint(i int) *Endpoint { return rt.eps[i] }

// Size returns the number of ranks.
func (rt *Runtime) Size() int { return len(rt.eps) }

// Config returns the runtime's parameters.
func (rt *Runtime) Config() Config { return rt.cfg }

// Metrics returns the network's registry, which the runtime's instruments
// live in (send/receive/retry counters, packet-pool and direct-slot
// occupancy, staged completion-queue depth, progress-call count).
func (rt *Runtime) Metrics() *metrics.Registry { return rt.fab.Metrics() }

type lciKind int8

const (
	kindMsg      lciKind = iota // immediate or buffered payload
	kindRTS                     // direct rendezvous request-to-send
	kindCTS                     // direct rendezvous clear-to-send
	kindData                    // direct payload
	kindSendDone                // local: direct send buffer drained
	kindPktDone                 // local: immediate/buffered packet released
)

// packet is the pooled record of one library-level message: the header the
// receiver reads, the fabric message it travels in, and that message's
// egress callback, bound once when the record is first made. The sender
// fills it and does not touch it after OnTx; the RECEIVING endpoint retires
// it into its own shard's free list once Progress has consumed it
// (DESIGN.md §3). Local completions (kindSendDone) are packets too, taken and
// retired at the same endpoint; kindPktDone is the endpoint's static sentinel.
type packet struct {
	msg  fabric.Message
	onTx func()    // p.txDone
	ep   *Endpoint // sender; read by txDone only
	live bool      // between take and retire

	kind    lciKind
	src     int
	tag     int
	size    int64
	payload buf.Buf
	extra   buf.Buf // second iovec segment (Sendmx)
	// data and xdata back payload and extra of an Immediate/Buffered message
	// with real bytes: the packet's own copy (the registered packet the
	// protocol copies through), kept across uses.
	data, xdata []byte
	sctx        *directOp // sender-side direct operation
	rctx        *directOp // receiver-side direct operation
}

// directOp tracks one posted Direct send or receive. The record is pooled at
// the endpoint that posted it, which is also the only one that dereferences
// it: the peer carries the pointer through RTS/CTS/data untouched, and the
// owner retires the record when it delivers the operation's completion.
type directOp struct {
	live    bool // between newOp and complete
	tag     int
	peer    int // AnyRank for wildcard receives
	b       buf.Buf
	comp    Comp
	userCtx any
}

// AnyRank matches a Direct receive against any peer.
const AnyRank = -1

// Endpoint is one rank's LCI context. All methods must run on the owning
// engine's goroutine.
type Endpoint struct {
	rt *Runtime
	me int

	// staged holds arrivals awaiting Progress; spare is the slice Progress
	// drained last, swapped back in so staging does not regrow one per pass.
	staged, spare []*packet

	// pool is the packet free list of this rank's shard: packets cross the
	// wire and are retired where they are delivered, so the list belongs to
	// the shard (per-rank lists would drain on every one-way stream). ops
	// recycles this endpoint's own direct-operation records. pktDone is the
	// one local completion every Immediate/Buffered send stages when its
	// packet has left the NIC: it carries nothing, so a single static record
	// serves.
	pool    *sim.FreeList[packet]
	ops     sim.FreeList[directOp]
	pktDone packet

	// Receiver-side Direct state.
	postedRecv []*directOp
	pendingRTS []*packet // RTSes with no matching posted receive yet

	// Resource accounting for back-pressure: packet-pool occupancy and
	// posted Direct operations, kept as gauges so occupancy and high-water
	// marks are observable (metrics registry, layer "lci").
	packets *metrics.Gauge
	direct  *metrics.Gauge

	// msgComp receives completions for Immediate/Buffered arrivals; buffers
	// are allocated dynamically, no receive needs to be posted (§5.2).
	msgComp Comp

	wake  func()
	errFn func(peer int, err error)

	// Counters for tests and experiments (metrics registry, layer "lci"):
	// messages sent (all protocols), payload deliveries, and ErrRetry
	// back-pressure rejections.
	sent, received, retries *metrics.Counter
	progressCalls           *metrics.Counter
}

// ID returns the endpoint's rank.
func (ep *Endpoint) ID() int { return ep.me }

// DropRecords empties the endpoint's direct-operation free list and its
// shard's packet free list, payload slabs included, for the end of a run:
// both lists keep every record they are handed while a run goes on
// (sim.FreeList).
func (ep *Endpoint) DropRecords() {
	ep.ops.Drop()
	ep.pool.Drop()
}

// SetMsgComp installs the completion target for dynamically-allocated
// short/medium message arrivals.
func (ep *Endpoint) SetMsgComp(c Comp) { ep.msgComp = c }

// SetWake installs a callback invoked when new progress work appears.
func (ep *Endpoint) SetWake(fn func()) { ep.wake = fn }

func (ep *Endpoint) notify() {
	if ep.wake != nil {
		ep.wake()
	}
}

// SetErrHandler installs the callback run when the transport declares a peer
// unreachable. Without one, the failure panics: an unnoticed dead peer
// otherwise turns into a silent hang.
func (ep *Endpoint) SetErrHandler(fn func(peer int, err error)) { ep.errFn = fn }

func (ep *Endpoint) deliverErr(peer int, err error) {
	if ep.errFn == nil {
		panic(err)
	}
	ep.errFn(peer, err)
}

func (ep *Endpoint) onArrival(m *fabric.Message) { ep.stage(m.Meta.(*packet)) }

// takePacket takes a packet record of the given kind.
func (ep *Endpoint) takePacket(kind lciKind) *packet {
	p := ep.pool.Get()
	if p == nil {
		p = &packet{}
		p.onTx = p.txDone
	}
	p.live, p.ep, p.kind, p.src = true, ep, kind, ep.me
	return p
}

// newPacket takes a packet for a message of wire size bytes to dst.
func (ep *Endpoint) newPacket(kind lciKind, dst int, wire int64) *packet {
	p := ep.takePacket(kind)
	p.msg = fabric.Message{Src: ep.me, Dst: dst, Size: wire, Meta: p}
	return p
}

// retire returns a consumed packet to this (the receiving) endpoint's shard.
func (ep *Endpoint) retire(p *packet) {
	if !p.live {
		panic("lci: packet retired twice")
	}
	*p = packet{onTx: p.onTx, data: p.data[:0], xdata: p.xdata[:0]}
	ep.pool.Put(p)
}

func (ep *Endpoint) newOp(tag, peer int, b buf.Buf, comp Comp, userCtx any) *directOp {
	op := ep.ops.Get()
	if op == nil {
		op = &directOp{}
	}
	*op = directOp{live: true, tag: tag, peer: peer, b: b, comp: comp, userCtx: userCtx}
	return op
}

// complete delivers op's completion and retires the record; the handler may
// post new operations, so the record is released only after it returns.
func (ep *Endpoint) complete(op *directOp, r Request) {
	if !op.live {
		panic("lci: direct operation completed twice")
	}
	deliver(op.comp, r)
	*op = directOp{}
	ep.ops.Put(op)
}

// txDone is the packet's fabric OnTx: the NIC has read the message out of
// memory, so the sender-side resource it held is released through a staged
// local completion. It is the sender's last touch of the packet.
func (p *packet) txDone() {
	ep := p.ep
	switch p.kind {
	case kindMsg:
		ep.stage(&ep.pktDone)
	case kindData:
		d := ep.takePacket(kindSendDone)
		d.sctx = p.sctx
		ep.stage(d)
	}
}

func (ep *Endpoint) stage(p *packet) {
	if !p.live {
		panic("lci: staging a retired packet")
	}
	wasEmpty := len(ep.staged) == 0
	ep.staged = append(ep.staged, p)
	if wasEmpty {
		ep.notify()
	}
}

// Sends transmits an Immediate message: at most ImmediateMax bytes, inline
// from the user buffer, fire-and-forget. The caller charges
// Config.SendCost(n).
func (ep *Endpoint) Sends(dst, tag int, b buf.Buf) error {
	if b.Size > ep.rt.cfg.ImmediateMax {
		panic(fmt.Sprintf("lci: Sends payload %d exceeds immediate max %d", b.Size, ep.rt.cfg.ImmediateMax))
	}
	return ep.eagerSend(dst, tag, b)
}

// Sendm transmits a Buffered message: at most BufferedMax bytes, copied into
// a registered packet. The caller charges Config.SendCost(n).
func (ep *Endpoint) Sendm(dst, tag int, b buf.Buf) error {
	if b.Size > ep.rt.cfg.BufferedMax {
		panic(fmt.Sprintf("lci: Sendm payload %d exceeds buffered max %d", b.Size, ep.rt.cfg.BufferedMax))
	}
	return ep.eagerSend(dst, tag, b)
}

// Sendmx transmits a Buffered message with two segments — a header and an
// opaque extra segment — in one wire transfer (an iovec-style send). The
// PaRSEC LCI backend uses it to piggyback small put payloads on the
// rendezvous handshake (§5.3.3, "if the message data is sufficiently small,
// then it can be sent eagerly inside the handshake message"). The caller
// charges Config.SendCost(header.Size + extra.Size).
func (ep *Endpoint) Sendmx(dst, tag int, header, extra buf.Buf) error {
	if header.Size+extra.Size > ep.rt.cfg.BufferedMax {
		panic(fmt.Sprintf("lci: Sendmx payload %d exceeds buffered max %d",
			header.Size+extra.Size, ep.rt.cfg.BufferedMax))
	}
	if ep.packets.Value() >= int64(ep.rt.cfg.SendPackets) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.packets.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindMsg, dst, header.Size+extra.Size+ep.rt.cfg.HeaderBytes)
	p.tag, p.size = tag, header.Size+extra.Size
	p.payload, p.extra = buf.Snapshot(&p.data, header), buf.Snapshot(&p.xdata, extra)
	p.msg.OnTx = p.onTx
	ep.rt.fab.Send(&p.msg)
	return nil
}

func (ep *Endpoint) eagerSend(dst, tag int, b buf.Buf) error {
	if ep.packets.Value() >= int64(ep.rt.cfg.SendPackets) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.packets.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindMsg, dst, b.Size+ep.rt.cfg.HeaderBytes)
	p.tag, p.size, p.payload = tag, b.Size, buf.Snapshot(&p.data, b)
	p.msg.OnTx = p.onTx
	ep.rt.fab.Send(&p.msg)
	return nil
}

// Sendd posts a Direct (RDMA rendezvous) send of any length. comp receives a
// completion when the source buffer may be reused. The caller charges
// Config.PostCost.
func (ep *Endpoint) Sendd(dst, tag int, b buf.Buf, comp Comp, userCtx any) error {
	if ep.direct.Value() >= int64(ep.rt.cfg.MaxDirect) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.direct.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindRTS, dst, ep.rt.cfg.CtrlBytes)
	p.tag, p.size = tag, b.Size
	p.sctx = ep.newOp(tag, dst, b, comp, userCtx)
	ep.rt.fab.Send(&p.msg)
	return nil
}

// Recvd posts a Direct receive matching (src, tag); src may be AnyRank. comp
// receives a completion when the data has landed. The caller charges
// Config.PostCost. Recvd participates in back-pressure: with MaxDirect
// operations outstanding it returns ErrRetry, which the PaRSEC LCI backend
// handles by delegating the retry to the communication thread (§5.3.3).
func (ep *Endpoint) Recvd(src, tag int, b buf.Buf, comp Comp, userCtx any) error {
	if ep.direct.Value() >= int64(ep.rt.cfg.MaxDirect) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.direct.Add(1)
	op := ep.newOp(tag, src, b, comp, userCtx)
	// Match an already-arrived RTS first.
	for i, p := range ep.pendingRTS {
		if matchDirect(op, p) {
			ep.pendingRTS = slices.Delete(ep.pendingRTS, i, i+1)
			ep.sendCTS(op, p)
			ep.retire(p)
			return nil
		}
	}
	ep.postedRecv = append(ep.postedRecv, op)
	return nil
}

func matchDirect(op *directOp, p *packet) bool {
	return (op.peer == AnyRank || op.peer == p.src) && op.tag == p.tag
}

func (ep *Endpoint) sendCTS(op *directOp, rts *packet) {
	p := ep.newPacket(kindCTS, rts.src, ep.rt.cfg.CtrlBytes)
	p.tag, p.size, p.sctx, p.rctx = rts.tag, rts.size, rts.sctx, op
	ep.rt.fab.Send(&p.msg)
}

// ProgressCost prices the work currently staged for one Progress pass.
func (ep *Endpoint) ProgressCost() sim.Duration {
	d := ep.rt.cfg.ProgressBase
	for _, p := range ep.staged {
		switch p.kind {
		case kindMsg:
			d += ep.rt.cfg.PerCompletion + ep.rt.cfg.copyCost(p.size)
		case kindRTS, kindCTS, kindData:
			d += ep.rt.cfg.MatchCost + ep.rt.cfg.PerCompletion
		case kindSendDone, kindPktDone:
			d += ep.rt.cfg.PerCompletion
		}
	}
	return d
}

// StagedWork reports whether Progress has anything to do.
func (ep *Endpoint) StagedWork() bool { return len(ep.staged) > 0 }

// Progress drains hardware completion queues: delivers dynamically-buffered
// message arrivals, matches Direct traffic, answers rendezvous RTSes,
// launches CTS-cleared data, and retires send completions. Completion
// handlers run in the caller's context — the paper's LCI backend dedicates a
// progress thread to exactly this call (§5.3.1). Callers charge
// ProgressCost (sampled immediately before).
func (ep *Endpoint) Progress() {
	ep.progressCalls.Inc()
	staged := ep.staged
	ep.staged, ep.spare = ep.spare[:0], nil
	for _, p := range staged {
		switch p.kind {
		case kindMsg:
			ep.received.Inc()
			deliver(ep.msgComp, Request{Rank: p.src, Tag: p.tag, Data: p.payload, Extra: p.extra})
			if _, ok := ep.msgComp.(Handler); !ok {
				// A queue or synchronizer keeps the request, and with it
				// the bytes: they leave the packet.
				p.data, p.xdata = nil, nil
			}
		case kindRTS:
			op := ep.findPostedRecv(p)
			if op == nil {
				// Kept until a matching receive is posted (Recvd retires it).
				ep.pendingRTS = append(ep.pendingRTS, p)
				continue
			}
			ep.sendCTS(op, p)
		case kindCTS:
			sctx := p.sctx
			d := ep.newPacket(kindData, p.src, sctx.b.Size+ep.rt.cfg.HeaderBytes)
			d.tag, d.size, d.payload, d.sctx, d.rctx = p.tag, sctx.b.Size, sctx.b, sctx, p.rctx
			d.msg.OnTx = d.onTx
			ep.rt.fab.Send(&d.msg)
		case kindData:
			op := p.rctx
			ep.received.Inc()
			ep.direct.Add(-1)
			buf.Copy(op.b, p.payload)
			ep.complete(op, Request{Rank: p.src, Tag: p.tag, Data: op.b, UserCtx: op.userCtx})
		case kindSendDone:
			op := p.sctx
			ep.direct.Add(-1)
			ep.complete(op, Request{Rank: op.peer, Tag: op.tag, Data: op.b, UserCtx: op.userCtx})
		case kindPktDone:
			ep.packets.Add(-1)
			continue // the endpoint's static sentinel
		}
		ep.retire(p)
	}
	clear(staged)
	ep.spare = staged[:0]
}

func (ep *Endpoint) findPostedRecv(p *packet) *directOp {
	for i, op := range ep.postedRecv {
		if matchDirect(op, p) {
			ep.postedRecv = slices.Delete(ep.postedRecv, i, i+1)
			return op
		}
	}
	return nil
}
