// Package fabric models the cluster interconnect of the paper's experimental
// platform (SDSC Expanse: Mellanox ConnectX-6 NICs, 2x50 Gb/s HDR InfiniBand,
// Table 1) as a deterministic discrete-event network.
//
// The model is LogGP-like. Every rank owns a full-duplex port with one
// transmit and one receive engine; a message from src to dst is
//
//	tx engine busy:  MessageGap + size/Bandwidth   (egress serialization)
//	wire:            Latency                        (propagation + switching)
//	rx engine busy:  RxOverhead + size/Bandwidth    (ingress serialization)
//
// after which the destination rank's registered handler runs. Egress and
// ingress serialize independently, so a single stream achieves full link
// bandwidth (the engines pipeline) while many-to-one traffic contends at the
// receiver, as on real hardware. CPU-side software costs (posting descriptors,
// matching, callbacks) are deliberately NOT charged here; they belong to the
// communication libraries built on top (internal/mpi, internal/lci), because
// the difference between those software stacks is exactly what the paper
// measures.
package fabric

import (
	"fmt"

	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Config holds the hardware parameters of the interconnect.
type Config struct {
	// Latency is the one-way wire latency (propagation plus switch hops).
	Latency sim.Duration
	// BandwidthGbps is the per-direction bandwidth of one port in Gbit/s.
	// Expanse nodes have 2x50 Gb/s HDR links, i.e. 100 Gbit/s per direction.
	BandwidthGbps float64
	// MessageGap is the per-message occupancy of the transmit engine beyond
	// serialization; 1/MessageGap bounds the achievable message rate.
	MessageGap sim.Duration
	// RxOverhead is the per-message occupancy of the receive engine beyond
	// serialization (descriptor completion, PCIe writeback).
	RxOverhead sim.Duration
	// LoopbackLatency is the delivery latency for self-sends, which bypass
	// the NIC engines entirely.
	LoopbackLatency sim.Duration
	// CtlBypass is the largest message that travels on the control lane:
	// real NICs service many queue pairs round-robin, so a small control
	// message (CTS, handshake, GET DATA) interleaves between the packets of
	// queued bulk transfers instead of waiting behind them. Messages at or
	// below this size bypass the FIFO engines; their (negligible) bandwidth
	// is not charged.
	CtlBypass int64
	// Jitter is the relative sigma of log-normal noise applied to the wire
	// latency of each message. Zero disables noise.
	Jitter float64
	// Seed seeds the fabric's deterministic noise stream.
	Seed uint64
}

// Validate reports the first nonsensical hardware parameter, or nil. Zero
// latencies and gaps are legal (an idealized fabric); negative durations,
// non-positive bandwidth and out-of-range jitter are not.
func (c Config) Validate() error {
	switch {
	case c.BandwidthGbps <= 0:
		return fmt.Errorf("fabric: bandwidth must be positive, got %g Gbit/s", c.BandwidthGbps)
	case c.Latency < 0:
		return fmt.Errorf("fabric: negative wire latency %v", c.Latency)
	case c.MessageGap < 0:
		return fmt.Errorf("fabric: negative message gap %v", c.MessageGap)
	case c.RxOverhead < 0:
		return fmt.Errorf("fabric: negative rx overhead %v", c.RxOverhead)
	case c.LoopbackLatency < 0:
		return fmt.Errorf("fabric: negative loopback latency %v", c.LoopbackLatency)
	case c.CtlBypass < 0:
		return fmt.Errorf("fabric: negative control-lane cutoff %d", c.CtlBypass)
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("fabric: jitter %g outside [0,1)", c.Jitter)
	}
	return nil
}

// DefaultConfig returns parameters calibrated against Table 1 and the
// NetPIPE baseline of Figure 2a: ~100 Gbit/s peak one-direction bandwidth,
// ~200 Gbit/s bidirectional, microsecond-scale small-message latency.
func DefaultConfig() Config {
	return Config{
		Latency:         1100 * sim.Nanosecond,
		BandwidthGbps:   100,
		MessageGap:      60 * sim.Nanosecond,
		RxOverhead:      100 * sim.Nanosecond,
		LoopbackLatency: 200 * sim.Nanosecond,
		CtlBypass:       4 << 10,
		Jitter:          0.01,
		Seed:            0x1C992023, // deterministic default
	}
}

// Message is a unit of transfer. Payload may be nil for modeled-size-only
// traffic (large virtual workloads); when non-nil its length must equal Size.
// Meta carries the header of the library that sent the message and is opaque
// to the fabric.
type Message struct {
	Src, Dst int
	Size     int64
	Payload  []byte
	Meta     any
	Sent     sim.Time // stamped by Send

	// Corrupted marks a message damaged in flight by fault injection (the
	// wire-level CRC the model elides would have failed). A reliability
	// layer must discard it; when the payload is real, one byte of a
	// private copy has been flipped.
	Corrupted bool

	// OnTx, if non-nil, runs when the source NIC has finished reading the
	// message out of memory (egress serialization complete). This is the
	// point at which a zero-copy sender may reuse its buffer — the local
	// completion semantics of a rendezvous send.
	OnTx func()

	// OnDone, if non-nil, runs exactly once per Send, as soon as the fabric
	// holds no reference to the message: after the last delivered copy's
	// handler returns, after egress when the wire lost every copy, or when a
	// crashed endpoint swallowed it. It runs on the engine of the rank that
	// last held the message: the destination's once a copy reached its port,
	// the source's otherwise. A sender that pools its messages retires them here;
	// until then the message must not be reused.
	OnDone func()
}

// Handler receives delivered messages at a rank.
type Handler func(*Message)

// Network is the transport surface the communication libraries bind to: the
// raw Fabric, or a reliability layer (internal/rel) wrapped around it.
// Metrics is the fabric's registry: every layer bound to the network
// registers its instruments there, so a deployment has one registry.
type Network interface {
	Ranks() int
	Metrics() *metrics.Registry
	SetHandler(rank int, h Handler)
	Send(m *Message)
}

// ErrNotifier is implemented by transports that can declare a peer dead (the
// raw lossless Fabric never does). fn runs on the owning engine's goroutine
// when rank's traffic toward peer exhausts its retry budget.
type ErrNotifier interface {
	SetErrHandler(rank int, fn func(peer int, err error))
}

type port struct {
	eng     *sim.Engine // owning shard engine: all of this rank's NIC events
	tx, rx  *sim.Proc
	handler Handler

	// rng drives this rank's egress jitter and is drawn in the rank's own
	// send order: per-source streams keep the noise identical no matter how
	// ranks are sharded, where a single fabric-wide stream would entangle
	// every rank's draws through global send interleaving.
	rng *sim.RNG

	// pool is the free-list set of the shard that owns this rank (xfer.go):
	// per-message transfer state and corrupted-payload scratch, taken here
	// when this rank sends and put back here when it is delivered to.
	pool *shardPool

	msgsSent, msgsRecv   *metrics.Counter
	bytesSent, bytesRecv *metrics.Counter
	// txQueuedBytes tracks payload bytes accepted by Send but not yet read
	// out of memory by the transmit engine (bulk lane back-pressure).
	txQueuedBytes *metrics.Gauge
}

// Fabric connects a fixed set of ranks across the shards of a sim.Domain.
// Rank-addressed methods (Send, SetHandler at runtime) must be called from
// the owning rank's shard; whole-fabric methods (InstallFaults) belong to
// setup and teardown, outside Run.
type Fabric struct {
	dom   sim.Domain
	cfg   Config
	ports []*port
	inj   *injector
	reg   *metrics.Registry

	// Crash state (nil slices unless a NodeCrash schedule is installed, so
	// the fault-free fast path stays branch-cheap). Crash schedules are
	// serial-only: a crash flips state every rank's Send consults.
	crashed     []bool
	crashEvents []sim.Event
	onCrash     []func(rank int)
}

// New builds a fabric with n ranks on dom — a serial *sim.Engine or a
// sharded *sim.Parallel. It returns a descriptive error for n <= 0 or an
// invalid Config.
func New(dom sim.Domain, n int, cfg Config) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fabric: need at least one rank, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dom.Shards() > 1 && Lookahead(cfg) <= 0 {
		return nil, fmt.Errorf("fabric: sharded domain needs a positive wire latency floor (latency %v, jitter %g)", cfg.Latency, cfg.Jitter)
	}
	reg := metrics.New()
	f := &Fabric{dom: dom, cfg: cfg, reg: reg}
	pools := make([]*shardPool, dom.Shards())
	for i := range pools {
		pools[i] = &shardPool{}
		pools[i].xfers.Cap = sim.ShardListCap
	}
	f.ports = make([]*port, n)
	for i := range f.ports {
		eng := dom.RankEngine(i)
		p := &port{
			eng:           eng,
			pool:          pools[dom.ShardOf(i)],
			tx:            sim.NewProc(eng),
			rx:            sim.NewProc(eng),
			rng:           sim.NewRNG(cfg.Seed + uint64(i)*0x9E3779B97F4A7C15),
			msgsSent:      reg.Counter("fabric", "msgs_sent", i),
			msgsRecv:      reg.Counter("fabric", "msgs_received", i),
			bytesSent:     reg.Counter("fabric", "bytes_sent", i),
			bytesRecv:     reg.Counter("fabric", "bytes_received", i),
			txQueuedBytes: reg.Gauge("fabric", "tx_queued_bytes", i),
		}
		reg.Probe("fabric", "tx_busy", i, true, func() float64 { return p.tx.BusyTime().Seconds() })
		reg.Probe("fabric", "rx_busy", i, true, func() float64 { return p.rx.BusyTime().Seconds() })
		reg.Probe("fabric", "tx_queue_depth", i, false, func() float64 { return float64(p.tx.QueueLen()) })
		f.ports[i] = p
	}
	return f, nil
}

// Lookahead returns the guaranteed minimum cross-rank delivery distance of a
// fabric with this config: the jitter floor of the wire latency. Every
// inter-rank path pays at least one wire hop, and the hop's jitter factor is
// hard-bounded below by sim.JitterFloor, so this is a sound conservative
// lookahead for sharded execution.
func Lookahead(cfg Config) sim.Duration {
	return sim.JitterFloor(cfg.Latency, cfg.Jitter)
}

// Metrics returns the registry the fabric's instruments live in (per-port
// traffic counters, queued bytes, engine utilization, fault counters) and
// every layer above it registers in.
func (f *Fabric) Metrics() *metrics.Registry { return f.reg }

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return len(f.ports) }

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Engine returns the simulation engine of a single-shard fabric. It exists
// for the serial tooling written before domains; sharded fabrics have no
// single engine, so it panics loudly rather than handing back a wrong one.
func (f *Fabric) Engine() *sim.Engine {
	if f.dom.Shards() != 1 {
		panic("fabric: Engine() on a sharded domain; use Domain() or RankEngine(rank)")
	}
	return f.dom.RankEngine(0)
}

// Domain returns the simulation domain the fabric schedules on.
func (f *Fabric) Domain() sim.Domain { return f.dom }

// RankEngine returns the shard engine owning rank.
func (f *Fabric) RankEngine(rank int) *sim.Engine { return f.ports[rank].eng }

// SetHandler installs the delivery handler for rank. Messages arriving at a
// rank without a handler panic: dropped traffic always indicates a bug in a
// communication library.
func (f *Fabric) SetHandler(rank int, h Handler) { f.ports[rank].handler = h }

// SerializeTime returns the wire serialization time for size bytes in one
// direction at the configured bandwidth.
func (f *Fabric) SerializeTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	// ps/byte = 8 bits / (Gbps * 1e9 bit/s) * 1e12 ps/s = 8000/Gbps.
	return sim.Duration(float64(size) * 8000.0 / f.cfg.BandwidthGbps)
}

// Send injects m from src toward m.Dst. The caller is responsible for
// charging its own CPU-side posting cost; Send itself only occupies NIC and
// wire resources. Payload slices are handed over by reference: the sender
// must not mutate a payload after Send, matching zero-copy RDMA semantics.
func (f *Fabric) Send(m *Message) {
	if m.Src < 0 || m.Src >= len(f.ports) || m.Dst < 0 || m.Dst >= len(f.ports) {
		panic(fmt.Sprintf("fabric: bad ranks src=%d dst=%d", m.Src, m.Dst))
	}
	if m.Payload != nil && int64(len(m.Payload)) != m.Size {
		panic(fmt.Sprintf("fabric: payload length %d != size %d", len(m.Payload), m.Size))
	}
	if m.Size < 0 {
		panic("fabric: negative message size")
	}
	src := f.ports[m.Src]
	m.Sent = src.eng.Now()
	// A crashed endpoint neither transmits nor receives: drop before the
	// traffic counters and before any fault-stream RNG draw, so a crash
	// leaves the surviving links' fault schedules untouched. Messages
	// already in flight when the destination dies are caught in deliver.
	if f.crashed != nil && (f.crashed[m.Src] || f.crashed[m.Dst]) {
		f.inj.crashDropped.Inc()
		m.done()
		return
	}
	src.msgsSent.Inc()
	src.bytesSent.Add(uint64(m.Size))

	x := f.getXfer(m)

	if m.Src == m.Dst {
		x.pending = 1
		src.eng.After(f.cfg.LoopbackLatency, x.loopback)
		return
	}

	wire := src.rng.Jitter(f.cfg.Latency, f.cfg.Jitter)
	ser := f.SerializeTime(m.Size)

	// Fault injection. A dropped message still charges the transmit engine
	// and fires OnTx — the NIC did its work; the wire lost the packet.
	copies := 1
	var dupGap sim.Duration
	if f.inj != nil {
		ft := f.inj.judge(m.Src, m.Dst, src.eng.Now())
		if ft.bwFactor < 1 {
			ser = sim.Duration(float64(ser) / ft.bwFactor)
		}
		wire += ft.extra
		if ft.reorder {
			f.inj.reordered.Inc()
		}
		if ft.corrupt {
			f.inj.corrupted.Inc()
			m.Corrupted = true
			if m.Payload != nil {
				// Copy before flipping a byte so the sender's buffer stays
				// intact; the copy comes from (and returns to, via
				// RecyclePayload) the fabric's scratch pool.
				p := src.pool.getCorruptBuf(len(m.Payload))
				copy(p, m.Payload)
				p[ft.corruptAt%len(p)] ^= 0xA5
				m.Payload = p
			}
		}
		switch {
		case ft.drop:
			copies = 0
			f.inj.dropped.Inc()
			if ft.sever {
				f.inj.severed.Inc()
			}
		case ft.dup:
			copies = 2
			dupGap = f.inj.dupDelay
			f.inj.duplicated.Inc()
		}
	}

	x.wire, x.ser, x.copies, x.dupGap, x.pending = wire, ser, copies, dupGap, copies

	// Control lane: small messages interleave between bulk packets instead
	// of queueing behind whole transfers (round-robin queue-pair service).
	if m.Size <= f.cfg.CtlBypass {
		src.eng.After(f.cfg.MessageGap+ser, x.ctlTx)
		return
	}

	// Bulk lane, cut-through timing (LogGP): the wire pipelines at packet
	// granularity, so serialization is paid once. The receive engine
	// delivers after its per-message overhead, then stays occupied for the
	// ingress serialization time so that converging senders contend for the
	// port's bandwidth without delaying their own already-arrived bytes.
	src.txQueuedBytes.Add(m.Size)
	src.tx.Submit(f.cfg.MessageGap+ser, x.bulkTx)
}

// done runs m's OnDone hook, if any.
func (m *Message) done() {
	if m.OnDone != nil {
		m.OnDone()
	}
}

func (f *Fabric) deliver(m *Message) {
	if f.crashed != nil && f.crashed[m.Dst] {
		f.inj.crashDropped.Inc()
		return
	}
	p := f.ports[m.Dst]
	p.msgsRecv.Inc()
	p.bytesRecv.Add(uint64(m.Size))
	if p.handler == nil {
		panic(fmt.Sprintf("fabric: rank %d has no handler for message from %d", m.Dst, m.Src))
	}
	p.handler(m)
}
