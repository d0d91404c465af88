// Package metrics is the runtime-wide observability registry: counters,
// gauges, log2-bucketed histograms, and probes, keyed by (layer, name, rank)
// and cheap enough to be always-on. Every layer of the stack — fabric, mpi,
// lci, the two communication engines, rel, parsec — registers its instruments
// here instead of keeping private ad-hoc counter fields, so one registry per
// deployment describes the whole run. It is also the one read path: Total
// and Value read counters and panic on a name no layer registered, and Diff
// compares two runs' registries instrument by instrument.
//
// Instruments live against virtual time: a Sampler (sampler.go) turns the
// registry into per-metric time series suitable for Perfetto counter tracks,
// and bench.MetricsTable renders an end-of-run summary as a CSV table.
//
// Concurrency: a Registry is bound to one simulation domain. With a serial
// engine everything runs on one goroutine; with a sharded domain
// (sim.Parallel) ranks owned by different shards update instruments
// concurrently — per-rank instruments are naturally shard-local, but
// StackRank instruments (fault injection, rel's shared stack) and lazy
// first-use registration cross shards. Instruments therefore use atomics
// and registration takes a mutex: an increment is one uncontended atomic
// add on the hot path, which keeps always-on affordable.
package metrics

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind discriminates instrument types in snapshots.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count of events.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level with a high-water mark.
	KindGauge
	// KindHistogram is a log2-bucketed distribution of observed values.
	KindHistogram
	// KindProbe is a callback sampled on demand (queue depths, busy time).
	KindProbe
)

// String names the kind for tables.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindProbe:
		return "probe"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// StackRank is the rank value for instruments that describe the whole
// deployment rather than one rank (fault injection, rel's shared stack).
const StackRank = -1

// Counter is a monotonically increasing event count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous level (queue depth, in-flight window) with a
// high-water mark.
type Gauge struct{ v, max atomic.Int64 }

func (g *Gauge) raiseMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.raiseMax(g.v.Add(d)) }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raiseMax(v)
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram buckets observations by log2 magnitude: bucket i counts values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Fixed 65 buckets cover
// the whole uint64 range with no configuration and O(1) observation. The sum
// is kept as float64 bits behind a CAS loop; observations from different
// shards commute because float addition of same-magnitude latencies is
// order-insensitive at snapshot precision.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits of the running sum
	buckets [65]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + float64(v))
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the upper
// edge of the first bucket whose cumulative count reaches q. Resolution is a
// factor of two, which is what a log2 histogram buys.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= need {
			if i == 0 {
				return 0
			}
			return math.Ldexp(1, i) - 1 // upper edge: 2^i - 1
		}
	}
	return math.Inf(1) // unreachable
}

// Desc identifies one instrument.
type Desc struct {
	Layer string // owning subsystem: "fabric", "lci", "mpice", ...
	Name  string // metric name within the layer, e.g. "deferred_queue_depth"
	Rank  int    // owning rank, or StackRank
}

// entry is one registered instrument. A counter or gauge lives inside its
// entry; a histogram, 65 buckets wide and rare, is allocated on its own; a
// probe is its sampling callback, fn.
type entry struct {
	desc Desc
	c    Counter
	g    Gauge
	h    *Histogram
	fn   func() float64
	kind Kind
	// cumulative marks monotone probes (e.g. cumulative busy seconds): the
	// sampler differentiates consecutive readings into a rate, exactly as it
	// does for counters. Level probes (queue depths) are plotted directly.
	cumulative bool
}

// Registry holds every instrument of one deployment, in registration order.
// Lookup and registration are mutex-protected: under a sharded domain,
// first-use creation can race between shards. The instruments themselves are
// returned by pointer and used lock-free.
//
// A run builds its registry afresh, a few hundred instruments at a time, so
// the registry is built from slabs. Entries are carved out of chunks in
// registration order; a chunk is never grown or copied once made, so an
// entry, and the counter or gauge inside it, keeps its address for the
// registry's life. Chunks double from minChunk entries up to one size class
// of chunkBytes, so a registry of five instruments stays small. The index
// over them is one open-addressing table of entry pointers, at most half
// full and probed linearly from the Desc's hash: a few bytes per instrument
// and one allocation per doubling, where a map costs several times that.
type Registry struct {
	mu     sync.Mutex
	chunks [][]entry
	n      int
	index  []*entry
	seed   maphash.Seed
}

const (
	minChunk   = 8
	chunkBytes = 8 << 10
	maxChunk   = chunkBytes / int(unsafe.Sizeof(entry{}))
)

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make([]*entry, 2*minChunk), seed: maphash.MakeSeed()}
}

// slot returns the index slot for d: the one holding d's entry, or the empty
// one where it belongs. The caller holds r.mu.
func (r *Registry) slot(d Desc) **entry {
	h := maphash.String(r.seed, d.Layer) ^
		maphash.String(r.seed, d.Name)*0x9E3779B97F4A7C15 ^
		uint64(d.Rank)*0xC2B2AE3D27D4EB4F
	mask := uint64(len(r.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := r.index[i]; e == nil || e.desc == d {
			return &r.index[i]
		}
	}
}

func (r *Registry) get(layer, name string, rank int, kind Kind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := Desc{Layer: layer, Name: name, Rank: rank}
	at := r.slot(d)
	if e := *at; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s/%s rank %d registered as %v, requested as %v",
				layer, name, rank, e.kind, kind))
		}
		return e
	}
	// Make the instrument under the lock: letting the caller fill it in
	// lazily would let two shards observe a half-initialized entry.
	e := r.push()
	e.desc, e.kind = d, kind
	if kind == KindHistogram {
		e.h = &Histogram{}
	}
	*at = e
	if 2*r.n > len(r.index) {
		r.grow()
	}
	return e
}

// push takes the next zero entry of the last chunk, starting a new chunk
// when it is full, and returns its stable address. The caller holds r.mu.
func (r *Registry) push() *entry {
	k := len(r.chunks) - 1
	if k < 0 || len(r.chunks[k]) == cap(r.chunks[k]) {
		size := minChunk
		if k >= 0 {
			size = min(2*cap(r.chunks[k]), maxChunk)
		}
		r.chunks = append(r.chunks, make([]entry, 0, size))
		k++
	}
	c := r.chunks[k]
	r.chunks[k] = c[:len(c)+1]
	r.n++
	return &r.chunks[k][len(c)]
}

// grow doubles the index and re-inserts every entry. The caller holds r.mu.
func (r *Registry) grow() {
	r.index = make([]*entry, 2*len(r.index))
	for _, c := range r.chunks {
		for i := range c {
			*r.slot(c[i].desc) = &c[i]
		}
	}
}

// Counter returns the counter for (layer, name, rank), creating it on first
// use. Requesting an existing name as a different kind panics: a metric name
// collision is a programming error.
func (r *Registry) Counter(layer, name string, rank int) *Counter {
	return &r.get(layer, name, rank, KindCounter).c
}

// Gauge returns the gauge for (layer, name, rank), creating it on first use.
func (r *Registry) Gauge(layer, name string, rank int) *Gauge {
	return &r.get(layer, name, rank, KindGauge).g
}

// Histogram returns the histogram for (layer, name, rank), creating it on
// first use.
func (r *Registry) Histogram(layer, name string, rank int) *Histogram {
	return r.get(layer, name, rank, KindHistogram).h
}

// Probe registers fn as the sampling callback for (layer, name, rank). A
// cumulative probe reports a monotone total (busy seconds, bytes moved) that
// the sampler differentiates into a rate; a level probe reports an
// instantaneous value (queue depth) plotted directly. Re-registering replaces
// the callback.
func (r *Registry) Probe(layer, name string, rank int, cumulative bool, fn func() float64) {
	e := r.get(layer, name, rank, KindProbe)
	e.fn, e.cumulative = fn, cumulative
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// entriesFrom returns the entries registered at index i onward, listed under
// the lock; the sampler uses it to adopt instruments created after Start.
func (r *Registry) entriesFrom(i int) []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= r.n {
		return nil
	}
	out := make([]*entry, 0, r.n-i)
	for _, c := range r.chunks {
		if i >= len(c) {
			i -= len(c)
			continue
		}
		for j := i; j < len(c); j++ {
			out = append(out, &c[j])
		}
		i = 0
	}
	return out
}

// snapshotEntries lists every entry under the lock; the instruments
// themselves are read lock-free.
func (r *Registry) snapshotEntries() []*entry { return r.entriesFrom(0) }

// Snapshot is the current state of one instrument.
type Snapshot struct {
	Desc Desc
	Kind Kind

	// Value is the counter count, gauge level, or probe reading. For
	// histograms it is the observation count.
	Value float64
	// Max is the gauge high-water mark (gauges only).
	Max float64
	// Sum, Mean, P50 and P99 summarize histograms (histograms only; P50/P99
	// are log2-bucket upper bounds).
	Sum, Mean, P50, P99 float64
	// Cumulative marks probes whose Value is a monotone total.
	Cumulative bool
}

// Snapshots returns the state of every instrument, sorted by layer, name,
// rank, for stable tables.
func (r *Registry) Snapshots() []Snapshot {
	entries := r.snapshotEntries()
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := Snapshot{Desc: e.desc, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = float64(e.c.Value())
		case KindGauge:
			s.Value = float64(e.g.Value())
			s.Max = float64(e.g.Max())
		case KindHistogram:
			s.Value = float64(e.h.Count())
			s.Sum = e.h.Sum()
			s.Mean = e.h.Mean()
			s.P50 = e.h.Quantile(0.50)
			s.P99 = e.h.Quantile(0.99)
		case KindProbe:
			if e.fn != nil {
				s.Value = e.fn()
			}
			s.Cumulative = e.cumulative
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Desc.less(out[j].Desc) })
	return out
}

// Total sums a counter metric across all ranks of a layer (including
// StackRank entries). It panics when no layer registered a counter under
// that name: a misspelled read must fail, not total zero.
func (r *Registry) Total(layer, name string) uint64 {
	var t uint64
	found := false
	for _, e := range r.snapshotEntries() {
		if e.kind == KindCounter && e.desc.Layer == layer && e.desc.Name == name {
			t += e.c.Value()
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("metrics: no counter %s/%s registered", layer, name))
	}
	return t
}

// Value returns one rank's count of a counter metric (rank may be
// StackRank). Like Total, it panics when that counter was never registered.
func (r *Registry) Value(layer, name string, rank int) uint64 {
	r.mu.Lock()
	e := *r.slot(Desc{Layer: layer, Name: name, Rank: rank})
	r.mu.Unlock()
	if e == nil || e.kind != KindCounter {
		panic(fmt.Sprintf("metrics: no counter %s/%s registered for rank %d", layer, name, rank))
	}
	return e.c.Value()
}

// Diff compares two registries instrument by instrument and returns "" when
// both hold the same instruments with equal snapshots, or else the first
// difference in Snapshots order: the instrument and both sides' values. Two
// runs of one deterministic configuration must diff empty, which makes Diff
// the replay oracle for a whole run rather than a few hand-picked counters.
func Diff(a, b *Registry) string {
	sa, sb := a.Snapshots(), b.Snapshots()
	for i := 0; i < len(sa) || i < len(sb); i++ {
		switch {
		case i == len(sb) || i < len(sa) && sa[i].Desc.less(sb[i].Desc):
			return sa[i].Desc.label() + ": only in the first registry"
		case i == len(sa) || sb[i].Desc.less(sa[i].Desc):
			return sb[i].Desc.label() + ": only in the second registry"
		case sa[i] != sb[i]:
			return fmt.Sprintf("%s: %s vs %s", sa[i].Desc.label(), sa[i].values(), sb[i].values())
		}
	}
	return ""
}

// label names the instrument as layer/name rank r.
func (d Desc) label() string { return fmt.Sprintf("%s/%s rank %d", d.Layer, d.Name, d.Rank) }

// less is the Snapshots order: layer, then name, then rank.
func (d Desc) less(o Desc) bool {
	if d.Layer != o.Layer {
		return d.Layer < o.Layer
	}
	if d.Name != o.Name {
		return d.Name < o.Name
	}
	return d.Rank < o.Rank
}

// values renders what a snapshot of s's kind carries, for Diff.
func (s Snapshot) values() string {
	switch s.Kind {
	case KindGauge:
		return fmt.Sprintf("%v %g (max %g)", s.Kind, s.Value, s.Max)
	case KindHistogram:
		return fmt.Sprintf("%v n=%g sum=%g p50=%g p99=%g", s.Kind, s.Value, s.Sum, s.P50, s.P99)
	default:
		return fmt.Sprintf("%v %g", s.Kind, s.Value)
	}
}
