package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"amtlci/internal/sim"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("lci", "sent", 0)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("lci", "sent", 0) != c {
		t.Fatal("second registration did not return the same counter")
	}
	if r.Counter("lci", "sent", 1) == c {
		t.Fatal("different rank returned the same counter")
	}

	g := r.Gauge("mpi", "unexpected_depth", 0)
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge = (%d, max %d), want (2, max 7)", g.Value(), g.Max())
	}
	g.Set(9)
	if g.Value() != 9 || g.Max() != 9 {
		t.Fatalf("gauge after Set = (%d, max %d), want (9, max 9)", g.Value(), g.Max())
	}
}

func TestReregisterAsOtherKindPanics(t *testing.T) {
	r := New()
	r.Counter("lci", "sent", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("registering lci/sent as a gauge should panic")
		}
	}()
	r.Gauge("lci", "sent", 0)
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("rel", "rto_ns", StackRank)
	for _, v := range []uint64{0, 1, 1, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := (0 + 1 + 1 + 3 + 100 + 1000) / 6.0; math.Abs(h.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", h.Mean(), want)
	}
	// Median of {0,1,1,3,100,1000}: the 3rd observation is 1, whose log2
	// bucket has upper edge 1.
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %g, want 1", got)
	}
	// p99 lands in the bucket of 1000: [512, 1024), upper edge 1023.
	if got := h.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %g, want 1023", got)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSnapshotsSortedAndTyped(t *testing.T) {
	r := New()
	r.Counter("zz", "a", 0).Add(7)
	r.Gauge("aa", "b", 1).Set(3)
	depth := 11
	r.Probe("mm", "depth", 0, false, func() float64 { return float64(depth) })
	snaps := r.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	if snaps[0].Desc.Layer != "aa" || snaps[1].Desc.Layer != "mm" || snaps[2].Desc.Layer != "zz" {
		t.Fatalf("snapshots not sorted by layer: %+v", snaps)
	}
	if snaps[1].Value != 11 {
		t.Fatalf("probe snapshot = %g, want 11", snaps[1].Value)
	}
	if snaps[2].Kind != KindCounter || snaps[2].Value != 7 {
		t.Fatalf("counter snapshot wrong: %+v", snaps[2])
	}
}

func TestTotalAcrossRanks(t *testing.T) {
	r := New()
	r.Counter("rel", "retransmits", 0).Add(2)
	r.Counter("rel", "retransmits", 1).Add(3)
	r.Counter("rel", "retransmits", StackRank).Add(5)
	if got := r.Total("rel", "retransmits"); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := r.Value("rel", "retransmits", 1); got != 3 {
		t.Fatalf("Value rank 1 = %d, want 3", got)
	}
	if got := r.Value("rel", "retransmits", StackRank); got != 5 {
		t.Fatalf("Value StackRank = %d, want 5", got)
	}
}

// mustPanic runs read and requires a panic whose message names every want.
func mustPanic(t *testing.T, what string, read func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: read of an unregistered counter did not panic", what)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("%s: panic %q does not name %q", what, msg, w)
			}
		}
	}()
	read()
}

// TestUnregisteredReadPanics pins the read side's one safety: a counter no
// layer registered cannot read as zero, whether summed or read per rank, and
// a registered name of another kind is not a counter.
func TestUnregisteredReadPanics(t *testing.T) {
	r := New()
	r.Counter("rel", "retransmits", 0).Inc()
	r.Gauge("mpi", "isends_in_flight", 0).Set(2)
	mustPanic(t, "Total", func() { r.Total("rel", "retransmitz") }, "rel", "retransmitz")
	mustPanic(t, "Total of a gauge", func() { r.Total("mpi", "isends_in_flight") }, "mpi", "isends_in_flight")
	mustPanic(t, "Value", func() { r.Value("fabric", "msgs_sent", 0) }, "fabric", "msgs_sent")
	mustPanic(t, "Value of another rank", func() { r.Value("rel", "retransmits", 1) }, "rel", "retransmits", "rank 1")
}

// TestDiff checks the registry comparison: empty for equal registries, and
// otherwise the first differing instrument with both values, or the
// instrument one side lacks.
func TestDiff(t *testing.T) {
	build := func(sent uint64, extra bool) *Registry {
		r := New()
		r.Counter("fabric", "msgs_sent", 0).Add(sent)
		r.Counter("fabric", "msgs_sent", 1).Add(4)
		r.Gauge("lci", "packets_in_flight", 0).Set(3)
		r.Histogram("rel", "rto_ns", StackRank).Observe(100)
		if extra {
			r.Counter("recover", "ckpt_sent", 2)
		}
		return r
	}
	if d := Diff(build(7, false), build(7, false)); d != "" {
		t.Fatalf("equal registries diff %q", d)
	}
	d := Diff(build(7, false), build(8, false))
	for _, w := range []string{"fabric/msgs_sent rank 0", "7", "8"} {
		if !strings.Contains(d, w) {
			t.Fatalf("off-by-one diff %q does not name %q", d, w)
		}
	}
	for _, tc := range []struct {
		a, b *Registry
		side string
	}{
		{build(7, true), build(7, false), "first"},
		{build(7, false), build(7, true), "second"},
	} {
		d := Diff(tc.a, tc.b)
		if !strings.Contains(d, "recover/ckpt_sent rank 2") || !strings.Contains(d, tc.side) {
			t.Fatalf("one-sided diff %q does not name recover/ckpt_sent rank 2 on the %s side", d, tc.side)
		}
	}
}

// TestSamplerSeries drives a sampler against a synthetic workload: a counter
// incremented once per microsecond and a level probe. The sampler must
// produce a rate track for the counter, a level track for the probe, and the
// simulation must still terminate (the sampler cannot keep it alive).
func TestSamplerSeries(t *testing.T) {
	eng := sim.NewEngine()
	reg := New()
	c := reg.Counter("l", "events", 0)
	depth := 0
	reg.Probe("l", "depth", 0, false, func() float64 { return float64(depth) })

	// Workload: 100 events, one per microsecond.
	var step func(i int)
	step = func(i int) {
		c.Inc()
		depth = i % 7
		if i < 99 {
			eng.After(sim.Microsecond, func() { step(i + 1) })
		}
	}
	eng.After(sim.Microsecond, func() { step(0) })

	s := NewSampler(eng, reg, 10*sim.Microsecond)
	s.Start()
	end := eng.Run()
	s.Flush()

	// The sampler may trail the last real event by at most one period (a
	// tick firing alongside the final event sees it pending and reschedules
	// once more), but must never keep the simulation alive beyond that.
	if end > sim.Time(110*sim.Microsecond) {
		t.Fatalf("run ended at %v, want <= 110us (sampler kept the engine alive?)", end)
	}
	tracks := s.Tracks()
	var events, depthTrack *Track
	for i := range tracks {
		switch tracks[i].Desc.Name {
		case "events":
			events = &tracks[i]
		case "depth":
			depthTrack = &tracks[i]
		}
	}
	if events == nil || depthTrack == nil {
		t.Fatalf("missing tracks, got %+v", tracks)
	}
	if !events.Rate || depthTrack.Rate {
		t.Fatalf("rate flags wrong: events.Rate=%v depth.Rate=%v", events.Rate, depthTrack.Rate)
	}
	// One event per microsecond ~ 1e6 events/s per full interval. An event
	// landing exactly on a tick boundary counts in the adjacent interval, so
	// allow a one-event-per-interval tolerance.
	for _, smp := range events.Samples[:len(events.Samples)-1] {
		if smp.V < 0.85e6 || smp.V > 1.15e6 {
			t.Fatalf("rate at %v = %g, want ~1e6", smp.At, smp.V)
		}
	}
	if got := len(depthTrack.Samples); got < 9 {
		t.Fatalf("depth track has %d samples, want >= 9", got)
	}
}

// TestSamplerCumulativeProbe checks busy-fraction differentiation: a probe
// reporting cumulative seconds of busy time samples as a fraction in [0,1].
func TestSamplerCumulativeProbe(t *testing.T) {
	eng := sim.NewEngine()
	reg := New()
	busy := 0.0
	reg.Probe("l", "busy", 0, true, func() float64 { return busy })
	// Busy half the time: every 2us tick adds 1us of busy.
	for i := 1; i <= 50; i++ {
		eng.At(sim.Time(i)*sim.Time(2*sim.Microsecond), func() {
			busy += sim.Microsecond.Seconds()
		})
	}
	s := NewSampler(eng, reg, 10*sim.Microsecond)
	s.Start()
	eng.Run()
	s.Flush()
	tracks := s.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks, want 1", len(tracks))
	}
	for _, smp := range tracks[0].Samples {
		if math.Abs(smp.V-0.5) > 1e-9 {
			t.Fatalf("busy fraction at %v = %g, want 0.5", smp.At, smp.V)
		}
	}
}
