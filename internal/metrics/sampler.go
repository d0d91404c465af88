// Virtual-time sampling: turn the registry into per-metric time series.
package metrics

import (
	"amtlci/internal/sim"
)

// Sample is one reading of one metric at a virtual-time instant.
type Sample struct {
	At sim.Time
	V  float64
}

// Track is the full time series of one metric. Counters and cumulative
// probes are differentiated: V is the per-second rate over the preceding
// sampling interval (for cumulative busy-seconds probes that rate is the
// busy fraction in [0,1]). Gauges and level probes are instantaneous.
type Track struct {
	Desc    Desc
	Rate    bool // true when V is a differentiated per-second rate
	Samples []Sample
}

// trackState pairs a registry entry with its accumulated series.
type trackState struct {
	e       *entry
	rate    bool
	prev    float64
	samples []Sample
}

// Sampler periodically reads every sampleable instrument (counters, gauges,
// probes — histograms are summary-only) against virtual time. It drives
// itself with engine events but never keeps the simulation alive: after each
// tick it reschedules only while other events remain pending, so in a closed
// simulation the series ends exactly when the workload does.
type Sampler struct {
	eng    *sim.Engine
	reg    *Registry
	period sim.Duration
	tracks []*trackState
	seen   int // registry entries already assigned a trackState
	lastAt sim.Time
}

// NewSampler prepares a sampler reading reg every period of virtual time.
// Instruments registered after Start are picked up on the next tick.
//
// The sampler requires a serial simulation: its probes read per-rank state
// owned by whichever shard the rank lives on, which is only safe when every
// rank shares one engine. Sharded deployments expose no single engine
// (stack.Stack.Eng is nil), so there is nothing valid to pass here.
func NewSampler(eng *sim.Engine, reg *Registry, period sim.Duration) *Sampler {
	if period <= 0 {
		panic("metrics: sampler period must be positive")
	}
	return &Sampler{eng: eng, reg: reg, period: period}
}

// Start records the baseline reading at the current virtual time and
// schedules the first tick one period out.
func (s *Sampler) Start() {
	s.refresh()
	s.lastAt = s.eng.Now()
	for _, t := range s.tracks {
		t.prev = read(t.e)
	}
	s.eng.After(s.period, s.tick)
}

// refresh adopts registry entries added since the last tick.
func (s *Sampler) refresh() {
	fresh := s.reg.entriesFrom(s.seen)
	s.seen += len(fresh)
	for _, e := range fresh {
		if e.kind == KindHistogram {
			continue
		}
		s.tracks = append(s.tracks, &trackState{
			e:    e,
			rate: e.kind == KindCounter || (e.kind == KindProbe && e.cumulative),
		})
	}
}

func (s *Sampler) tick() {
	s.sample()
	// Reschedule only while the simulation has other work: the tick we are
	// inside has already been popped, so Pending counts everything else. A
	// closed discrete-event run must end when its real events drain — the
	// sampler must never keep it alive.
	if s.eng.Pending() > 0 {
		s.eng.After(s.period, s.tick)
	}
}

// sample takes one reading of every track at the current virtual time.
func (s *Sampler) sample() {
	s.refresh()
	now := s.eng.Now()
	dt := now.Sub(s.lastAt).Seconds()
	for _, t := range s.tracks {
		cur := read(t.e)
		v := cur
		if t.rate {
			if dt <= 0 {
				continue // no interval to differentiate over
			}
			v = (cur - t.prev) / dt
			t.prev = cur
		}
		t.samples = append(t.samples, Sample{At: now, V: v})
	}
	s.lastAt = now
}

// Flush takes a final reading at the current virtual time (call after the
// run completes so the series covers the tail end).
func (s *Sampler) Flush() { s.sample() }

// Tracks returns every series with at least one sample.
func (s *Sampler) Tracks() []Track {
	out := make([]Track, 0, len(s.tracks))
	for _, t := range s.tracks {
		if len(t.samples) == 0 {
			continue
		}
		out = append(out, Track{Desc: t.e.desc, Rate: t.rate, Samples: t.samples})
	}
	return out
}

// read returns the instantaneous scalar reading of a sampleable entry.
func read(e *entry) float64 {
	switch e.kind {
	case KindCounter:
		return float64(e.c.Value())
	case KindGauge:
		return float64(e.g.Value())
	case KindProbe:
		if e.fn != nil {
			return e.fn()
		}
	}
	return 0
}
