package fabric

import (
	"fmt"

	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// FaultConfig arms deterministic fault injection on a fabric. Probabilities
// apply independently per message to every non-loopback link; Links adds
// scripted per-link degradation on top. All randomness derives from Seed via
// one RNG per (src,dst) pair, so a fault schedule is exactly reproducible —
// and independent of which other links carry traffic.
type FaultConfig struct {
	// Drop, Duplicate, Corrupt and Reorder are per-message probabilities in
	// [0,1]. A dropped message still occupies the transmit engine and fires
	// OnTx (the NIC read it out of memory; the wire lost it). A duplicated
	// message is delivered twice, the copies separated by DupDelay. A
	// corrupted message arrives with Corrupted set (and, when it carries a
	// real payload, one byte flipped in a private copy). A reordered message
	// has ReorderDelay added to its wire latency so later traffic on other
	// lanes overtakes it.
	Drop, Duplicate, Corrupt, Reorder float64
	// ReorderDelay is the extra wire latency of a reordered message.
	// Zero defaults to 4x the fabric's base latency.
	ReorderDelay sim.Duration
	// DupDelay separates the two deliveries of a duplicated message.
	// Zero defaults to the fabric's base latency.
	DupDelay sim.Duration
	// Seed seeds the per-link fault streams. Zero is a valid seed.
	Seed uint64
	// Links scripts additional degradation over virtual-time windows.
	Links []LinkFault
	// Crashes scripts whole-rank fail-stop failures: at At, the rank goes
	// silent. Every message it sends afterwards vanishes at the NIC, and
	// every message addressed to it — including traffic already in flight —
	// is dropped at the destination port. Unlike a Sever, which cuts one
	// directed link, a crash silences all of a rank's links at once.
	Crashes []NodeCrash
}

// NodeCrash schedules one rank's fail-stop failure.
type NodeCrash struct {
	// Rank is the rank that dies.
	Rank int
	// At is the virtual time of the failure; it must be positive (a rank
	// that is dead at t=0 should simply not be part of the job).
	At sim.Time
}

// LinkFault degrades one link (or a wildcard set of links) during a
// virtual-time window: a flap, a bandwidth cut, a latency spike, or a full
// sever. Probabilities add to the global FaultConfig rates while the window
// is open.
type LinkFault struct {
	// Src and Dst select the link; -1 matches any rank.
	Src, Dst int
	// From and Until bound the window. Until == 0 means the fault never
	// lifts.
	From, Until sim.Time
	// Sever drops every message on the link during the window.
	Sever bool
	// Extra per-message probabilities while the window is open.
	Drop, Duplicate, Corrupt, Reorder float64
	// BandwidthFactor scales the link's effective bandwidth: 0.25 quarters
	// it (serialization takes 4x as long). Zero means unchanged.
	BandwidthFactor float64
	// ExtraLatency is added to the wire latency of every message in the
	// window (a latency spike).
	ExtraLatency sim.Duration
}

func (l *LinkFault) matches(src, dst int, now sim.Time) bool {
	if l.Src >= 0 && l.Src != src {
		return false
	}
	if l.Dst >= 0 && l.Dst != dst {
		return false
	}
	if now < l.From {
		return false
	}
	return l.Until == 0 || now < l.Until
}

// Validate reports the first nonsensical parameter, or nil.
func (c *FaultConfig) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("fabric: fault probability %s=%g outside [0,1]", name, p)
		}
		return nil
	}
	for _, pr := range []struct {
		name string
		p    float64
	}{{"drop", c.Drop}, {"duplicate", c.Duplicate}, {"corrupt", c.Corrupt}, {"reorder", c.Reorder}} {
		if err := check(pr.name, pr.p); err != nil {
			return err
		}
	}
	if c.ReorderDelay < 0 || c.DupDelay < 0 {
		return fmt.Errorf("fabric: negative fault delay (reorder=%v dup=%v)", c.ReorderDelay, c.DupDelay)
	}
	for i := range c.Links {
		l := &c.Links[i]
		if l.Src < -1 || l.Dst < -1 {
			return fmt.Errorf("fabric: link fault %d: bad ranks src=%d dst=%d (-1 is the wildcard)", i, l.Src, l.Dst)
		}
		if l.Until != 0 && l.Until < l.From {
			return fmt.Errorf("fabric: link fault %d: window ends (%v) before it starts (%v)", i, l.Until, l.From)
		}
		for _, pr := range []struct {
			name string
			p    float64
		}{{"drop", l.Drop}, {"duplicate", l.Duplicate}, {"corrupt", l.Corrupt}, {"reorder", l.Reorder}} {
			if err := check(fmt.Sprintf("links[%d].%s", i, pr.name), pr.p); err != nil {
				return err
			}
		}
		if l.BandwidthFactor < 0 || l.BandwidthFactor > 1 {
			return fmt.Errorf("fabric: link fault %d: bandwidth factor %g outside (0,1]", i, l.BandwidthFactor)
		}
		if l.ExtraLatency < 0 {
			return fmt.Errorf("fabric: link fault %d: negative extra latency %v", i, l.ExtraLatency)
		}
	}
	seen := make(map[int]bool, len(c.Crashes))
	for i, cr := range c.Crashes {
		if cr.Rank < 0 {
			return fmt.Errorf("fabric: crash %d: negative rank %d", i, cr.Rank)
		}
		if cr.At <= 0 {
			return fmt.Errorf("fabric: crash %d: time %v not positive", i, cr.At)
		}
		if seen[cr.Rank] {
			return fmt.Errorf("fabric: crash %d: rank %d crashes twice", i, cr.Rank)
		}
		seen[cr.Rank] = true
	}
	return nil
}

// injector implements the fault schedule. One RNG per directed link keeps
// every link's fault stream independent of traffic elsewhere; the lazy
// per-link maps are partitioned by source rank, because judge always runs on
// the sending rank's shard and a single shared map would race under a
// sharded domain. Fault counters live in the fabric's metrics registry under
// layer "fabric", rank metrics.StackRank (faults describe the wire, not one
// port).
type injector struct {
	cfg          FaultConfig
	n            int
	rngs         []map[int]*sim.RNG // indexed by src rank, touched only by its shard
	reorderDelay sim.Duration
	dupDelay     sim.Duration

	// faults_dropped counts every lost message, faults_severed the subset a
	// Sever window took; faults_crash_dropped counts messages lost to a
	// crashed endpoint and crashes the NodeCrash events that fired.
	dropped, severed, duplicated, corrupted, reordered *metrics.Counter
	crashes, crashDropped                              *metrics.Counter
}

func newInjector(cfg FaultConfig, n int, base Config, reg *metrics.Registry) *injector {
	in := &injector{
		cfg: cfg, n: n, rngs: make([]map[int]*sim.RNG, n),
		dropped:    reg.Counter("fabric", "faults_dropped", metrics.StackRank),
		severed:    reg.Counter("fabric", "faults_severed", metrics.StackRank),
		duplicated: reg.Counter("fabric", "faults_duplicated", metrics.StackRank),
		corrupted:  reg.Counter("fabric", "faults_corrupted", metrics.StackRank),
		reordered:  reg.Counter("fabric", "faults_reordered", metrics.StackRank),

		crashes:      reg.Counter("fabric", "crashes", metrics.StackRank),
		crashDropped: reg.Counter("fabric", "faults_crash_dropped", metrics.StackRank),
	}
	in.reorderDelay = cfg.ReorderDelay
	if in.reorderDelay == 0 {
		in.reorderDelay = 4 * base.Latency
	}
	in.dupDelay = cfg.DupDelay
	if in.dupDelay == 0 {
		in.dupDelay = base.Latency
	}
	return in
}

func (in *injector) linkRNG(src, dst int) *sim.RNG {
	m := in.rngs[src]
	if m == nil {
		m = make(map[int]*sim.RNG)
		in.rngs[src] = m
	}
	r := m[dst]
	if r == nil {
		key := src*in.n + dst
		r = sim.NewRNG(in.cfg.Seed ^ (uint64(key)+1)*0x9E3779B97F4A7C15)
		m[dst] = r
	}
	return r
}

// fate is the injector's verdict on one message.
type fate struct {
	drop, sever  bool
	dup, corrupt bool
	reorder      bool
	extra        sim.Duration
	bwFactor     float64
	corruptAt    int
}

func (in *injector) judge(src, dst int, now sim.Time) fate {
	rng := in.linkRNG(src, dst)
	ft := fate{bwFactor: 1}
	drop, dup, corrupt, reorder := in.cfg.Drop, in.cfg.Duplicate, in.cfg.Corrupt, in.cfg.Reorder
	for i := range in.cfg.Links {
		l := &in.cfg.Links[i]
		if !l.matches(src, dst, now) {
			continue
		}
		if l.Sever {
			ft.drop, ft.sever = true, true
		}
		drop += l.Drop
		dup += l.Duplicate
		corrupt += l.Corrupt
		reorder += l.Reorder
		if l.BandwidthFactor > 0 {
			ft.bwFactor *= l.BandwidthFactor
		}
		ft.extra += l.ExtraLatency
	}
	// Always draw all four variates, in a fixed order, so a link's fault
	// stream stays aligned no matter which fault classes are enabled or
	// which windows are open.
	if rng.Float64() < drop {
		ft.drop = true
	}
	if rng.Float64() < dup {
		ft.dup = true
	}
	if rng.Float64() < corrupt {
		ft.corrupt = true
		ft.corruptAt = rng.Intn(1 << 20)
	}
	if rng.Float64() < reorder {
		ft.reorder = true
		ft.extra += in.reorderDelay
	}
	return ft
}

// InstallFaults arms fault injection; it replaces any previous schedule,
// including pending NodeCrash events. Loopback (self-send) traffic is never
// faulted: it models in-process shared-memory delivery, not the wire.
func (f *Fabric) InstallFaults(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(cfg.Crashes) > 0 && f.dom.Shards() > 1 {
		// A crash flips shared state (f.crashed) that every rank's Send
		// consults, and OnCrash listeners freeze cross-rank protocol state
		// directly — simulator conveniences that have no race-free sharded
		// form. Crash chaos stays a serial-engine feature.
		return fmt.Errorf("fabric: NodeCrash schedules require a single-shard domain (have %d shards)", f.dom.Shards())
	}
	for _, cr := range cfg.Crashes {
		if cr.Rank >= len(f.ports) {
			return fmt.Errorf("fabric: crash rank %d out of range (have %d ranks)", cr.Rank, len(f.ports))
		}
		if now := f.ports[cr.Rank].eng.Now(); cr.At < now {
			return fmt.Errorf("fabric: crash of rank %d scheduled in the past (%v < %v)", cr.Rank, cr.At, now)
		}
	}
	f.inj = newInjector(cfg, len(f.ports), f.cfg, f.reg)
	f.CancelCrashes()
	if len(cfg.Crashes) > 0 && f.crashed == nil {
		f.crashed = make([]bool, len(f.ports))
	}
	for _, cr := range cfg.Crashes {
		rank := cr.Rank
		f.crashEvents = append(f.crashEvents, f.ports[rank].eng.At(cr.At, func() { f.crash(rank) }))
	}
	return nil
}

// CancelCrashes cancels every scripted NodeCrash that has not fired yet;
// ones that fired stay fired. A run that has finished calls it so a crash
// scheduled past the end neither fires nor stretches the makespan.
func (f *Fabric) CancelCrashes() {
	// Pending crash events can only exist on a single-shard domain (the
	// InstallFaults gate), so every one lives on shard 0's engine.
	for _, ev := range f.crashEvents {
		f.dom.RankEngine(0).Cancel(ev)
	}
	f.crashEvents = f.crashEvents[:0]
}

// crash silences rank and notifies the OnCrash listeners in registration
// order (fault injection first, then higher layers that freeze the dead
// rank's local state).
func (f *Fabric) crash(rank int) {
	if f.crashed[rank] {
		return
	}
	f.crashed[rank] = true
	f.inj.crashes.Inc()
	for _, fn := range f.onCrash {
		fn(rank)
	}
}

// OnCrash registers a listener that runs when a rank's scripted NodeCrash
// fires, on the owning engine's goroutine. Layers above the fabric use it to
// freeze the dead rank's local protocol state (a crashed node stops its own
// timers too, not just its NIC).
func (f *Fabric) OnCrash(fn func(rank int)) { f.onCrash = append(f.onCrash, fn) }

// Crashed reports whether rank's scripted crash has fired.
func (f *Fabric) Crashed(rank int) bool {
	return f.crashed != nil && f.crashed[rank]
}
