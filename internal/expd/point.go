package expd

import (
	"fmt"
	"math"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// Point kinds. HiCMA points are shared between the tile and nodes sweep
// families: the same (backend, n, nb, nodes, …) configuration is the same
// cache entry no matter which spec asked for it.
const (
	PointHiCMA    = "hicma"
	PointChaos    = "chaos"
	PointPingPong = "pingpong" // one Fig 2 series at one granularity
	PointOverlap  = "overlap"  // one Fig 3 series at one granularity
)

// Point is one self-contained unit of simulation: everything needed to
// reproduce one sweep point, fully resolved (no defaults left). Its
// canonical JSON encoding is its cache key (Hash).
type Point struct {
	Kind    string `json:"kind"`
	Backend string `json:"backend"`

	// HiCMA points.
	N       int  `json:"n,omitempty"`
	NB      int  `json:"nb,omitempty"`
	Nodes   int  `json:"nodes,omitempty"`
	MT      bool `json:"mt,omitempty"`
	Steal   bool `json:"steal,omitempty"` // also on chaos points
	Runs    int  `json:"runs,omitempty"`  // also on pingpong and overlap points
	Discard int  `json:"discard,omitempty"`

	// Pingpong and overlap points: the fragment size and, for pingpong,
	// the stream count and whether SYNC serializes iterations.
	Size    int64 `json:"size,omitempty"`
	Streams int   `json:"streams,omitempty"`
	Sync    bool  `json:"sync,omitempty"`

	// Chaos points: one point per (backend, workload) carries the whole
	// rate sweep, because every rate's slowdown is relative to the same
	// fault-free baseline measured inside the point.
	Workload string    `json:"workload,omitempty"`
	Rates    []float64 `json:"rates,omitempty"` // percent
	// A crash point carries the spec's cascade instead of rates and runs
	// the crash-recovery proof (evalCrash).
	Crashes []string `json:"crashes,omitempty"`
	Storm   int      `json:"storm,omitempty"`

	Seed uint64 `json:"seed,omitempty"`
}

// ChaosRow is one fault rate of a chaos point. Makespans are whole
// nanoseconds (the simulator's picoseconds, truncated).
type ChaosRow struct {
	RatePct     float64 `json:"rate_pct"`
	MakespanNS  int64   `json:"makespan_ns"`
	Slowdown    float64 `json:"slowdown"`
	Dropped     uint64  `json:"dropped"`
	Duplicated  uint64  `json:"duplicated"`
	Corrupted   uint64  `json:"corrupted"`
	Retransmits uint64  `json:"retransmits"`
	Steals      uint64  `json:"steals"`
	Verified    bool    `json:"verified"`
	RelErr      float64 `json:"rel_err"`
	Err         string  `json:"err,omitempty"`
}

// ChaosPointResult is a chaos point's baseline plus its rate sweep.
type ChaosPointResult struct {
	BaselineNS int64      `json:"baseline_ns"`
	Rows       []ChaosRow `json:"rows"`
}

// PointResult is the outcome of one point, discriminated by which field is
// set. The cache stores the set field alone, under its result kind
// (Cache.PutResult); because the simulation is deterministic, the cached
// bytes are byte-identical to what a re-simulation would produce.
type PointResult struct {
	HiCMA    *bench.HiCMAResult
	Chaos    *ChaosPointResult
	Crash    *CrashPointResult
	PingPong *bench.PingPongResult
	Overlap  *bench.OverlapResult
}

// result returns the kind and address of r's set result, or "" and nil
// when none is set.
func (r PointResult) result() (string, any) {
	switch {
	case r.HiCMA != nil:
		return PointHiCMA, r.HiCMA
	case r.Chaos != nil:
		return PointChaos, r.Chaos
	case r.Crash != nil:
		return resultCrash, r.Crash
	case r.PingPong != nil:
		return PointPingPong, r.PingPong
	case r.Overlap != nil:
		return PointOverlap, r.Overlap
	}
	return "", nil
}

// resultFor returns a PointResult holding a zero result of the given kind,
// and that result's address to decode into; nil for an unknown kind.
func resultFor(kind string) (PointResult, any) {
	var r PointResult
	switch kind {
	case PointHiCMA:
		r.HiCMA = new(bench.HiCMAResult)
		return r, r.HiCMA
	case PointChaos:
		r.Chaos = new(ChaosPointResult)
		return r, r.Chaos
	case resultCrash:
		r.Crash = new(CrashPointResult)
		return r, r.Crash
	case PointPingPong:
		r.PingPong = new(bench.PingPongResult)
		return r, r.PingPong
	case PointOverlap:
		r.Overlap = new(bench.OverlapResult)
		return r, r.Overlap
	}
	return r, nil
}

// resultCrash is the result kind of a chaos point that runs the crash
// proof; every other point's result kind is its point kind.
const resultCrash = "crash"

// resultKind is the kind of result p evaluates to.
func (p Point) resultKind() string {
	if p.Kind == PointChaos && (len(p.Crashes) != 0 || p.Storm != 0) {
		return resultCrash
	}
	return p.Kind
}

// finite maps NaN and infinities to 0 so results stay JSON-encodable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// evalPoint simulates one point from scratch; a non-nil registry receives
// the registry of each run the point reports (EvalHooks.Registry).
// Validation happens at spec canonicalization; a panic out of the simulator
// (which signals a misconfiguration, not an input error) is converted to an
// error, so the sweep's other points still complete and stay cacheable.
func evalPoint(p Point, registry func(row int, reg *metrics.Registry)) (res PointResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("expd: point %s: %v", p.Hash()[:12], r)
		}
	}()
	b, perr := stack.ParseBackend(p.Backend)
	if perr != nil {
		return PointResult{}, perr
	}
	switch p.Kind {
	case PointHiCMA:
		r, reg := bench.HiCMAMetrics(p.HiCMAOpts(b))
		if registry != nil {
			registry(0, reg)
		}
		// A single-tile problem (nb == n) exchanges no messages, so latency
		// means come back NaN; JSON cannot carry NaN, so "no samples"
		// becomes 0 in the cached result.
		r.TimeToSolution = finite(r.TimeToSolution)
		r.E2ELatencyMS = finite(r.E2ELatencyMS)
		r.HopLatencyMS = finite(r.HopLatencyMS)
		r.AvgRank = finite(r.AvgRank)
		return PointResult{HiCMA: &r}, nil

	case PointChaos:
		_, w, werr := parseWorkload(p.Workload)
		if werr != nil {
			return PointResult{}, werr
		}
		if p.resultKind() == resultCrash {
			r, cerr := evalCrash(p, b, w)
			return PointResult{Crash: r}, cerr
		}
		base := chaos.Run(chaos.Opts{Backend: b, Workload: w})
		if base.Err != nil {
			return PointResult{}, fmt.Errorf("expd: fault-free baseline broken: %w", base.Err)
		}
		out := &ChaosPointResult{BaselineNS: int64(base.Makespan / sim.Nanosecond)}
		for i, pct := range p.Rates {
			o, oerr := p.chaosOpts(pct)
			if oerr != nil {
				return PointResult{}, oerr
			}
			res := chaos.Run(o)
			m := res.Metrics
			if registry != nil {
				registry(i, m)
			}
			row := ChaosRow{
				RatePct:    pct,
				MakespanNS: int64(res.Makespan / sim.Nanosecond),
				Slowdown:   float64(res.Makespan) / float64(base.Makespan),
				Dropped:    m.Total("fabric", "faults_dropped"), Duplicated: m.Total("fabric", "faults_duplicated"),
				Corrupted: m.Total("fabric", "faults_corrupted"), Retransmits: m.Total("rel", "retransmits"),
				Steals: m.Total("parsec", "steals"), Verified: res.Verified, RelErr: finite(res.RelErr),
			}
			if res.Err != nil {
				row.Err = res.Err.Error()
			}
			out.Rows = append(out.Rows, row)
		}
		return PointResult{Chaos: out}, nil

	case PointPingPong:
		o := bench.DefaultPingPongOpts(b, p.Size)
		o.Streams, o.Sync = p.Streams, p.Sync
		o.Runs = stats.Methodology{Runs: p.Runs, Discard: p.Discard}
		if p.Seed != 0 {
			o.Seed = p.Seed
		}
		r := bench.PingPong(o)
		return PointResult{PingPong: &r}, nil

	case PointOverlap:
		o := bench.DefaultOverlapOpts(b, p.Size)
		o.Runs = stats.Methodology{Runs: p.Runs, Discard: p.Discard}
		if p.Seed != 0 {
			o.Seed = p.Seed
		}
		r := bench.Overlap(o)
		return PointResult{Overlap: &r}, nil
	}
	return PointResult{}, fmt.Errorf("expd: unknown point kind %q", p.Kind)
}

// HiCMAOpts is HiCMA point p's configuration on backend b: what evalPoint
// measures, and what cmd/experiments -trace records (bench.HiCMATrace).
func (p Point) HiCMAOpts(b stack.Backend) bench.HiCMAOpts {
	o := bench.DefaultHiCMAOpts(b, p.NB, p.Nodes)
	o.N = p.N
	o.MT = p.MT
	o.Steal = p.Steal
	o.Runs = stats.Methodology{Runs: p.Runs, Discard: p.Discard}
	if p.Seed != 0 {
		o.Seed = p.Seed
	}
	return o
}

// chaosOpts is the faulted run of chaos point p at ratePct percent: uniform
// drop, duplicate, corrupt and reorder at that rate on the point's seed
// (chaos.DefaultSeed when it sets none), the reliability layer interposed,
// and stealing when the point asks for it. evalPoint measures this run.
func (p Point) chaosOpts(ratePct float64) (chaos.Opts, error) {
	b, err := stack.ParseBackend(p.Backend)
	if err != nil {
		return chaos.Opts{}, err
	}
	_, w, err := parseWorkload(p.Workload)
	if err != nil {
		return chaos.Opts{}, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = chaos.DefaultSeed
	}
	r := ratePct / 100
	rc := rel.DefaultConfig()
	return chaos.Opts{
		Backend: b, Workload: w,
		Faults: &fabric.FaultConfig{Drop: r, Duplicate: r, Corrupt: r, Reorder: r, Seed: seed},
		Rel:    &rc,
		Steal:  p.Steal,
	}, nil
}
