package bench

import (
	"fmt"
	"math"

	"amtlci/internal/core/stack"
	"amtlci/internal/ctrace"
	"amtlci/internal/hicma"
	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	"amtlci/internal/stats"
)

// PaperTileSizes is the tile-size sweep of Figure 4 (and the candidate set
// for Table 2), from the paper's x-axis.
var PaperTileSizes = []int{1200, 1500, 1800, 2400, 3000, 3600, 4500, 4800, 6000}

// PaperNodeCounts is the strong-scaling sweep of Figure 5 / Table 2.
var PaperNodeCounts = []int{1, 2, 4, 8, 16, 32}

// HiCMAOpts parameterizes one HiCMA TLR Cholesky measurement (§6.4).
type HiCMAOpts struct {
	Backend stack.Backend
	N       int // matrix dimension (360,000 in the paper)
	NB      int // tile size
	Nodes   int
	// MT enables communication multithreading for ACTIVATE messages
	// (§6.4.3).
	MT bool
	// Runs is the measurement protocol (mean of five in §6.1.3).
	Runs stats.Methodology
	// Steal enables inter-rank work stealing (idle ranks pull ready tasks
	// and their input tiles from loaded peers).
	Steal bool
	Seed  uint64
}

// DefaultHiCMAOpts mirrors the paper's configuration.
func DefaultHiCMAOpts(b stack.Backend, nb, nodes int) HiCMAOpts {
	return HiCMAOpts{
		Backend: b,
		N:       360000,
		NB:      nb,
		Nodes:   nodes,
		Runs:    stats.HiCMA,
		Seed:    3,
	}
}

// hicmaFetchCap bounds every HiCMA point's GET DATA pipeline per rank.
const hicmaFetchCap = 64

// HiCMAResult is one point of Figures 4/5.
type HiCMAResult struct {
	Backend        stack.Backend
	NB             int
	Nodes          int
	MT             bool
	TimeToSolution float64 // seconds, mean over runs
	E2ELatencyMS   float64 // mean end-to-end latency, ms
	HopLatencyMS   float64 // mean single-hop latency, ms
	Tasks          int64
	AvgRank        float64
}

// HiCMA measures one configuration.
func HiCMA(o HiCMAOpts) HiCMAResult {
	r, _ := HiCMAMetrics(o)
	return r
}

// HiCMAMetrics measures o as HiCMA does and also returns the registry of
// its last run, every layer's end-of-run instrument state.
func HiCMAMetrics(o HiCMAOpts) (HiCMAResult, *metrics.Registry) {
	if o.N%o.NB != 0 {
		panic(fmt.Sprintf("bench: N=%d not divisible by nb=%d", o.N, o.NB))
	}
	var r HiCMAResult
	var reg *metrics.Registry
	tts := o.Runs.Collect(func(run int) float64 {
		r, reg = hicmaRun(o, uint64(run), nil)
		return r.TimeToSolution
	})
	// Time-to-solution is the protocol's mean; the latency means and pool
	// statistics are the last run's.
	r.TimeToSolution = tts
	return r, reg
}

// hicmaRun simulates run `run` of o over a virtual HiCMA pool and reports
// it, with the registry every layer of the run counted in. mutate, when
// non-nil, edits the stack options and runtime configuration o produced
// before anything is built (a mechanism-table row, mechanism.go).
func hicmaRun(o HiCMAOpts, run uint64, mutate func(*stack.Options, *parsec.Config)) (HiCMAResult, *metrics.Registry) {
	rt, pool, s := hicmaBuild(o, run, mutate)
	d, err := rt.Run()
	if err != nil {
		panic(fmt.Sprintf("bench: hicma %v", err))
	}
	return HiCMAResult{
		Backend: o.Backend, NB: o.NB, Nodes: o.Nodes, MT: o.MT,
		TimeToSolution: d.Seconds(),
		E2ELatencyMS:   rt.Tracer().EndToEnd().Mean() / 1000,
		HopLatencyMS:   rt.Tracer().Hop().Mean() / 1000,
		Tasks:          pool.TotalTasks(),
		AvgRank:        pool.AvgRank(),
	}, s.Metrics
}

// HiCMATrace records run 0 of o, built exactly as HiCMA measures it, as a
// Chrome trace (ctrace.Record). The stack must be serial, as every HiCMA
// point's is.
func HiCMATrace(o HiCMAOpts) (ctrace.Trace, error) {
	rt, pool, s := hicmaBuild(o, 0, nil)
	return ctrace.Record(rt, pool, s.Eng, s.Metrics)
}

// hicmaBuild builds run `run` of o, ready to run; mutate is hicmaRun's.
func hicmaBuild(o HiCMAOpts, run uint64, mutate func(*stack.Options, *parsec.Config)) (*parsec.Runtime, *hicma.Pool, *stack.Stack) {
	pool := hicma.NewVirtual(hicma.DefaultParams(o.N, o.NB), o.Nodes)
	so := stack.DefaultOptions(o.Backend, o.Nodes)
	so.Seed = o.Seed + run*0x51ED

	cfg := parsec.DefaultConfig(WorkersFor(o.Backend, o.Nodes))
	cfg.Seed = o.Seed + run
	cfg.FetchCap = hicmaFetchCap
	cfg.MTActivate = o.MT
	cfg.Steal = o.Steal
	if mutate != nil {
		mutate(&so, &cfg)
	}
	s := stack.Build(so)
	cfg.Metrics = s.Metrics
	return parsec.New(s.Dom, s.Engines, pool, cfg), pool, s
}

// ScaledProblem shrinks the paper's N=360,000 problem by factor while
// keeping tile sizes meaningful: it returns the scaled N and the subset of
// tiles that still divide it. factor 1 reproduces the paper exactly.
func ScaledProblem(factor float64, tiles []int) (int, []int) {
	if factor <= 0 || factor > 1 {
		panic("bench: scale factor must be in (0, 1]")
	}
	n := int(math.Round(360000 * factor))
	// Snap to a multiple of 3600 so most paper tile sizes divide it.
	n = (n + 1800) / 3600 * 3600
	if n < 3600 {
		n = 3600
	}
	var ok []int
	for _, nb := range tiles {
		if n%nb == 0 {
			ok = append(ok, nb)
		}
	}
	return n, ok
}
