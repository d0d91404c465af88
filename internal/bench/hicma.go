package bench

import (
	"fmt"
	"math"

	"amtlci/internal/clocksync"
	"amtlci/internal/core/stack"
	"amtlci/internal/hicma"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// PaperTileSizes is the tile-size sweep of Figure 4 (and the candidate set
// for Table 2), from the paper's x-axis.
var PaperTileSizes = []int{1200, 1500, 1800, 2400, 3000, 3600, 4500, 4800, 6000}

// PaperNodeCounts is the strong-scaling sweep of Figure 5 / Table 2.
var PaperNodeCounts = []int{1, 2, 4, 8, 16, 32}

// LargeNodeCounts extends the strong-scaling sweep past the paper's 32
// nodes, into the regime where the serial simulator itself becomes the
// bottleneck and a sharded domain (HiCMAOpts.Shards) pays off.
var LargeNodeCounts = []int{256, 512, 1024}

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
	// Workers per rank; zero selects the paper's value (§6.1.2).
	Workers int
	// FetchCap for the runtime's GET DATA pipeline.
	FetchCap int
	// SyncClocks runs the §6.1.3 clock-synchronization epoch over skewed
	// rank clocks before the factorization and corrects latencies with the
	// estimated offsets; otherwise clocks are perfect.
	SyncClocks bool
	// Steal enables inter-rank work stealing (idle ranks pull ready tasks
	// and their input tiles from loaded peers).
	Steal bool
	// Shards > 1 runs the simulation itself on a sharded parallel domain:
	// ranks are partitioned into Shards groups, each advanced by its own
	// goroutine under the fabric's conservative lookahead window. The
	// simulated system is identical; only wall-clock time changes (on a
	// multi-core host). Incompatible with SyncClocks, whose measurement
	// epoch needs the serial engine.
	Shards int
	Seed   uint64
}

// DefaultHiCMAOpts mirrors the paper's configuration.
func DefaultHiCMAOpts(b stack.Backend, nb, nodes int) HiCMAOpts {
	return HiCMAOpts{
		Backend:  b,
		N:        360000,
		NB:       nb,
		Nodes:    nodes,
		Runs:     stats.HiCMA,
		FetchCap: 64,
		Seed:     3,
	}
}

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
	if o.Workers == 0 {
		o.Workers = WorkersFor(o.Backend, o.Nodes)
	}
	if o.N%o.NB != 0 {
		panic(fmt.Sprintf("bench: N=%d not divisible by nb=%d", o.N, o.NB))
	}
	var e2e, hop, tasks float64
	var avgRank float64
	tts := o.Runs.Collect(func(run int) float64 {
		t, rt, pool := hicmaRun(o, uint64(run), nil)
		e2e = rt.Tracer().EndToEnd().Mean() / 1000
		hop = rt.Tracer().Hop().Mean() / 1000
		tasks = float64(pool.TotalTasks())
		avgRank = pool.AvgRank()
		return t
	})
	return HiCMAResult{
		Backend: o.Backend, NB: o.NB, Nodes: o.Nodes, MT: o.MT,
		TimeToSolution: tts, E2ELatencyMS: e2e, HopLatencyMS: hop,
		Tasks: int64(tasks), AvgRank: avgRank,
	}
}

// hicmaRun simulates one run of o. mutate, when non-nil, edits the stack
// options and runtime configuration o produced before anything is built (a
// mechanism-table row, mechanism.go).
func hicmaRun(o HiCMAOpts, run uint64, mutate func(*stack.Options, *parsec.Config)) (float64, *parsec.Runtime, *hicma.Pool) {
	if o.SyncClocks && o.Shards > 1 {
		panic("bench: SyncClocks requires a serial simulation (Shards <= 1)")
	}
	par := hicma.DefaultParams(o.N, o.NB)
	pool := hicma.NewVirtual(par, o.Nodes)
	so := stack.DefaultOptions(o.Backend, o.Nodes)
	so.Seed = o.Seed + run*0x51ED
	so.Shards = o.Shards

	cfg := parsec.DefaultConfig(o.Workers)
	cfg.Seed = o.Seed + run
	cfg.FetchCap = o.FetchCap
	cfg.MTActivate = o.MT
	cfg.Steal = o.Steal
	if mutate != nil {
		mutate(&so, &cfg)
	}
	s := stack.Build(so)
	cfg.Metrics = s.Metrics
	rt := parsec.New(s.Dom, s.Engines, pool, cfg)

	if o.SyncClocks {
		clocks := clocksync.MakeClocks(o.Nodes, 10*sim.Millisecond, 0, o.Seed+run)
		res := clocksync.Register(s.Eng, s.Engines, clocks, 8).Run()
		rt.SetClocks(clocks, res.Offsets)
	}

	d, err := rt.Run()
	if err != nil {
		panic(fmt.Sprintf("bench: hicma %v", err))
	}
	return d.Seconds(), rt, pool
}

// TileScaling runs the Figure 4a/4b sweep at a fixed node count for one
// backend (optionally multithreaded), over the given tile sizes. workers is
// the sweep parallelism (see Sweep); results are in tile order either way.
// Points simulate on shards simulation shards each (1 = serial).
func TileScaling(b stack.Backend, n, nodes int, mt bool, tiles []int, runs stats.Methodology, workers, shards int) []HiCMAResult {
	return Sweep(workers, len(tiles), func(i int) HiCMAResult {
		o := DefaultHiCMAOpts(b, tiles[i], nodes)
		o.N = n
		o.MT = mt
		o.Runs = runs
		o.Shards = shards
		return HiCMA(o)
	})
}

// BestTile returns the result with the lowest time-to-solution (Table 2's
// per-node-count argmin).
func BestTile(results []HiCMAResult) HiCMAResult {
	best := results[0]
	for _, r := range results[1:] {
		if r.TimeToSolution < best.TimeToSolution {
			best = r
		}
	}
	return best
}

// StrongScalingPoint is one node count of Figure 5: LCI at its best tile,
// Open MPI at LCI's best tile, and Open MPI at its own best tile.
type StrongScalingPoint struct {
	Nodes       int
	LCI         HiCMAResult // best LCI tile
	MPIAtLCI    HiCMAResult // MPI at the LCI-optimal tile
	MPIBest     HiCMAResult // MPI at its own best tile
	LCITile     int
	MPIBestTile int
}

// StrongScaling runs the Figure 5a/5b + Table 2 experiment: for each node
// count, sweep tile sizes for both backends and report the paper's three
// series. The full (node x backend x tile) grid is flattened into one sweep
// so a large -j keeps every worker busy even when a single node count has
// few tiles; per-point determinism makes the reassembled series identical
// to the serial nesting.
// Each point simulates on shards simulation shards (1 = serial); sharding
// matters most at the large node counts, where one simulated step fans out
// to hundreds of rank calendars.
func StrongScaling(n int, nodes []int, tiles []int, runs stats.Methodology, workers, shards int) []StrongScalingPoint {
	type job struct {
		b  stack.Backend
		nd int
		nb int
	}
	var jobs []job
	for _, nd := range nodes {
		for _, b := range []stack.Backend{stack.LCI, stack.MPI} {
			for _, nb := range tiles {
				jobs = append(jobs, job{b, nd, nb})
			}
		}
	}
	res := Sweep(workers, len(jobs), func(i int) HiCMAResult {
		j := jobs[i]
		o := DefaultHiCMAOpts(j.b, j.nb, j.nd)
		o.N = n
		o.Runs = runs
		o.Shards = shards
		return HiCMA(o)
	})

	var out []StrongScalingPoint
	for i := 0; i < len(jobs); i += 2 * len(tiles) {
		nd := jobs[i].nd
		lciAll := res[i : i+len(tiles)]
		mpiAll := res[i+len(tiles) : i+2*len(tiles)]
		lciBest := BestTile(lciAll)
		mpiBest := BestTile(mpiAll)
		var mpiAtLCI HiCMAResult
		for _, r := range mpiAll {
			if r.NB == lciBest.NB {
				mpiAtLCI = r
			}
		}
		out = append(out, StrongScalingPoint{
			Nodes: nd, LCI: lciBest, MPIAtLCI: mpiAtLCI, MPIBest: mpiBest,
			LCITile: lciBest.NB, MPIBestTile: mpiBest.NB,
		})
	}
	return out
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
