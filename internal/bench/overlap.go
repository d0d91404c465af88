package bench

import (
	"math"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// The §6.3 configuration: each iteration moves 256 MiB in one stream
// (window = total/fragment), two iterations run at the largest fragment
// (8 MiB) and smaller fragments run proportionally more, and every worker
// core executes the kernel at 40 GFLOP/s.
const (
	overlapTotalPerIter = 256 << 20
	overlapBaseIters    = 2
	overlapCoreGFLOPS   = 40.0
)

// OverlapOpts parameterizes the §6.3 computation/communication overlap
// benchmark: the ping-pong graph without SYNC, where each task executes
// sqrt(M/8) fused multiply-adds per 8-byte element (GEMM-like intensity),
// and the iteration count is scaled so the total flop count is constant
// across granularities.
type OverlapOpts struct {
	Backend  stack.Backend
	FragSize int64
	Runs     stats.Methodology
	Seed     uint64
}

// DefaultOverlapOpts mirrors the paper's configuration.
func DefaultOverlapOpts(b stack.Backend, fragSize int64) OverlapOpts {
	return OverlapOpts{
		Backend:  b,
		FragSize: fragSize,
		Runs:     stats.Microbenchmark,
		Seed:     2,
	}
}

// taskFlops returns the flop count of one task on an M-byte fragment:
// sqrt(M/8) FMA (2 flops each) per 8-byte element.
func taskFlops(m int64) float64 {
	elems := float64(m / 8)
	return 2 * elems * math.Sqrt(elems)
}

// iters returns the iteration count preserving total flops relative to
// overlapBaseIters at 8 MiB: per-iteration flops scale with sqrt(M), so
// iterations scale with sqrt(8MiB/M).
func (o OverlapOpts) iters() int {
	n := float64(overlapBaseIters) * math.Sqrt(float64(8<<20)/float64(o.FragSize))
	if n < 2 {
		return 2
	}
	return int(math.Round(n))
}

// totalFlops is the whole execution's flop count.
func (o OverlapOpts) totalFlops() float64 {
	window := float64(overlapTotalPerIter / o.FragSize)
	return float64(o.iters()) * window * taskFlops(o.FragSize)
}

// OverlapResult is one point of Figure 3, in GFLOP/s, with the two analytic
// bounds.
type OverlapResult struct {
	FragSize  int64
	GFLOPS    float64
	Roofline  float64
	NoOverlap float64
}

// Overlap measures delivered GFLOP/s for one configuration and computes the
// Roofline (communication fully overlapped) and No-Overlap (communication
// fully serialized) models of Figure 3.
func Overlap(o OverlapOpts) OverlapResult {
	gf := o.Runs.Collect(func(run int) float64 {
		d, _ := overlapRun(o, uint64(run))
		return o.totalFlops() / d.Seconds() / 1e9
	})
	roof, noov := o.models()
	return OverlapResult{FragSize: o.FragSize, GFLOPS: gf, Roofline: roof, NoOverlap: noov}
}

// overlapRun is execution run of a Fig 3 point: its makespan and the number
// of simulation events it fired. The graph is one stream of the ping-pong
// graph without SYNC, each task costing its kernel's time on one core.
func overlapRun(o OverlapOpts, run uint64) (sim.Duration, uint64) {
	pp := PingPongOpts{
		Backend: o.Backend, FragSize: o.FragSize, TotalPerIter: overlapTotalPerIter,
		Streams: 1, Iters: o.iters(), Sync: false,
	}
	g := newPingPongGraph(pp, sim.FromSeconds(taskFlops(o.FragSize)/(overlapCoreGFLOPS*1e9)))
	return pingpongSim(o.Backend, o.Seed, run, 64, false, g)
}

// models returns the Roofline and No-Overlap GFLOP/s bounds. Compute time
// uses both nodes' workers; communication time is the total cross-wire
// volume at link bandwidth. When tasks are large, concurrency is limited by
// the number of fragments per node, as the paper notes for 8 MiB fragments.
func (o OverlapOpts) models() (roofline, noOverlap float64) {
	window := float64(overlapTotalPerIter / o.FragSize)
	flops := o.totalFlops()
	concurrency := float64(2 * WorkersFor(o.Backend, 2))
	if perNode := window / 2; perNode*2 < concurrency {
		concurrency = perNode * 2
	}
	computeSec := flops / (overlapCoreGFLOPS * 1e9 * concurrency)
	// Every fragment crosses the network once per iteration after the
	// first.
	bytes := float64(o.iters()-1) * window * float64(o.FragSize)
	// Without the SYNC task, iterations pipeline deeply and the alternating
	// directions keep both 100 Gbit/s rails busy.
	commSec := bytes * 8 / (200e9)
	roofline = flops / math.Max(computeSec, commSec) / 1e9
	noOverlap = flops / (computeSec + commSec) / 1e9
	return roofline, noOverlap
}

// OverlapSizes is the granularity sweep of Figure 3: 16 KiB to 8 MiB.
func OverlapSizes() []int64 {
	var out []int64
	for s := int64(16 << 10); s <= 8<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}
