// Package bench contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (Section 6): the PaRSEC
// ping-pong bandwidth microbenchmark (Figures 2a/2b), the
// computation/communication overlap benchmark (Figure 3), and the HiCMA TLR
// Cholesky experiments (Figures 4a/4b/5a/5b and Table 2), plus the analytic
// Roofline / No-Overlap models and the NetPIPE baseline hook-up.
package bench

import (
	"fmt"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// WorkersFor returns the paper's worker-thread count for a 128-core node
// (§6.1.2): all 128 cores on a single node; on multiple nodes one core goes
// to the communication thread, and the LCI backend dedicates another to the
// progress thread.
func WorkersFor(b stack.Backend, ranks int) int {
	if ranks == 1 {
		return 128
	}
	if b == stack.LCI {
		return 126
	}
	return 127
}

// PingPongOpts parameterizes the §6.2 bandwidth benchmark.
type PingPongOpts struct {
	Backend stack.Backend
	// FragSize is the fragment granularity N; the window size is
	// TotalPerIter/FragSize so each iteration moves a constant volume
	// (256 MiB in the paper).
	FragSize     int64
	TotalPerIter int64
	// Streams is the number of independent ping-pong streams (1 for Fig 2a,
	// 2 for Fig 2b); stream c starts on rank c%2.
	Streams int
	// Iters is the number of ping-pong iterations per execution.
	Iters int
	// Sync inserts the SYNC(t) serialization task between iterations
	// (Fig 2b's "no sync" variant disables it).
	Sync bool
	// Runs is the measurement protocol (18 runs discard 3 in the paper).
	Runs stats.Methodology
	Seed uint64
}

// DefaultPingPongOpts mirrors the paper's setup for one fragment size.
func DefaultPingPongOpts(b stack.Backend, fragSize int64) PingPongOpts {
	return PingPongOpts{
		Backend:      b,
		FragSize:     fragSize,
		TotalPerIter: 256 << 20,
		Streams:      1,
		Iters:        4,
		Sync:         true,
		Runs:         stats.Microbenchmark,
		Seed:         1,
	}
}

// pingpongGraph is the §6.2 task graph, computed from task indices like the
// cholesky and hicma pools rather than stored: PINGPONG(t, c, f) operates on
// fragment f of stream c at iteration t and executes on rank (t+c)%2, so the
// data crosses the network every iteration; SYNC(t) serializes iterations
// through a control flow. With S streams and a window of W fragments, every
// task is class 0 and
//
//   - PINGPONG(t, c, f) has index 2·((t·S+c)·W+f), priority Iters−t and two
//     output flows: the fragment (flow 0) to PINGPONG(t+1, c, f), and a
//     zero-byte control flow (flow 1) to SYNC(t);
//   - SYNC(t), for t < Iters−1 and only with Sync set, has index 2·t·S·W+1,
//     runs on rank 0 at no cost and top priority, and has one zero-byte flow
//     to every PINGPONG(t+1, ·, ·).
//
// A PINGPONG's inputs are [PINGPONG(t−1, c, f), SYNC(t−1)], and a SYNC's
// consumers and producers are enumerated in (c, f) loop order, which is the
// index order.
type pingpongGraph struct {
	streams, window, iters int64
	sync                   bool
	cost                   sim.Duration
	local                  [2]int64
	// ppOut and syncOut are the slices Execute returns: built once and never
	// written, so every rank may hold one at once.
	ppOut, syncOut []parsec.DataRef
}

var pingpongClasses = []parsec.TaskClass{{Name: "task"}}

// newPingPongGraph builds the graph of o, every PINGPONG task costing cost.
func newPingPongGraph(o PingPongOpts, cost sim.Duration) *pingpongGraph {
	if o.Streams < 1 {
		panic(fmt.Sprintf("bench: ping-pong with %d streams", o.Streams))
	}
	window := o.TotalPerIter / o.FragSize
	if window < 1 {
		window = 1
	}
	g := &pingpongGraph{
		streams: int64(o.Streams), window: window, iters: int64(o.Iters),
		sync: o.Sync, cost: cost,
		ppOut:   []parsec.DataRef{parsec.VirtualData(o.FragSize), parsec.VirtualData(0)},
		syncOut: []parsec.DataRef{parsec.VirtualData(0)},
	}
	for t := 0; t < o.Iters; t++ {
		for c := 0; c < o.Streams; c++ {
			g.local[(t+c)%2] += window
		}
	}
	if o.Sync && o.Iters > 1 {
		g.local[0] += int64(o.Iters - 1)
	}
	return g
}

func (g *pingpongGraph) pp(t, c, f int64) parsec.TaskID {
	return parsec.TaskID{Index: 2 * ((t*g.streams+c)*g.window + f)}
}

func (g *pingpongGraph) syncTask(t int64) parsec.TaskID {
	return parsec.TaskID{Index: 2*t*g.streams*g.window + 1}
}

// decode names task id: SYNC(t) if sync is set, otherwise PINGPONG(t, c, f).
// An id the graph does not hold panics.
func (g *pingpongGraph) decode(id parsec.TaskID) (t, c, f int64, sync bool) {
	if id.Class == 0 && id.Index >= 0 {
		k, per := id.Index>>1, g.streams*g.window
		t = k / per
		if id.Index&1 == 0 && t < g.iters {
			k -= t * per
			return t, k / g.window, k % g.window, false
		}
		if id.Index&1 == 1 && g.sync && k == t*per && t < g.iters-1 {
			return t, 0, 0, true
		}
	}
	panic(fmt.Sprintf("bench: no ping-pong task %v", id))
}

// Name implements parsec.Taskpool.
func (g *pingpongGraph) Name() string { return "pingpong" }

// Classes implements parsec.Taskpool.
func (g *pingpongGraph) Classes() []parsec.TaskClass { return pingpongClasses }

// RankOf implements parsec.Taskpool.
func (g *pingpongGraph) RankOf(id parsec.TaskID) int {
	t, c, _, sync := g.decode(id)
	if sync {
		return 0
	}
	return int((t + c) % 2)
}

// Cost implements parsec.Taskpool.
func (g *pingpongGraph) Cost(id parsec.TaskID) sim.Duration {
	if _, _, _, sync := g.decode(id); sync {
		return 0
	}
	return g.cost
}

// Priority implements parsec.Taskpool.
func (g *pingpongGraph) Priority(id parsec.TaskID) int64 {
	t, _, _, sync := g.decode(id)
	if sync {
		return 1 << 30
	}
	return g.iters - t
}

// Inputs implements parsec.Taskpool.
func (g *pingpongGraph) Inputs(id parsec.TaskID, out []parsec.Dep) []parsec.Dep {
	t, c, f, sync := g.decode(id)
	switch {
	case sync:
		return g.iteration(t, 1, out)
	case t > 0:
		out = append(out, parsec.Dep{Task: g.pp(t-1, c, f)})
		if g.sync {
			out = append(out, parsec.Dep{Task: g.syncTask(t - 1)})
		}
	}
	return out
}

// Successors implements parsec.Taskpool.
func (g *pingpongGraph) Successors(id parsec.TaskID, flow int32, out []parsec.Dep) []parsec.Dep {
	t, c, f, sync := g.decode(id)
	switch {
	case sync && flow == 0:
		return g.iteration(t+1, 0, out)
	case !sync && flow == 0:
		if t < g.iters-1 {
			out = append(out, parsec.Dep{Task: g.pp(t+1, c, f)})
		}
		return out
	case !sync && flow == 1:
		if g.sync && t < g.iters-1 {
			out = append(out, parsec.Dep{Task: g.syncTask(t), Flow: 1})
		}
		return out
	}
	panic(fmt.Sprintf("bench: ping-pong task %v has no flow %d", id, flow))
}

// iteration appends every PINGPONG(t, ·, ·) to out, reading flow, in index
// order.
func (g *pingpongGraph) iteration(t int64, flow int32, out []parsec.Dep) []parsec.Dep {
	for c := int64(0); c < g.streams; c++ {
		for f := int64(0); f < g.window; f++ {
			out = append(out, parsec.Dep{Task: g.pp(t, c, f), Flow: flow})
		}
	}
	return out
}

// Roots implements parsec.Taskpool: the first iteration's tasks, in index
// order.
func (g *pingpongGraph) Roots(rank int, emit func(parsec.TaskID)) {
	if g.iters == 0 {
		return
	}
	for c := int64(0); c < g.streams; c++ {
		if int(c%2) != rank {
			continue
		}
		for f := int64(0); f < g.window; f++ {
			emit(g.pp(0, c, f))
		}
	}
}

// LocalTasks implements parsec.Taskpool.
func (g *pingpongGraph) LocalTasks(rank int) int64 { return g.local[rank] }

// Execute implements parsec.Taskpool with the graph's immutable output
// tables.
func (g *pingpongGraph) Execute(id parsec.TaskID, _ []parsec.DataRef) []parsec.DataRef {
	if _, _, _, sync := g.decode(id); sync {
		return g.syncOut
	}
	return g.ppOut
}

// MakeCopy implements parsec.Taskpool.
func (g *pingpongGraph) MakeCopy(_ parsec.TaskID, _ int32, size int64) parsec.DataRef {
	return parsec.VirtualData(size)
}

// PingPongResult is one point of Figure 2.
type PingPongResult struct {
	FragSize int64
	Gbps     float64
}

// PingPong measures aggregate ping-pong bandwidth in Gbit/s for one
// configuration, averaged per the methodology.
func PingPong(o PingPongOpts) PingPongResult {
	g := newPingPongGraph(o, 0)
	// Fragments cross the wire at every iteration after the first.
	bytes := float64(o.Iters-1) * float64(g.streams*g.window) * float64(o.FragSize)
	gbps := o.Runs.Collect(func(run int) float64 {
		d, _ := pingpongRun(o, uint64(run))
		return bytes * 8 / d.Seconds() / 1e9
	})
	return PingPongResult{FragSize: o.FragSize, Gbps: gbps}
}

// pingpongRun is execution run of a Fig 2 point: its makespan and the number
// of simulation events it fired.
func pingpongRun(o PingPongOpts, run uint64) (sim.Duration, uint64) {
	// Deep fetch pipelines within an iteration, but honor the SYNC
	// serialization between iterations (§4.1 deferral, strict reading).
	return pingpongSim(o.Backend, o.Seed, run, 512, o.Sync, newPingPongGraph(o, 0))
}

// pingpongSim runs one execution of a ping-pong graph (Figs 2 and 3) on a
// fresh two-rank stack, with the paper's worker count, and returns its
// makespan and the number of simulation events it fired.
func pingpongSim(b stack.Backend, seed, run uint64, fetchCap int, fetchLazy bool, pool parsec.Taskpool) (sim.Duration, uint64) {
	so := stack.DefaultOptions(b, 2)
	so.Seed = seed + run*0x9E37
	s := stack.Build(so)
	cfg := parsec.DefaultConfig(WorkersFor(b, 2))
	cfg.Seed = seed + run
	cfg.FetchCap = fetchCap
	cfg.FetchLazy = fetchLazy
	cfg.Metrics = s.Metrics
	d, err := parsec.New(s.Eng, s.Engines, pool, cfg).Run()
	if err != nil {
		panic(fmt.Sprintf("bench: %s %v", pool.Name(), err))
	}
	return d, s.Eng.Fired()
}

// PingPongSizes is the granularity sweep of Figure 2: 8 KiB to 8 MiB.
func PingPongSizes() []int64 {
	var out []int64
	for s := int64(8 << 10); s <= 8<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// PingpongPoolForDebug exposes the benchmark graph for calibration tools.
func PingpongPoolForDebug(o PingPongOpts) parsec.Taskpool { return newPingPongGraph(o, 0) }
