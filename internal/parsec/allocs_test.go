package parsec_test

import (
	"runtime"
	"strings"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// chainAllocs runs a chain of n tasks, task i on rank i%ranks, each handing
// 1 KiB to the next, and returns the heap allocations made inside Run.
func chainAllocs(t *testing.T, b stack.Backend, ranks, n int) uint64 {
	t.Helper()
	g := parsec.NewGraphPool("chain", ranks, false)
	prev := g.AddTask(0, 0, sim.Microsecond, 0, 1<<10)
	for i := 1; i < n; i++ {
		cur := g.AddTask(int64(i), i%ranks, sim.Microsecond, 0, 1<<10)
		g.Link(prev, 0, cur)
		prev = cur
	}
	_, rt := build(t, b, ranks, 2, g, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocsPerTask is the marginal cost of one more task on the chain: the
// difference between a long and a short run cancels everything a run pays
// once (first growth of queues, tables and scratch, termination detection).
// The difference is taken in floating point: at zero allocations per task, a
// stray runtime allocation during the short run must not wrap it around.
func allocsPerTask(t *testing.T, b stack.Backend, ranks, short, long int) float64 {
	return (float64(chainAllocs(t, b, ranks, long)) - float64(chainAllocs(t, b, ranks, short))) / float64(long-short)
}

// TestLocalTaskPathAllocs pins the path "task done → local successor ready
// → dispatched → done" at zero allocations. The flow record comes from the
// rank's free list; no map growth, no boxing in the ready queue, no dispatch
// closure, no input slice, and the Execute result is the pool's scratch,
// which the Taskpool contract lends the runtime until the next Execute.
func TestLocalTaskPathAllocs(t *testing.T) {
	got := allocsPerTask(t, stack.LCI, 1, 1000, 5000)
	t.Logf("local chain: %.3f allocs/task", got)
	if got > 0.01 {
		t.Fatalf("local chain: %.3f allocs/task, want 0", got)
	}
}

// TestRemoteTaskPathAllocs pins the same path when every edge crosses the
// wire (ACTIVATE, GET DATA, put, on both backends) at zero as well. The
// message path itself — the runtime's deferred communication-thread steps,
// both engines, both libraries, the fabric, the simulator's calendar —
// allocates nothing in steady state (each layer pins that on its own), the
// runtime's per-flow state on both ranks is recycled (flow records through
// the rank's free list, their waiter lists as cells of the rank's arena),
// and the Execute result is borrowed. A chain has one consumer per flow and
// no multicast tree; TestMulticastPathAllocs covers the fan-out.
func TestRemoteTaskPathAllocs(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		got := allocsPerTask(t, b, 2, 1000, 5000)
		t.Logf("remote chain: %.3f allocs/task", got)
		if got > 0.01 {
			t.Fatalf("remote chain: %.3f allocs/task, want 0", got)
		}
	})
}

// lazyPingPong is the ping-pong microbenchmark's graph at a small scale:
// iters iterations of a window of fragments, each fragment crossing between
// the two ranks at every iteration, with SYNC(t) gathering a control flow
// from every fragment of iteration t and releasing iteration t+1. Under
// FetchLazy, a fragment's data is announced while its consumer still waits
// for SYNC, so every fetch is deferred, and a whole window of flows, steps
// and lazy cells is in flight at once.
func lazyPingPong(window, iters int) *parsec.GraphPool {
	g := parsec.NewGraphPool("lazy-pingpong", 2, false)
	frag := func(t, f int) parsec.TaskID { return parsec.TaskID{Index: int64(2 * (t*window + f))} }
	sync := func(t int) parsec.TaskID { return parsec.TaskID{Index: int64(2*t*window + 1)} }
	for t := 0; t < iters; t++ {
		for f := 0; f < window; f++ {
			id := g.AddTask(frag(t, f).Index, t%2, 0, int64(iters-t), 32<<10, 0)
			if t > 0 {
				g.Link(frag(t-1, f), 0, id)
				g.Link(sync(t-1), 0, id)
			}
		}
		if t < iters-1 {
			sid := g.AddTask(sync(t).Index, 0, 0, 1<<30, 0)
			for f := 0; f < window; f++ {
				g.Link(frag(t, f), 1, sid)
			}
		}
	}
	return g
}

// parsecAllocs returns the heap allocations that run makes at this package's
// sites. Every allocation is sampled into the memory profile while it runs
// (the runtime applies a changed MemProfileRate at once), and one belongs to
// parsec when the innermost frame of its stack outside the Go runtime does.
// Collecting before each reading publishes the profile up to that point.
func parsecAllocs(run func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := parsecSiteAllocs()
	run()
	return parsecSiteAllocs() - before
}

func parsecSiteAllocs() int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasPrefix(f.Function, "amtlci/internal/parsec.") {
					total += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// lazyPingPongAllocs runs lazyPingPong and returns the allocations parsec
// makes inside Run, and the number of tasks run.
func lazyPingPongAllocs(t *testing.T, b stack.Backend, window, iters int) (allocs int64, tasks int) {
	t.Helper()
	_, rt := build(t, b, 2, 2, lazyPingPong(window, iters), func(c *parsec.Config) {
		c.FetchCap = 512
		c.FetchLazy = true
	})
	var err error
	allocs = parsecAllocs(func() { _, err = rt.Run() })
	if err != nil {
		t.Fatal(err)
	}
	return allocs, iters*window + iters - 1
}

// TestLazyFetchAllocs pins parsec's share of the ping-pong path — ACTIVATE,
// deferred fetch, GET DATA, put, SYNC — at the marginal cost of one more
// iteration, with a window of 4,096 fragments in flight per rank. The first
// iteration carves the in-flight peak's flow and step records from the shard
// slab and grows the lazy-cell arena; every later one recycles them. (The
// engines' and libraries' record lists are capped far below such a window, so
// the whole stack's count would measure them instead.)
func TestLazyFetchAllocs(t *testing.T) {
	const window = 4096
	forBackends(t, func(t *testing.T, b stack.Backend) {
		short, nShort := lazyPingPongAllocs(t, b, window, 2)
		long, nLong := lazyPingPongAllocs(t, b, window, 4)
		got := float64(long-short) / float64(nLong-nShort)
		t.Logf("lazy ping-pong: %.3f parsec allocs/task", got)
		if got > 0.1 {
			t.Fatalf("lazy ping-pong: %.3f parsec allocs/task, want at most 0.1", got)
		}
	})
}

// broadcastChain is a chain of n broadcasts over ranks ranks: task i, on rank
// i%ranks, hands 1 KiB to task i+1 and to one to three sink tasks on every
// other rank, so each flow reaches ranks-1 consumer ranks — a multicast tree
// once that is at least the fan-out threshold, with forwarders queueing their
// children's GET DATA until their own copy lands — and several local
// consumers at each.
func broadcastChain(ranks, n int) (g *parsec.GraphPool, tasks int) {
	g = parsec.NewGraphPool("broadcast", ranks, false)
	idx := int64(0)
	add := func(rank int, sizes ...int64) parsec.TaskID {
		idx++
		return g.AddTask(idx, rank, sim.Microsecond, 0, sizes...)
	}
	prev := add(0, 1<<10)
	for i := 1; i < n; i++ {
		owner := (i - 1) % ranks
		for r := 0; r < ranks; r++ {
			if r == owner {
				continue
			}
			for k := 0; k <= (i+r)%3; k++ {
				g.Link(prev, 0, add(r))
			}
		}
		cur := add(i%ranks, 1<<10)
		g.Link(prev, 0, cur)
		prev = cur
	}
	return g, int(idx)
}

// broadcastAllocs runs broadcastChain and returns the allocations parsec makes
// inside Run, and the number of tasks run.
func broadcastAllocs(t *testing.T, b stack.Backend, ranks, n int) (allocs int64, tasks int) {
	t.Helper()
	g, tasks := broadcastChain(ranks, n)
	_, rt := build(t, b, ranks, 2, g, nil)
	var err error
	allocs = parsecAllocs(func() { _, err = rt.Run() })
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().Total("parsec", "tasks_run"); got != uint64(tasks) {
		t.Fatalf("ran %d of %d tasks", got, tasks)
	}
	return allocs, tasks
}

// TestMulticastPathAllocs pins parsec's share of the fan-out path at the
// marginal cost of one more broadcast: a flow with local consumers on every
// rank it reaches and a binomial tree over six consumer ranks. The root
// builds the tree in scratch, the aggregation step and the queue copy each
// subtree into storage they keep, a forwarder decodes its subtree into the
// activation step's storage and queues its children's GETs as arena cells,
// and every rank's consumers wait as arena cells too.
func TestMulticastPathAllocs(t *testing.T) {
	const ranks = 7
	forBackends(t, func(t *testing.T, b stack.Backend) {
		short, nShort := broadcastAllocs(t, b, ranks, 100)
		long, nLong := broadcastAllocs(t, b, ranks, 500)
		got := float64(long-short) / float64(nLong-nShort)
		t.Logf("broadcast chain: %.3f parsec allocs/task", got)
		if got > 0.01 {
			t.Fatalf("broadcast chain: %.3f parsec allocs/task, want 0", got)
		}
	})
}
