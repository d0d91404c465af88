package parsec_test

import (
	"runtime"
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
func allocsPerTask(t *testing.T, b stack.Backend, ranks, short, long int) float64 {
	return float64(chainAllocs(t, b, ranks, long)-chainAllocs(t, b, ranks, short)) / float64(long-short)
}

// TestLocalTaskPathAllocs pins the runtime's own allocations on the path
// "task done → local successor ready → dispatched → done" at zero: what is
// left is the pool's Execute result, which the Taskpool contract makes the
// pool allocate. The flow record comes from the rank's free list; no map
// growth, no boxing in the ready queue, no dispatch closure, no input slice.
func TestLocalTaskPathAllocs(t *testing.T) {
	got := allocsPerTask(t, stack.LCI, 1, 1000, 5000)
	t.Logf("local chain: %.3f allocs/task", got)
	if got > 1.01 {
		t.Fatalf("local chain: %.3f allocs/task, want <= 1 (the pool's Execute result)", got)
	}
}

// TestRemoteTaskPathAllocs pins the same path when every edge crosses the
// wire (ACTIVATE, GET DATA, put, on both backends) at the same one
// allocation. The message path itself — the runtime's deferred
// communication-thread steps, both engines, both libraries, the fabric, the
// simulator's calendar — allocates nothing in steady state (each layer pins
// that on its own), and the runtime's per-flow state on both ranks (flow
// records with their waiter and pending-GET lists) is recycled; what is left
// is the pool's Execute result.
func TestRemoteTaskPathAllocs(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		got := allocsPerTask(t, b, 2, 1000, 5000)
		t.Logf("remote chain: %.3f allocs/task", got)
		if got > 1.01 {
			t.Fatalf("remote chain: %.3f allocs/task, want <= 1 (the pool's Execute result)", got)
		}
	})
}
