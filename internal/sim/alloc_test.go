package sim

import (
	"runtime"
	"testing"
)

// steadyAllocs returns the heap allocations per unit of work of a warm
// workload: work runs once to warm up (event pool, Proc ring), then the
// difference between a long and a short run cancels what a run pays once
// (Parallel's runner goroutines at Run entry).
func steadyAllocs(work func(n int)) float64 {
	mallocs := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		work(n)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	work(60000)
	short := mallocs(2000)
	long := mallocs(6000)
	return float64(int64(long)-int64(short)) / 4000
}

// TestEngineHotPathZeroAlloc pins the serial engine's steady state at zero
// allocations: a fired event's slot returns to the pool before its callback
// schedules the next, a cancelled timer's slot returns at Cancel, the
// calendar's buckets are lists through the pooled events and never grow, and
// Proc's ring and bound completion callback reuse their memory.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	e := NewEngine()
	check := func(name string, work func(n int)) {
		if per := steadyAllocs(work); per > 0.01 {
			t.Errorf("%s: %.3f allocs/op, want 0", name, per)
		}
	}

	// 512 self-refilling events on the delay mix of a real run: mostly within
	// a few dozen calendar buckets (wire latencies and gaps), one in 256 in
	// the overflow tier (timeouts).
	rng := NewRNG(1)
	delay := func() Duration {
		d := Duration(rng.Intn(1<<24)) + 1
		if rng.Intn(256) == 0 {
			d += 1 << 33
		}
		return d
	}
	left := 0
	ticks := make([]func(), 512)
	for i := range ticks {
		i := i
		ticks[i] = func() {
			if left--; left > 0 {
				e.After(delay(), ticks[i])
			}
		}
	}
	check("schedule+fire", func(n int) {
		left = n
		for _, tick := range ticks {
			e.After(delay(), tick)
		}
		e.Run()
	})

	// The retransmission-timer pattern: armed, then cancelled by an ACK.
	check("schedule+cancel", func(n int) {
		for i := 0; i < n; i++ {
			e.Cancel(e.After(100*Microsecond, func() {}))
		}
	})

	// A steadily 32-deep FIFO, the regime of the NIC tx/rx engines.
	p := NewProc(e)
	var dispatch func()
	dispatch = func() {
		if left--; left >= 32 {
			p.Submit(10, dispatch)
		}
	}
	check("proc", func(n int) {
		left = n
		for i := 0; i < 32; i++ {
			p.Submit(10, dispatch)
		}
		e.Run()
	})
}

// TestParallelRoundHotPathZeroAlloc pins the round protocol at zero
// allocations per round: ranks == shards and every shard holds one
// self-refilling event one lookahead ahead, so each round admits one event
// per shard and the cost is the protocol itself — slot scan, horizon
// arithmetic, plan publication, barrier.
func TestParallelRoundHotPathZeroAlloc(t *testing.T) {
	const lookahead = Duration(1) << 20
	for _, shards := range []int{2, 4} {
		dom := NewParallel(shards, shards, lookahead)
		left := make([]int, shards) // each element touched only by its shard
		ticks := make([]func(), shards)
		for i := range ticks {
			i, eng := i, dom.RankEngine(i)
			ticks[i] = func() {
				if left[i]--; left[i] > 0 {
					eng.After(lookahead, ticks[i])
				}
			}
		}
		per := steadyAllocs(func(n int) {
			for i, tick := range ticks {
				left[i] = n
				dom.RankEngine(i).After(lookahead, tick)
			}
			dom.Run()
		})
		if dom.Rounds() < 68000 {
			t.Fatalf("shards=%d: %d rounds for 68000 events per shard; workload does not exercise the round path", shards, dom.Rounds())
		}
		if per > 0.01 {
			t.Errorf("shards=%d: %.3f allocs/round, want 0", shards, per)
		}
	}
}
