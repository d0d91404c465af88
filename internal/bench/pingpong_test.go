package bench

import (
	"fmt"
	"slices"
	"testing"

	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// explicitPingPong is the oracle for pingpongGraph: the same §6.2 graph
// built task by task and edge by edge in a GraphPool.
func explicitPingPong(o PingPongOpts, computeCost func(int64) sim.Duration) *parsec.GraphPool {
	window := int(o.TotalPerIter / o.FragSize)
	if window < 1 {
		window = 1
	}
	g := parsec.NewGraphPool("pingpong", 2, false)
	ppID := func(t, c, f int) int64 {
		return 2 * int64((t*o.Streams+c)*window+f)
	}
	syncID := func(t int) int64 { return 2*int64(t)*int64(o.Streams*window) + 1 }

	cost := sim.Duration(0)
	if computeCost != nil {
		cost = computeCost(o.FragSize)
	}
	for t := 0; t < o.Iters; t++ {
		for c := 0; c < o.Streams; c++ {
			rank := (t + c) % 2
			for f := 0; f < window; f++ {
				// Flow 0: the fragment; flow 1: control to SYNC.
				id := g.AddTask(ppID(t, c, f), rank, cost, int64(o.Iters-t), o.FragSize, 0)
				if t > 0 {
					g.Link(parsec.TaskID{Index: ppID(t-1, c, f)}, 0, id)
					if o.Sync {
						g.Link(parsec.TaskID{Index: syncID(t - 1)}, 0, id)
					}
				}
			}
		}
		if o.Sync && t < o.Iters-1 {
			// SYNC(t) gathers a control dep from every PINGPONG(t,·,·).
			sid := g.AddTask(syncID(t), 0, 0, 1<<30, 0)
			for c := 0; c < o.Streams; c++ {
				for f := 0; f < window; f++ {
					g.Link(parsec.TaskID{Index: ppID(t, c, f)}, 1, sid)
				}
			}
		}
	}
	return g
}

// pingpongPair builds a graph both ways: computed, and by the oracle.
func pingpongPair(streams, window, iters int, sync, costed bool) (*pingpongGraph, *parsec.GraphPool) {
	o := PingPongOpts{FragSize: 1 << 10, TotalPerIter: int64(window) << 10, Streams: streams, Iters: iters, Sync: sync}
	var cost func(int64) sim.Duration
	var c sim.Duration
	if costed {
		cost = func(m int64) sim.Duration { return sim.Duration(m) * 3 * sim.Nanosecond }
		c = cost(o.FragSize)
	}
	return newPingPongGraph(o, c), explicitPingPong(o, cost)
}

// observe returns what every method of tp taking a TaskID says about id, one
// entry per call, "panic" where the call panics.
func observe(tp parsec.Taskpool, id parsec.TaskID) []string {
	sizes := func(refs []parsec.DataRef) []int64 {
		var s []int64
		for _, r := range refs {
			s = append(s, r.Buf.Size)
		}
		return s
	}
	calls := []func() any{
		func() any { return tp.RankOf(id) },
		func() any { return tp.Cost(id) },
		func() any { return tp.Priority(id) },
		func() any { return tp.Inputs(id, nil) },
		func() any { return tp.Successors(id, -1, nil) },
		func() any { return tp.Successors(id, 0, nil) },
		func() any { return tp.Successors(id, 1, nil) },
		func() any { return tp.Successors(id, 2, nil) },
		func() any { return sizes(tp.Execute(id, nil)) },
		func() any { return tp.MakeCopy(id, 0, 77).Buf.Size },
	}
	out := make([]string, len(calls))
	for i, call := range calls {
		func() {
			defer func() {
				if recover() != nil {
					out[i] = "panic"
				}
			}()
			out[i] = fmt.Sprint(call())
		}()
	}
	return out
}

// roots lists tp's roots at rank in emission order.
func roots(tp parsec.Taskpool, rank int) []parsec.TaskID {
	var ids []parsec.TaskID
	tp.Roots(rank, func(t parsec.TaskID) { ids = append(ids, t) })
	return ids
}

// TestPingPongGraphMatchesExplicit holds the computed ping-pong graph to the
// explicit one over a grid of shapes: every task's placement, cost, priority,
// inputs, successors on every flow, output sizes and landing buffers, each
// rank's roots in order and task count, and, around and between the valid
// indices, the same ids panic in both.
func TestPingPongGraphMatchesExplicit(t *testing.T) {
	for _, streams := range []int{1, 2, 3} {
		for _, window := range []int{1, 2, 5} {
			for _, iters := range []int{1, 2, 4} {
				for _, sync := range []bool{false, true} {
					for _, costed := range []bool{false, true} {
						name := fmt.Sprintf("S=%d/W=%d/I=%d/sync=%v/cost=%v", streams, window, iters, sync, costed)
						got, want := pingpongPair(streams, window, iters, sync, costed)
						if got.Name() != want.Name() || !slices.Equal(got.Classes(), want.Classes()) {
							t.Fatalf("%s: name %q classes %v, want %q %v", name, got.Name(), got.Classes(), want.Name(), want.Classes())
						}
						for rank := 0; rank < 2; rank++ {
							if g, w := roots(got, rank), roots(want, rank); !slices.Equal(g, w) {
								t.Fatalf("%s: rank %d roots %v, want %v", name, rank, g, w)
							}
							if g, w := got.LocalTasks(rank), want.LocalTasks(rank); g != w {
								t.Fatalf("%s: rank %d owns %d tasks, want %d", name, rank, g, w)
							}
						}
						last := 2 * int64(iters*streams*window)
						for class := int32(0); class < 2; class++ {
							for idx := int64(-3); idx <= last+3; idx++ {
								id := parsec.TaskID{Class: class, Index: idx}
								if g, w := observe(got, id), observe(want, id); !slices.Equal(g, w) {
									t.Fatalf("%s: task %v: %v, want %v", name, id, g, w)
								}
							}
						}
						invalid := []parsec.TaskID{
							{Index: last}, // t = Iters
							{Index: 2*int64((iters-1)*streams*window) + 1}, // SYNC of the last iteration
							{Class: 1},
							{Index: -2},
						}
						if streams*window > 1 {
							invalid = append(invalid, parsec.TaskID{Index: 3}) // odd, not a SYNC index
						}
						for _, id := range invalid {
							if g := observe(got, id); g[0] != "panic" {
								t.Fatalf("%s: RankOf(%v) = %s, want a panic", name, id, g[0])
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPingPongGraph compares the computed and the explicit graph on an
// arbitrary TaskID of an arbitrary small shape: every method agrees, or both
// panic.
func FuzzPingPongGraph(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(3), true, false, int32(0), int64(7))
	f.Add(uint8(2), uint8(1), uint8(2), false, true, int32(0), int64(4))
	f.Add(uint8(0), uint8(7), uint8(5), true, true, int32(1), int64(-1))
	f.Fuzz(func(t *testing.T, streams, window, iters uint8, sync, costed bool, class int32, index int64) {
		s, w, n := int(streams%4)+1, int(window%8)+1, int(iters%6)+1
		got, want := pingpongPair(s, w, n, sync, costed)
		id := parsec.TaskID{Class: class, Index: index}
		for _, probe := range []parsec.TaskID{id, {Index: index % (2*int64(s*w*n) + 4)}} {
			if g, ref := observe(got, probe), observe(want, probe); !slices.Equal(g, ref) {
				t.Fatalf("S=%d W=%d I=%d sync=%v cost=%v task %v: %v, want %v", s, w, n, sync, costed, probe, g, ref)
			}
		}
	})
}
