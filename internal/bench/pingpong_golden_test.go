package bench

import (
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// pingpongFingerprint is what one Fig 2/3 run exposes that must not move
// when only the way the graph is described changes.
type pingpongFingerprint struct {
	makespan sim.Duration // virtual time-to-solution, picoseconds
	events   uint64       // simulation events fired
}

// pingpongGoldenRuns are the three pinned runs: a small Fig 2a point (one
// stream, SYNC between iterations, lazy fetches), a Fig 2b two-stream run
// without SYNC, and a Fig 3 overlap point (nonzero task cost).
var pingpongGoldenRuns = []struct {
	name string
	run  func(b stack.Backend) (sim.Duration, uint64)
}{
	{"fig2a", func(b stack.Backend) (sim.Duration, uint64) {
		o := DefaultPingPongOpts(b, 64<<10)
		o.TotalPerIter = 4 << 20
		return pingpongRun(o, 0)
	}},
	{"fig2b", func(b stack.Backend) (sim.Duration, uint64) {
		o := DefaultPingPongOpts(b, 128<<10)
		o.TotalPerIter = 4 << 20
		o.Streams, o.Sync = 2, false
		return pingpongRun(o, 1)
	}},
	{"fig3", func(b stack.Backend) (sim.Duration, uint64) {
		return overlapRun(DefaultOverlapOpts(b, 2<<20), 0)
	}},
}

// TestPingPongGolden pins three small Fig 2/3 runs to literals, makespan and
// event count, on both backends, in the style of TestHiCMAGolden: the
// benchmark graphs are computed from task indices, and this holds every
// change to how they are computed (or to the runtime beneath them) to the
// virtual time the model produced when the literals were recorded. A change
// that means to move the model re-records the literals and says so.
func TestPingPongGolden(t *testing.T) {
	golden := map[string]pingpongFingerprint{
		"LCI/fig2a":      {1474088083, 7028},
		"LCI/fig2b":      {1131342631, 7013},
		"LCI/fig3":       {56282242134, 15622},
		"Open MPI/fig2a": {3446013064, 6491},
		"Open MPI/fig2b": {2945412756, 5763},
		"Open MPI/fig3":  {58760811200, 14139},
	}
	for _, b := range stack.Backends {
		for _, r := range pingpongGoldenRuns {
			name := b.String() + "/" + r.name
			d, fired := r.run(b)
			// Printed in the literal's own syntax, for re-recording.
			if got, want := (pingpongFingerprint{d, fired}), golden[name]; got != want {
				t.Errorf("got %q: {%d, %d}, golden %+v", name, got.makespan, got.events, want)
			}
		}
	}
}
