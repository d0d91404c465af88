package parsec

import (
	"strings"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
	"amtlci/internal/term"
)

// TestStalledRunReturnsError: a run whose detector never announces must come
// back from Run with an error, not spin on the heartbeats forever. The wedge
// is made on purpose. Rank 2's task activates rank 1's over a control flow
// on a link with a 200 µs latency spike, so two detector rounds see the same
// message in flight and the detector parks. The one nudge that should wake
// it — rank 1's, once it has run its task — is dropped on its way to the
// coordinator. Every task executes, nothing is in flight, and nothing will
// announce: the heartbeat detector's progress watch stops the run, and the
// error names every rank's execution and message-counter state.
func TestStalledRunReturnsError(t *testing.T) {
	for _, b := range stack.Backends {
		t.Run(b.String(), func(t *testing.T) {
			o := stack.DefaultOptions(b, 3)
			o.Fabric.Jitter = 0
			o.Faults = &fabric.FaultConfig{Links: []fabric.LinkFault{{Src: 2, Dst: 1, ExtraLatency: 200 * sim.Microsecond}}}
			rc := rel.DefaultConfig()
			rc.EnableHeartbeats()
			o.Rel = &rc
			s := stack.Build(o)
			g := NewGraphPool("stall", 3, false)
			a := g.AddTask(0, 2, 10*sim.Microsecond, 0, 0)
			g.Link(a, 0, g.AddTask(1, 1, 10*sim.Microsecond, 0))
			cfg := DefaultConfig(2)
			cfg.Jitter = 0
			cfg.Metrics = s.Metrics
			rt := New(s.Dom, s.Engines, g, cfg)

			dropped := 0
			rt.term = rt.newDetector(termCounters(rt.reg), func(from, to int, m term.Msg) {
				if m.Kind == term.Nudge && from == 1 && rt.nodes[1].executed > 0 && dropped == 0 {
					dropped++
					return
				}
				rt.sendTerm(from, to, m)
			})
			rt.OnTerminate(s.Rel.StopHeartbeats)
			s.Rel.WatchProgress(rt.Progress)

			_, err := rt.Run()
			if dropped != 1 {
				t.Fatalf("dropped %d nudges, want 1", dropped)
			}
			if err == nil {
				t.Fatal("Run returned no error, though the detector never announced")
			}
			for _, want := range []string{"without a termination announcement",
				"rank 0: 0/0 tasks, csent 0 crecv 0", "rank 1: 1/1 tasks", "rank 2: 1/1 tasks", "csent", "crecv"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not mention %q: %v", want, err)
				}
			}
			if n := s.Metrics.Total("rel", "hb_stall_stops"); n != 1 {
				t.Errorf("rel/hb_stall_stops = %d, want 1", n)
			}
		})
	}
}
