package parsec_test

import (
	"strings"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// TestTerminationAnnouncedAfterRun: every successful run must end with the
// detector having *proven* termination — Run errors out otherwise — and at
// least one token round must have circulated.
func TestTerminationAnnouncedAfterRun(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("term", 3, false)
		// A little cross-rank diamond so counted traffic actually flows.
		a := g.AddTask(0, 0, 5*sim.Microsecond, 0, 256)
		b1 := g.AddTask(1, 1, 5*sim.Microsecond, 0, 256)
		b2 := g.AddTask(2, 2, 5*sim.Microsecond, 0, 256)
		c := g.AddTask(3, 0, 5*sim.Microsecond, 0)
		g.Link(a, 0, b1)
		g.Link(a, 0, b2)
		g.Link(b1, 0, c)
		g.Link(b2, 0, c)
		_, rt := build(t, b, 3, 2, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if !rt.Terminated() {
			t.Fatal("run succeeded but the detector never announced")
		}
		if n := rt.Metrics().Value("parsec", "term_rounds", metrics.StackRank); n < 1 {
			t.Fatalf("term rounds = %d, want >= 1", n)
		}
	})
}

// TestTerminationSingleRank: the degenerate one-member ring settles locally.
func TestTerminationSingleRank(t *testing.T) {
	g := parsec.NewGraphPool("solo", 1, false)
	g.AddTask(0, 0, sim.Microsecond, 0)
	_, rt := build(t, stack.LCI, 1, 1, g, nil)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !rt.Terminated() {
		t.Fatal("single-rank run did not announce termination")
	}
}

// TestTerminationAnnouncedOnDeadlock: a deadlocked graph has genuinely
// terminated — nothing will ever run again — so the detector must announce
// (otherwise the park rule would spin or the event queue would hang), while
// Run still reports the more specific deadlock verdict.
func TestTerminationAnnouncedOnDeadlock(t *testing.T) {
	g := parsec.NewGraphPool("dead", 2, false)
	a := g.AddTask(0, 0, sim.Microsecond, 0, 8)
	bb := g.AddTask(1, 1, sim.Microsecond, 0, 8)
	c := g.AddTask(2, 0, sim.Microsecond, 0, 8)
	g.Link(a, 0, bb)
	g.Link(bb, 0, c)
	g.Link(c, 0, bb) // cycle: b needs c, c needs b
	_, rt := build(t, stack.LCI, 2, 2, g, nil)
	_, err := rt.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !rt.Terminated() {
		t.Fatal("deadlocked graph: detector never announced, yet the queue drained")
	}
}

// TestTerminationListenerFires: OnTerminate listeners run exactly once at the
// announcement.
func TestTerminationListenerFires(t *testing.T) {
	g := parsec.NewGraphPool("listen", 2, false)
	a := g.AddTask(0, 0, sim.Microsecond, 0, 64)
	bb := g.AddTask(1, 1, sim.Microsecond, 0)
	g.Link(a, 0, bb)
	_, rt := build(t, stack.LCI, 2, 2, g, nil)
	fired := 0
	rt.OnTerminate(func() { fired++ })
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("termination listener fired %d times, want 1", fired)
	}
}
