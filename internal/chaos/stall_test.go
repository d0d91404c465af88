package chaos

import (
	"testing"
	"time"

	"amtlci/internal/core/stack"
)

// stallBound is the host time a run that must return gets before the test
// declares it hung: the tests below finish in well under a second, and
// nothing here relies on go test's ten-minute default.
const stallBound = 60 * time.Second

// runBounded is Run with a host-time bound.
func runBounded(t *testing.T, o Opts) Result {
	t.Helper()
	done := make(chan Result, 1)
	go func() { done <- Run(o) }()
	select {
	case r := <-done:
		return r
	case <-time.After(stallBound):
		t.Fatalf("chaos.Run still running after %v: the simulation is being kept alive", stallBound)
		return Result{}
	}
}

// TestNoStallStopWhenRunTerminates: recovered runs that terminate by proof —
// with and without faults, with and without stealing — never trip the watch.
func TestNoStallStopWhenRunTerminates(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			crash := midRunCrash(t, backend, w)
			for _, o := range []Opts{
				{Crash: &crash, Recover: true},
				{Crash: &crash, Recover: true, Steal: true},
				{Crash: &crash, Recover: true, Faults: faultCfg(0.02, 7), Rel: relCfg()},
				{Recover: true, TaskScale: 2000}, // tasks far longer than the stall window
			} {
				o.Backend, o.Workload = backend, w
				res := runBounded(t, o)
				if res.Err != nil || !res.TermAnnounced {
					t.Fatalf("%v/%v %+v: err=%v announced=%v", backend, w, o, res.Err, res.TermAnnounced)
				}
				if n := res.Metrics.Total("rel", "hb_stall_stops"); n != 0 {
					t.Fatalf("%v/%v %+v: %d stall stops in a run that terminated", backend, w, o, n)
				}
			}
		}
	}
}
