package chaos

import (
	"strings"
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

// TestStalledRunReturnsError pins the repository's known hang (ROADMAP item
// 1): Open MPI x cholesky with stealing, 2% faults from seed 316, rank 1
// crashed at 40% of the fault-free makespan, and recovery. Every task
// executes, but the termination detector never announces, so nothing stops
// the heartbeats, which kept the event queue non-empty forever. The detector's
// stall watch now ends the run, and the runtime's error names every rank's
// execution, message-counter and steal state — the protocol bug itself is
// still open.
func TestStalledRunReturnsError(t *testing.T) {
	base := Run(Opts{Backend: stack.MPI, Workload: Cholesky, TaskScale: 8})
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	crash := CrashSpec{Rank: 1, At: base.Makespan * 2 / 5}
	res := runBounded(t, Opts{
		Backend: stack.MPI, Workload: Cholesky, TaskScale: 8,
		Steal: true, Recover: true, Crash: &crash,
		Faults: faultCfg(0.02, 316), Rel: relCfg(),
	})
	if res.Err == nil {
		t.Skipf("seed 316 terminated (announced=%v): the steal-under-faults bug no longer reproduces here; pick the live reproducer from EXPERIMENTS.md", res.TermAnnounced)
	}
	msg := res.Err.Error()
	for _, want := range []string{"without a termination announcement", "rank 0: ", "rank 3: ", "csent", "crecv"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not mention %q: %v", want, msg)
		}
	}
	if n := res.Metrics.Total("rel", "hb_stall_stops"); n != 1 {
		t.Errorf("rel/hb_stall_stops = %d, want 1", n)
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
