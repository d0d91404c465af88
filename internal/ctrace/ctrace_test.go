package ctrace_test

import (
	"math"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
)

// TestRecordSamplesFactorization: a run's counter tracks must cover the
// factorization. The sampler stops ticking when it is the only pending
// event, so it must start with the run's own events, not ahead of them.
// The run is a small HiCMA factorization on the build bench.HiCMA measures.
func TestRecordSamplesFactorization(t *testing.T) {
	o := bench.DefaultHiCMAOpts(stack.LCI, 1200, 2)
	o.N = 9600
	tr, err := bench.HiCMATrace(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.UnknownClass != 0 || tr.UnmatchedEnd != 0 {
		t.Fatalf("anomalies on a clean run: %d unknown classes, %d unmatched ends", tr.UnknownClass, tr.UnmatchedEnd)
	}
	first, last := math.Inf(1), math.Inf(-1)
	for _, e := range tr.Events {
		if e.Phase == "X" {
			first, last = math.Min(first, e.TS), math.Max(last, e.TS+e.Dur)
		}
	}
	inside := 0
	for _, e := range tr.Events {
		if e.Phase == "C" && e.TS > first && e.TS < last {
			inside++
		}
	}
	if inside == 0 {
		t.Fatalf("no counter sample between the first task start (%v µs) and the last task end (%v µs)", first, last)
	}
}
