package ctrace_test

import (
	"math"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/ctrace"
	"amtlci/internal/hicma"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// TestRecordSamplesFactorization: a run's counter tracks must cover the
// factorization. The sampler stops ticking when it is the only pending
// event, so it must start with the run's own events, not ahead of them.
// The run is a small HiCMA factorization built as cmd/trace builds one.
func TestRecordSamplesFactorization(t *testing.T) {
	const nodes = 2
	pool := hicma.NewVirtual(hicma.DefaultParams(9600, 1200), nodes)
	s := stack.New(stack.LCI, nodes)
	cfg := parsec.DefaultConfig(16)
	cfg.Metrics = s.Metrics
	rt := parsec.New(s.Eng, s.Engines, pool, cfg)

	tr, err := ctrace.Record(rt, pool, s.Eng, s.Metrics, 100*sim.Microsecond)
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
