package expd

import (
	"bytes"
	"math"
	"testing"
)

// TestTracePointHonoursSteal: TracePoint must trace the run EvalPoint
// measures, so a point field that moves the measurement moves the trace.
// Stealing changes this point's makespan; its traces with and without
// stealing must differ as well.
func TestTracePointHonoursSteal(t *testing.T) {
	plain := Point{Kind: PointHiCMA, Backend: "lci", N: 9600, NB: 1200, Nodes: 2, Runs: 1}
	steal := plain
	steal.Steal = true

	trace := func(p Point) (float64, []byte) {
		t.Helper()
		res, err := EvalPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		events, err := TracePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		return res.HiCMA.TimeToSolution, buf.Bytes()
	}
	plainTTS, plainTrace := trace(plain)
	stealTTS, stealTrace := trace(steal)
	if plainTTS == stealTTS {
		t.Fatalf("stealing leaves the makespan at %v s; the point no longer tells the runs apart", plainTTS)
	}
	if bytes.Equal(plainTrace, stealTrace) {
		t.Fatalf("steal: true traces the same execution as steal: false (%v s vs %v s measured)", stealTTS, plainTTS)
	}
}

// TestTracePointSamplesFactorization: a point's counter tracks must cover
// the factorization. The sampler stops ticking when it is the only pending
// event, so it must start with the run's own events, not ahead of them.
func TestTracePointSamplesFactorization(t *testing.T) {
	events, err := TracePoint(Point{Kind: PointHiCMA, Backend: "lci", N: 9600, NB: 1200, Nodes: 2,
		Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := math.Inf(1), math.Inf(-1)
	for _, e := range events {
		if e.Phase == "X" {
			first, last = math.Min(first, e.TS), math.Max(last, e.TS+e.Dur)
		}
	}
	inside := 0
	for _, e := range events {
		if e.Phase == "C" && e.TS > first && e.TS < last {
			inside++
		}
	}
	if inside == 0 {
		t.Fatalf("no counter sample between the first task start (%v µs) and the last task end (%v µs)", first, last)
	}
}
