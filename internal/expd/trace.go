package expd

import (
	"fmt"
	"io"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/ctrace"
	"amtlci/internal/sim"
)

// TracePoint re-simulates one HiCMA point under ctrace.Record and returns
// the Chrome-trace events (task slices, message instants, and counter
// tracks). The run is built by bench.HiCMARuntime from the options
// EvalPoint measures, as the point's first run, so the trace shows the same
// execution the cached measurement came from — determinism makes the replay
// free of divergence.
func TracePoint(p Point) (events []ctrace.Event, err error) {
	if p.Kind != PointHiCMA {
		return nil, fmt.Errorf("expd: traces are only available for hicma points, not %q", p.Kind)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("expd: tracing point %s: %v", p.Hash()[:12], r)
		}
	}()
	b, err := stack.ParseBackend(p.Backend)
	if err != nil {
		return nil, err
	}
	st, rt, pool := bench.HiCMARuntime(p.hicmaOpts(b), 0, nil)
	tr, err := ctrace.Record(rt, pool, st.Eng, st.Metrics, 100*sim.Microsecond)
	return tr.Events, err
}

// writeTrace serializes events as a Chrome trace JSON array.
func writeTrace(w io.Writer, events []ctrace.Event) error {
	return ctrace.Write(w, events)
}
