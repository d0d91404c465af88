package expd

import (
	"bytes"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/ctrace"
)

// TestTraceMakespanMatchesPoint: a traced point reports the makespan its
// untraced evaluation measures, on both backends — the trace's sampler must
// not stretch the run to its own next tick — and two traces of one point
// encode to the same bytes.
func TestTraceMakespanMatchesPoint(t *testing.T) {
	for _, be := range []string{"lci", "mpi"} {
		s, err := DecodeSpec([]byte(`{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["` + be + `"]}`))
		if err != nil {
			t.Fatal(err)
		}
		p := s.Points()[0]
		r, err := evalPoint(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := bench.HiCMATrace(p.HiCMAOpts(r.HiCMA.Backend))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Elapsed.Seconds(), r.HiCMA.TimeToSolution; got != want {
			t.Errorf("%s: traced makespan %v s, untraced time-to-solution %v s", be, got, want)
		}
		again, err := bench.HiCMATrace(p.HiCMAOpts(r.HiCMA.Backend))
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := ctrace.Write(&a, tr.Events); err != nil {
			t.Fatal(err)
		}
		if err := ctrace.Write(&b, again.Events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two traces of one point encode differently", be)
		}
	}
}
