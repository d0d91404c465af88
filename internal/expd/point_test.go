package expd

import (
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// TestEvalMicroPoints: the last point of a default pingpong spec (Open MPI,
// two streams without SYNC, 8 MiB) and of a default overlap spec (Open MPI,
// 8 MiB) evaluate to exactly what bench.PingPong and bench.Overlap measure
// with the default options and the point's streams and sync.
func TestEvalMicroPoints(t *testing.T) {
	for _, raw := range []string{`{"kind":"pingpong"}`, `{"kind":"overlap"}`} {
		s, err := DecodeSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		pts := s.Points()
		p := pts[len(pts)-1]
		if p.Backend != "mpi" || p.Size != 8<<20 || p.Kind == PointPingPong && (p.Streams != 2 || p.Sync) {
			t.Fatalf("%s: last point %+v, want Open MPI at 8 MiB (pingpong: 2 streams, no sync)", raw, p)
		}
		r, err := evalPoint(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind == PointPingPong {
			o := bench.DefaultPingPongOpts(stack.MPI, p.Size)
			o.Streams, o.Sync = 2, false
			if want := bench.PingPong(o); r.PingPong == nil || *r.PingPong != want {
				t.Errorf("%+v: evalPoint %+v, bench.PingPong %+v", p, r.PingPong, want)
			}
			continue
		}
		if want := bench.Overlap(bench.DefaultOverlapOpts(stack.MPI, p.Size)); r.Overlap == nil || *r.Overlap != want {
			t.Errorf("%+v: evalPoint %+v, bench.Overlap %+v", p, r.Overlap, want)
		}
	}
}

// TestChaosMakespanNanoseconds: a chaos rate point's makespan column holds
// the faulted run's makespan in nanoseconds, and its baseline the
// fault-free run's.
func TestChaosMakespanNanoseconds(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"kind":"chaos","backends":["lci"],"workloads":["cholesky"],"rates":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Points()[0]
	r, err := evalPoint(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := p.chaosOpts(2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Chaos.Rows[0].MakespanNS, int64(chaos.Run(o).Makespan/sim.Nanosecond); got != want {
		t.Errorf("makespan_ns %d, want %d", got, want)
	}
	base := chaos.Run(chaos.Opts{Backend: stack.LCI, Workload: chaos.Cholesky})
	if got, want := r.Chaos.BaselineNS, int64(base.Makespan/sim.Nanosecond); got != want {
		t.Errorf("baseline_ns %d, want %d", got, want)
	}
}
