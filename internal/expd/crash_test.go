package expd

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestCrashPointProof: a one-point crash spec runs the whole recovery proof
// inside evalPoint — baseline, recovery armed without a crash, the cascade,
// an exact replay — and its summary CSV is the same bytes at one worker, at
// two, and served from a warm cache.
func TestCrashPointProof(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"kind":"chaos","backends":["lci"],"workloads":["cholesky"],"crashes":["1@40%"]}`))
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int, cache *Cache) ([]byte, *CrashPointResult, bool) {
		t.Helper()
		var hit bool
		res, err := EvalPoints(context.Background(), workers, pts, cache, EvalHooks{
			Done: func(_ int, _ PointResult, cached bool, _ error, _ time.Duration) { hit = cached },
		})
		// evalPoint refuses a point whose recovery-armed healthy run
		// restarts, so a nil error is the armed run's 0 restarts.
		if err != nil {
			t.Fatal(err)
		}
		figs, err := Figures(s, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 1 || figs[0].Name != "chaos-crash-summary" || len(figs[0].Failures) != 0 {
			t.Fatalf("crash spec renders %+v, want one chaos-crash-summary without failures", figs)
		}
		var buf bytes.Buffer
		figs[0].Table.CSV(&buf)
		return buf.Bytes(), res[0].Crash, hit
	}

	serial, r, _ := sweep(1, nil)
	if r.Verdict != "verified" || !r.Verified || r.Counters["restarts"] != 1 || !r.ReplayIdentical {
		t.Errorf("crash proof: verdict %q, verified %t, restarts %d, replay identical %t; want verified, true, 1, true",
			r.Verdict, r.Verified, r.Counters["restarts"], r.ReplayIdentical)
	}
	if parallel, _, _ := sweep(2, cache); !bytes.Equal(parallel, serial) {
		t.Errorf("summary CSV differs at 2 workers:\n%s\nvs 1 worker:\n%s", parallel, serial)
	}
	warm, _, hit := sweep(2, cache)
	if !hit {
		t.Error("warm sweep simulated its point again")
	}
	if !bytes.Equal(warm, serial) {
		t.Errorf("summary CSV differs from the warm cache:\n%s\nvs simulated:\n%s", warm, serial)
	}
}
