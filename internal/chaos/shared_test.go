package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"amtlci/internal/core/stack"
)

// TestChaosSharedInputsRaceFree: every Run of a process shares the two
// generated inputs. Four concurrent Runs (the way a chaos spec under -j
// drives them; `make verify` runs this under -race) must return what their
// serial twins do, and must leave the inputs exactly as a fresh generation
// produces them.
func TestChaosSharedInputsRaceFree(t *testing.T) {
	var opts []Opts
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			crash := midRunCrash(t, backend, w)
			opts = append(opts, Opts{
				Backend: backend, Workload: w, Crash: &crash, Recover: true,
				Faults: faultCfg(0.02, 11), Rel: relCfg(),
			})
		}
	}
	serial := make([]Result, len(opts))
	for i, o := range opts {
		serial[i] = Run(o)
		if r := serial[i]; r.Err != nil || !r.Verified {
			t.Errorf("verified=%v err=%v", r.Verified, r.Err)
		}
	}
	concurrent := make([]Result, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = Run(o)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stallBound):
		t.Fatalf("concurrent runs still going after %v", stallBound)
	}
	for i := range opts {
		if d := resultDiff(concurrent[i], serial[i]); d != "" {
			t.Errorf("%v/%v: concurrent run differs from its serial twin: %s",
				opts[i].Backend, opts[i].Workload, d)
		}
	}
	if !reflect.DeepEqual(choleskyInput(), newCholeskyInput()) {
		t.Error("the shared Cholesky input was written to")
	}
	if !reflect.DeepEqual(hicmaInput(), newHiCMAInput()) {
		t.Error("the shared HiCMA input was written to")
	}
}
