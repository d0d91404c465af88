package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/rel"
)

// faultCfg is the swept chaos point: rate each of drop, duplicate, corrupt,
// and reorder, from a fixed seed so failures reproduce.
func faultCfg(rate float64, seed uint64) *fabric.FaultConfig {
	return &fabric.FaultConfig{
		Drop: rate, Duplicate: rate, Corrupt: rate, Reorder: rate, Seed: seed,
	}
}

func relCfg() *rel.Config {
	c := rel.DefaultConfig()
	return &c
}

// resultDiff compares two runs' outcomes — every Result field (makespan, the
// numerical error to the bit, the per-rank busy times, ...) and the whole
// registry, so every counter of every layer — and returns the first
// difference, or "" when b reproduces a.
func resultDiff(a, b Result) string {
	ra, rb := a, b
	ra.Metrics, rb.Metrics = nil, nil // the pointer is per-run identity
	if !reflect.DeepEqual(ra, rb) {
		return fmt.Sprintf("\n a %+v\n b %+v", ra, rb)
	}
	return metrics.Diff(a.Metrics, b.Metrics)
}

// requireReplay fails t unless b reproduces a exactly (resultDiff).
func requireReplay(t *testing.T, a, b Result) {
	t.Helper()
	if d := resultDiff(a, b); d != "" {
		t.Fatalf("replay diverged: %s", d)
	}
}

// faultClasses are the fabric's per-message fault counters.
var faultClasses = []string{"faults_dropped", "faults_duplicated", "faults_corrupted", "faults_reordered"}

// TestGraphsCompleteUnderSweptFaults is the tentpole acceptance: both task
// graphs on both backends run to a numerically verified factorization with
// drop/duplicate/corrupt/reorder each swept up to 2%.
func TestGraphsCompleteUnderSweptFaults(t *testing.T) {
	rates := []float64{0.005, 0.02}
	if testing.Short() {
		rates = []float64{0.02}
	}
	agg := make(map[string]uint64)
	var retransmits uint64
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			for _, rate := range rates {
				t.Run(sub(backend, w, rate), func(t *testing.T) {
					const seed = DefaultSeed
					res := Run(Opts{
						Backend: backend, Workload: w,
						Faults: faultCfg(rate, seed), Rel: relCfg(),
					})
					if res.Err != nil {
						t.Fatalf("seed %#x: graph aborted: %v", seed, res.Err)
					}
					if !res.Verified {
						t.Fatalf("seed %#x: factor error %g", seed, res.RelErr)
					}
					// A lost ACK needs no retransmit (the next cumulative ACK
					// covers it), so per-run drops do not imply per-run
					// retransmits — recovery is asserted on the aggregate.
					var faults uint64
					for _, class := range faultClasses {
						n := res.Metrics.Total("fabric", class)
						faults += n
						agg[class] += n
					}
					if rate >= 0.02 && faults == 0 {
						t.Fatalf("seed %#x: fault injection idle", seed)
					}
					retransmits += res.Metrics.Total("rel", "retransmits")
				})
			}
		}
	}
	// Across the sweep every fault class must have fired, and recovery must
	// have actually happened — otherwise the chaos harness proves nothing.
	for _, class := range faultClasses {
		if agg[class] == 0 {
			t.Fatalf("sweep left a fault class unexercised: %s is 0", class)
		}
	}
	if retransmits == 0 {
		t.Fatal("sweep finished without a single retransmission")
	}
}

func sub(b stack.Backend, w Workload, rate float64) string {
	return b.String() + "/" + w.String() + "/" + ratePct(rate)
}

func ratePct(rate float64) string {
	switch rate {
	case 0.005:
		return "0.5pct"
	case 0.02:
		return "2pct"
	default:
		return "rate"
	}
}

// TestSeveredLinkAbortsCleanly severs one link permanently: the sender must
// exhaust its retry budget, declare the peer unreachable, and the runtime
// must abort the graph with that error — no hang, no panic.
func TestSeveredLinkAbortsCleanly(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			fc := &fabric.FaultConfig{
				Seed:  7,
				Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
			}
			res := Run(Opts{
				Backend: backend, Workload: Cholesky,
				Faults: fc, Rel: relCfg(),
			})
			if res.Err == nil {
				t.Fatal("severed link but the graph claims success")
			}
			var pu *rel.PeerUnreachable
			if !errors.As(res.Err, &pu) {
				t.Fatalf("abort error does not carry PeerUnreachable: %v", res.Err)
			}
			// Either endpoint may detect: rank 0's sends to 1 are dropped
			// outright, and rank 1's sends to 0 are delivered but lose their
			// ACKs on the severed return direction. The termination detector's
			// t=0 control traffic means rank 1 often races ahead.
			if !(pu.From == 0 && pu.To == 1) && !(pu.From == 1 && pu.To == 0) {
				t.Fatalf("unreachable pair (%d,%d), want the severed pair {0,1}", pu.From, pu.To)
			}
			if res.Metrics.Total("rel", "unreachable") == 0 {
				t.Fatal("rel/unreachable shows no unreachable peer")
			}
		})
	}
}

// TestDeterministicReplay: identical Opts (same seed) must reproduce the
// execution exactly, the whole registry included.
func TestDeterministicReplay(t *testing.T) {
	o := Opts{
		Backend: stack.LCI, Workload: Cholesky,
		Faults: faultCfg(0.02, 99), Rel: relCfg(),
	}
	a, b := Run(o), Run(o)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("aborts: %v / %v", a.Err, b.Err)
	}
	requireReplay(t, a, b)
}

// TestBoundedSlowdownUnderFaults: 2% fault rates may cost retransmissions
// and ACK traffic, but not an unbounded makespan blow-up.
func TestBoundedSlowdownUnderFaults(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			base := Run(Opts{Backend: backend, Workload: Cholesky})
			if base.Err != nil || !base.Verified {
				t.Fatalf("fault-free baseline broken: %+v", base)
			}
			faulty := Run(Opts{
				Backend: backend, Workload: Cholesky,
				Faults: faultCfg(0.02, 5), Rel: relCfg(),
			})
			if faulty.Err != nil || !faulty.Verified {
				t.Fatalf("faulty run broken: %+v", faulty)
			}
			if limit := 5 * base.Makespan; faulty.Makespan > limit {
				t.Fatalf("slowdown unbounded: %v faulty vs %v clean",
					faulty.Makespan, base.Makespan)
			}
		})
	}
}

// TestReliabilityLayerAloneIsBenign: rel over a clean fabric must not change
// correctness and must not retransmit.
func TestReliabilityLayerAloneIsBenign(t *testing.T) {
	res := Run(Opts{Backend: stack.LCI, Workload: HiCMA, Rel: relCfg()})
	if res.Err != nil || !res.Verified {
		t.Fatalf("rel over a clean fabric broke the run: %+v", res)
	}
	if r, d := res.Metrics.Total("rel", "retransmits"), res.Metrics.Total("rel", "dup_dropped"); r != 0 || d != 0 {
		t.Fatalf("spurious recovery on a clean fabric: %d retransmits, %d duplicates dropped", r, d)
	}
}
